"""Spectral analysis of the free-surface Stokes operator on a periodic liquid cylinder.

The package discretizes velocity fields on the domain {x^2 + y^2 < kappa^2}
x (0, ell) with an axially periodic free surface at r = kappa, and provides
the Helmholtz projection, per-mode elliptic solves, assembly of the projected
Stokes operator -mu*P*Laplacian + grad(Q), its spectrum and resolvent, and
linearized time evolution with energy monitoring.
"""

import os as _os
import sys as _sys
import warnings as _warnings

# Pin BLAS thread pools before numpy is imported anywhere downstream. Keeps
# factorizations bitwise deterministic across runs and honors the
# single-threaded runtime budget. Every factorization and product of the
# package runs on numpy's OpenBLAS (no scipy is imported), so there is one
# OpenBLAS to pin. Effective only when this package is imported before
# numpy (always true for the CLI entry point): OpenBLAS reads its thread
# count once, when numpy loads it.
if "OPENBLAS_NUM_THREADS" not in _os.environ and "numpy" in _sys.modules:
    _warnings.warn(
        "numpy was imported before jetstokes, so OpenBLAS already runs its "
        "default thread pool and the pin to one thread cannot take effect; "
        "set OPENBLAS_NUM_THREADS=1 in the environment before starting Python",
        RuntimeWarning,
        stacklevel=2,
    )
for _var in (
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "OMP_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    _os.environ.setdefault(_var, "1")


def _pin_allocator():
    """Fix glibc malloc's mmap and trim thresholds for the process.

    A field at n_r = 24, n_theta = 6, n_z = 4 is a complex array of 132 KB,
    just above glibc's default mmap threshold of 128 KB, which glibc moves
    as blocks are freed; and a free heap top above the trim threshold goes
    back to the kernel. So after one set-up a solve's temporaries are
    reused heap, and after another each is fresh pages, faulted in and
    handed back on every call: about 230 page faults and a quarter more
    time per resolve on that grid, decided by where the set-up's arrays
    happened to land. Fixed thresholds (which also stop glibc moving them)
    keep a solve's temporaries on the heap in every state. Skipped where
    the C library has no mallopt.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: keep up to 64 MB of free heap top
    mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD: blocks below 4 MB come from the heap


_pin_allocator()
del _os, _sys, _warnings, _var, _pin_allocator

__version__ = "0.1.0"

from .config import ConfigError, DomainConfig, RunConfig, default_run_config, load_run_config
from .workspace import Workspace
from .fields import (
    ScalarField,
    TraceField,
    VectorField,
    div,
    grad,
    inner_product_Hkp,
    laplacian,
    norm_L2,
    norm_Hkp,
    trace_SF,
)
from .fieldio import read_field, read_matrix, write_field, write_matrix
from .modesolve import solve_mode_dirichlet
from .helmholtz import DecompositionResult, harmonic_extension, operator_Q, project_P
from .stokesop import (
    ModeOperator,
    assemble_A,
    build_constrained_basis,
    mode_operator,
    tangential_traction,
)
from .spectral import (
    ResolventSample,
    eigensolve,
    kernel_dimension,
    resolve,
    resolvent_sweep,
)
from .evolution import (
    EnergyTrace,
    EvolutionConfig,
    EvolutionResult,
    estimate_report,
    evolve,
    recover_pressure,
)
