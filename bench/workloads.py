"""The benchmark workloads: set-up, closed-loop requests and answer checks.

Each request calls the public functions the matching CLI command calls.
Inputs come from the seed and are drawn before a request is timed. Every
answer is checked against bounds that do not depend on the seed.
"""

import dataclasses
import math

import numpy as np

from jetstokes import (
    DomainConfig,
    EvolutionConfig,
    Workspace,
    eigensolve,
    estimate_report,
    evolve,
    inner_product_Hkp,
    mode_operator,
    norm_Hkp,
    norm_L2,
    recover_pressure,
    resolve,
)
from jetstokes.config import EvolveBlock, ResolventBlock, SpectrumBlock
from jetstokes.discretization import RadialTables, tables_for_key
from jetstokes.fields import random_smooth_vector

SPECTRUM_COUNT = SpectrumBlock().count
LAM_GRID = ResolventBlock().grid()
EVOLVE = EvolveBlock()
# One evolve request is a forced run of this many steps of EVOLVE.dt, so a
# run of a few seconds still holds enough requests for a median.
EVOLVE_STEPS = 10

# Converged eigenvalues copied from tests/test_spectral.py (MODE0_NONZERO,
# MODE1_SMALLEST): nine digits, stable under refinement from n_r = 12 up to
# n_r = 48. The 1.0 entry is the twisted rotation with eigenvalue mu*beta^2.
MODE0_NONZERO = (13.559830867, 13.559830867, 22.163147989, 22.163147989, 37.313452855)
MODE1_SMALLEST = (0.150352606, 0.150352606, 1.0, 2.907550155, 16.484250510)
FROZEN_REL = 1e-5
TWISTED_ABS = 1e-8
# tests/test_spectral.py bounds the absolute eigen-residual by 1e-10 on the
# n_r = 12 grid. The residual is roundoff on the scale of the largest
# eigenvalue, which grows like n_r^4, so the bound grows with it.
EIGEN_RESIDUAL_NR12 = 1e-10
RESOLVE_ABS = 1e-8
RESOLVE_RESIDUAL = 1e-8
# relative defect of the energy identity Im(lam) ||v||^2 = -Im (g, v), which
# the Galerkin solution satisfies up to its algebraic residual
RESOLVE_IDENTITY = 1e-6
CN_IDENTITY = 1e-8


def clear_caches():
    """Empty the module-level radial table caches, as a fresh process has them."""
    tables_for_key.cache_clear()
    for fn in (RadialTables.lap2d, RadialTables.smooth_basis, RadialTables.pole_rows):
        fn.cache_clear()


def setup(cfg, eig, tracer):
    """Fresh Workspace with every per-mode cache the requests read.

    Returns the workspace and, when eig, the answers of the `jetstokes
    spectrum` path the set-up computes: {mode: count smallest eigenvalues}.
    """
    clear_caches()
    ws = Workspace(cfg)
    for n in range(cfg.n_z + 1):
        with tracer.span("stokesop.mode_operator"):
            mode_operator(ws, n)
    spectrum = {}
    if eig:
        for n in range(cfg.n_z + 1):
            with tracer.span("spectral.eigh"):
                spectrum[n] = eigensolve(ws, n, SPECTRUM_COUNT)
    return ws, spectrum


def mode_cache_mb(ws):
    """Bytes held by the cached mode operators, in MB."""
    total = 0
    for op in ws.mode_ops.values():
        arrays = [op.basis, op.A_block, op.M_block, op.G_block]
        if op.eigen is not None:
            arrays += [op.eigen[0], op.eigen[1]]
        total += sum(a.nbytes for a in arrays)
    return total / 2**20


# set-up answers of resolvent-sweep: the spectrum its set-up computes and the
# kernel dimension, as `jetstokes spectrum` reports them


def spectrum_check(cfg, answer):
    entries, kdim = answer
    bad = []
    residual_bound = EIGEN_RESIDUAL_NR12 * (cfg.n_r / 12.0) ** 4
    if kdim != 4:
        bad.append("kernel dimension %d, expected 4" % kdim)
    for n, got in entries.items():
        vals = [e.lam.real for e in got]
        worst = max(e.residual for e in got)
        if not worst < residual_bound:
            bad.append("mode %d eigen-residual %.3e" % (n, worst))
        if n == 0:
            for want, val in zip(MODE0_NONZERO, vals[4:]):
                if not abs(val - want) <= FROZEN_REL * want:
                    bad.append("mode 0 eigenvalue %.12g, expected %.12g" % (val, want))
        elif n == 1:
            for want, val in zip(MODE1_SMALLEST, vals):
                tol = TWISTED_ABS if want == 1.0 else FROZEN_REL * want
                if not abs(val - want) <= tol:
                    bad.append("mode 1 eigenvalue %.12g, expected %.12g" % (val, want))
        if n > 0:
            twisted = cfg.mu * cfg.beta(n) ** 2
            if not min(abs(v - twisted) for v in vals) <= TWISTED_ABS:
                bad.append("mode %d misses the twisted eigenvalue %g" % (n, twisted))
    return bad


# ---------------------------------------------------------------------------
# resolvent-sweep: `resolve` plus the gains the CLI reports


@dataclasses.dataclass
class ResolveInput:
    lam: complex
    g: object
    g_l2: float


def resolve_input(cfg, rng, index):
    g = random_smooth_vector(cfg, rng, real=False)
    return ResolveInput(LAM_GRID[index % len(LAM_GRID)], g, norm_L2(g))


def resolve_request(ws, inp, tracer):
    with tracer.span("spectral.resolve"):
        v, info = resolve(ws, inp.lam, inp.g)
    with tracer.span("fields.norm"):
        l2_gain = norm_L2(v) / inp.g_l2
    with tracer.span("fields.norm"):
        hk_gain = norm_Hkp(v, 2) / inp.g_l2
    return v, info, l2_gain, hk_gain


def resolve_check(cfg, inp, answer):
    v, info, l2_gain, hk_gain = answer
    bad = []
    v_l2 = norm_L2(v)
    bound = math.sqrt(2.0) * inp.g_l2 / abs(inp.lam) + RESOLVE_ABS
    if not v_l2 <= bound:
        bad.append("||v|| = %.6g above the sector bound %.6g" % (v_l2, bound))
    if not (math.isfinite(l2_gain) and math.isfinite(hk_gain)):
        bad.append("gains %r, %r" % (l2_gain, hk_gain))
    if not info["max_rel_residual"] <= RESOLVE_RESIDUAL:
        bad.append("relative residual %.3e" % info["max_rel_residual"])
    if info["warnings"]:
        bad.append("warnings: %s" % info["warnings"])
    pair = inner_product_Hkp(inp.g, v, 0)
    lhs = inp.lam.imag * v_l2**2
    defect = abs(lhs + pair.imag) / (abs(lhs) + abs(pair))
    if not defect <= RESOLVE_IDENTITY:
        bad.append("energy identity relative defect %.3e" % defect)
    return bad


# ---------------------------------------------------------------------------
# evolve-forced: `jetstokes evolve` with its defaults, pressure and estimate


def evolve_input(cfg, rng, index):
    profile = random_smooth_vector(cfg, rng)
    amp, omega = EVOLVE.amplitude, EVOLVE.omega

    def forcing(t):
        return profile * (amp * math.sin(omega * t))

    return forcing


def evolve_request(ws, forcing, tracer):
    evo = EvolutionConfig(
        t_final=EVOLVE_STEPS * EVOLVE.dt,
        dt=EVOLVE.dt,
        scheme=EVOLVE.scheme,
        forcing=forcing,
        initial=None,
        store_trajectory=True,
    )
    with tracer.span("evolution.evolve"):
        res = evolve(ws, evo)
    forcings = [forcing(float(t)) for t in res.trace.t]
    pressures = []
    for v, f in zip(res.fields, forcings):
        with tracer.span("evolution.recover_pressure"):
            pressures.append(recover_pressure(ws, v, f))
    with tracer.span("evolution.estimate_report"):
        rep = estimate_report(ws, res.fields, pressures, forcings, evo.dt, float(res.trace.t[-1]))
    return res.trace, rep


def evolve_check(cfg, forcing, answer):
    trace, rep = answer
    bad = []
    if trace.t.size != EVOLVE_STEPS + 1:
        bad.append("%d time points, expected %d" % (trace.t.size, EVOLVE_STEPS + 1))
    worst = float(np.max(trace.identity_residual / trace.identity_scale))
    if not worst <= CN_IDENTITY:
        bad.append("Crank-Nicolson identity ratio %.3e" % worst)
    if not (math.isfinite(rep["ratio"]) and rep["ratio"] > 0.0):
        bad.append("estimate ratio %r" % rep["ratio"])
    if trace.warnings:
        bad.append("warnings: %s" % trace.warnings)
    return bad


# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    config: DomainConfig
    eig_in_setup: bool
    make_input: object  # (cfg, rng, index) -> input
    request: object  # (ws, input, tracer) -> answer
    check: object  # (cfg, input, answer) -> list of failure messages


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "resolvent-sweep",
            DomainConfig(n_r=24, n_theta=6, n_z=4),
            True,
            resolve_input,
            resolve_request,
            resolve_check,
        ),
        Workload(
            "evolve-forced",
            DomainConfig(n_r=24, n_theta=6, n_z=4),
            False,
            evolve_input,
            evolve_request,
            evolve_check,
        ),
    )
}
