"""Spectrum and resolvent of the assembled per-mode operators.

Every mode is stored sector by sector in the M-orthonormal eigenbasis of
its symmetric pencil (G, M), see stokesop: G is the dissipation form,
exactly symmetric and positive semidefinite by construction, so the
spectrum is real, and eigenvalues and their residuals are read from
ModeOperator.eigen. The mode-0 kernel is deflated exactly, and every
eigenvalue is the quotient |F v|^2 / (v, v) through the factor F of
G = F^T F.

In those packed coordinates the pencil is I and diag(w), so a resolvent
solve is the diagonal scaling y = r / (w - lam), w = 0 on the padding, on
the whole field coordinate array (n_z + 1, dim, 2) of
stokesop.reduce_slice at once; its residual against the blocks set-up
formed is bounded by (eps_G + |lam| eps_M) y sector by sector. w, eps_M
and eps_G are the cached read-only arrays of the workspace's whole-field
operator (stokesop.field_operator), which also holds each mode's
eigenvalues for the gap check, so a resolve is one reduce, one
whole-array solve and one expand, with no loop over modes. Side 1 of |n|
holds mode -|n| in mode-|n| coordinates, so its shift is conj(lam): the
only place the solve sees the sign of n.

Eigenvalues of mode -n equal those of mode n, so eigensolve serves
negative modes from the |n| decomposition.
"""

import dataclasses
import math

import numpy as np

from .fieldio import write_csv
from .fields import VectorField, _require_config, norm_Hkp, norm_L2, random_smooth_vector
from .stokesop import expand_slice, field_operator, mode_operator, reduce_slice

# slack for sector membership |Im lam| <= Re lam + SECTOR_TOL
SECTOR_TOL = 1e-8
# kernel eigenvalues lie below KERNEL_TOL * max|eigenvalue| of mode 0
KERNEL_TOL = 1e-10
# slack of the resolvent bound check l2_gain <= sqrt(2)/|lam| + BOUND_TOL
BOUND_TOL = 1e-8


@dataclasses.dataclass
class SpectralEntry:
    n: int
    lam: complex
    residual: float
    in_sector: bool


@dataclasses.dataclass
class ResolventSample:
    lam: complex
    l2_gain: float
    l2_bound: float
    hk_gain: float
    bound_ok: bool


def eigensolve(ws, n, count):
    """The count smallest eigenvalues of mode n, ascending.

    Returns a list of SpectralEntry. The residual is the pencil defect
    ||G e_i - lam M e_i|| / sqrt(M_ii) of each eigenpair in eigen
    coordinates; in_sector records |Im lam| <= Re lam + SECTOR_TOL
    (imaginary parts are zero by construction of the Hermitian pencil).
    """
    w, residual = mode_operator(ws, abs(n)).eigen
    entries = []
    for i in range(min(int(count), w.size)):
        lam = complex(w[i], 0.0)
        in_sector = abs(lam.imag) <= lam.real + SECTOR_TOL
        entries.append(SpectralEntry(int(n), lam, float(residual[i]), bool(in_sector)))
    return entries


def kernel_dimension(ws):
    """Number of mode-0 eigenvalues below KERNEL_TOL * max|eigenvalue|."""
    w = mode_operator(ws, 0).eigen[0]
    lam_max = float(np.max(np.abs(w))) if w.size else 0.0
    if lam_max == 0.0:
        return int(w.size)
    return int(np.sum(np.abs(w) < KERNEL_TOL * lam_max))


# ---------------------------------------------------------------------------
# resolvent


def _side_norms(x):
    """Euclidean norm (n_z + 1, 2) of each mode and side of coordinates x (n_z + 1, dim, 2, ...).

    One sum over the real view of x, read side-major as reduce_slice
    stores it (copied first if it is stored otherwise).
    """
    xs = np.moveaxis(x, 2, 1)
    xr = np.ascontiguousarray(xs).view(float).reshape(xs.shape[:2] + (-1,))
    return np.sqrt(np.einsum("asi,asi->as", xr, xr))


def _pencil_solve(ws, lam, r):
    """Solve (G - lam M) y = r on field coordinates r (n_z + 1, dim, 2, ...).

    That is y = r / (w - lam); side 1 (mode -|n|) has the conjugate
    pencil, so its shift is conj(lam), and the padding stays zero. Returns
    y and, per mode n = -n_z..n_z, ||(eps_G + |lam| eps_M) y|| / ||r||, a
    certified bound on its relative residual ||r - (G - lam M) y|| / ||r||
    against the blocks set-up formed (stokesop.FieldOperator's eps_M and
    eps_G), 0 where r is zero. Every mode is one whole-array operation:
    the gap check, the scaling and the norms.

    Raises:
        RuntimeError if lam lies within 1e-12 max(max |w|, 1) of an
        eigenvalue, naming the lowest such mode.
    """
    fop = field_operator(ws)
    # the eigenvalues are real: as far from lam as from conj(lam), and the
    # nearest is the nearest to Re lam
    gap = np.hypot(np.min(np.abs(fop.spectrum - lam.real), axis=1), lam.imag)
    near = np.flatnonzero(gap < 1e-12 * fop.scale)
    if near.size:
        raise RuntimeError(
            "resolvent parameter %s is within %.3e of the mode-%d spectrum"
            % (lam, gap[near[0]], near[0])
        )
    stack = (1,) * (r.ndim - 3)
    shift = np.array([lam, np.conj(lam)]).reshape((2,) + stack)
    w, eps_m, eps_g = (x.reshape(x.shape + stack) for x in (fop.w, fop.eps_M, fop.eps_G))
    y = r / (w - shift)
    res = y * (eps_g + abs(lam) * eps_m)
    num, den = _side_norms(res), _side_norms(r)
    rel = np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)
    return y, np.concatenate([rel[:0:-1, 1], rel[:, 0]])


def resolve(ws, lam, g):
    """Weak solve of (A - lam) v = g over all stored modes, reduced, solved and expanded at once.

    Args:
        ws: Workspace.
        lam: spectral parameter with |Im lam| > Re lam (the sector where
            the form is coercive).
        g: VectorField right-hand side on ws.config (ValueError otherwise).

    Returns:
        (VectorField, info dict): info holds max_rel_residual, the largest
        certified residual bound of _pencil_solve over modes, and a
        warning for each mode whose bound exceeds 1e-8.
    """
    lam = complex(lam)
    if not abs(lam.imag) > lam.real:
        raise ValueError(
            "spectral parameter %s lies outside the sector |Im| > Re" % (lam,)
        )
    _require_config(ws, g, "resolve: right-hand side")
    cfg = ws.config
    y, rel = _pencil_solve(ws, lam, reduce_slice(ws, g.coeffs))
    warnings = ["mode %d residual %.3e" % (i - cfg.n_z, rel[i]) for i in np.flatnonzero(rel > 1e-8)]
    out = VectorField(cfg, expand_slice(ws, y), False)
    return out, {"max_rel_residual": float(np.max(rel)), "warnings": warnings}


def resolvent_sweep(ws, lam_grid, rng):
    """Gain measurements over a grid of spectral parameters.

    One random pole-regular right-hand side is drawn and reused across the
    whole grid so gains are comparable along rays.

    Returns a list of ResolventSample with the L^2 gain, the coercivity
    bound sqrt(2)/|lam|, the H^2 gain, and the bound check.
    """
    grid = list(lam_grid)
    if not grid:
        raise ValueError("resolvent sweep requires a nonempty grid")
    g = random_smooth_vector(ws.config, rng, real=False)
    gl2 = norm_L2(g)
    samples = []
    for lam in grid:
        v, _ = resolve(ws, lam, g)
        l2 = norm_L2(v) / gl2
        bound = math.sqrt(2.0) / abs(lam)
        hk = norm_Hkp(v, 2) / gl2
        samples.append(
            ResolventSample(complex(lam), l2, bound, hk, bool(l2 <= bound + BOUND_TOL))
        )
    return samples


# ---------------------------------------------------------------------------
# CSV output


def write_eigenvalues_csv(path, entries):
    """Write eigenvalue rows: n, re_lambda, im_lambda, residual, in_sector."""
    write_csv(
        path,
        ["n", "re_lambda", "im_lambda", "residual", "in_sector"],
        [(e.n, e.lam.real, e.lam.imag, e.residual, e.in_sector) for e in entries],
    )


def write_resolvent_csv(path, samples):
    """Write sweep rows: re_lambda, im_lambda, l2_gain, l2_bound, hk_gain, bound_ok."""
    write_csv(
        path,
        ["re_lambda", "im_lambda", "l2_gain", "l2_bound", "hk_gain", "bound_ok"],
        [(s.lam.real, s.lam.imag, s.l2_gain, s.l2_bound, s.hk_gain, s.bound_ok) for s in samples],
    )
