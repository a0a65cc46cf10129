"""Elliptic solves on the disk, one call for every axial mode.

At axial mode n the Laplacian acts on an azimuthal channel m as
lap2d(|m|) - beta^2 with beta = 2*pi*n/ell. Dirichlet problems on the free
surface are solved by direct collocation: node 0 takes the surface value
and the interior nodes solve (beta^2 - lap2d(|m|)) u = -f. The interior
operator is diagonal in the eigenbasis of the channel's Dirichlet
Laplacian (RadialTables.dirichlet), which every axial mode shares, so a
solve is two batched products and a diagonal scaling for any set of
modes and channels; this is the fast diagonalization method of Lynch,
Rice & Thomas (Numer. Math. 6, 1964). Solves apply one step of iterative
refinement against the Laplacian stack, which pushes relative residuals
to the order of machine epsilon times the interpolation constant even
though the collocation matrix is badly conditioned at fine grids.
"""

import numpy as np

from .discretization import _channels_first, _channels_last, apply_stack
from .fields import _band, _require_config, zeros_scalar

# relative interior residual bound of solve_mode_dirichlet
SOLVER_TOL = 1e-10


def laplace_solve_channels(ws, n, f_arr, bc_arr=None, lo=None):
    """Solve laplacian(u) = f at axial mode n with Dirichlet surface data.

    Args:
        ws: Workspace.
        n: axial mode, or an integer array of them, one per leading slice
            of f_arr (ValueError otherwise).
        f_arr: right-hand side, complex (..., n_channels, n_r) on the
            channels lo..hi, the symmetric band -b..b when lo is omitted.
        bc_arr: surface values (..., n_channels); zeros when omitted.

    Returns:
        u with the same shape as f_arr, solved for all modes and channels
        at once with one iterative refinement pass.
    """
    lo = -_band(f_arr) if lo is None else lo
    hi = lo + f_arr.shape[-2] - 1
    lap = ws.tables.stacks(lo, hi).lap
    s, s_inv, lam = ws.tables.dirichlet(lo, hi)
    if np.ndim(n) and len(n) != len(f_arr):
        raise ValueError("modesolve: %d modes for %d slices" % (len(n), len(f_arr)))
    beta2 = np.square(ws.config.beta(np.asarray(n, dtype=float)))
    # channels lead and right-hand sides trail: (n_channels, n_r, k)
    b = np.negative(_channels_first(f_arr, complex))
    b[:, 0, :] = 0.0 if bc_arr is None else bc_arr.reshape(-1, b.shape[0]).T
    # the stacks are real: act on the interleaved real view (n_channels, n_r, 2k),
    # whose columns run mode-major, as f_arr's leading axes do
    b = b.view(float)
    shift = np.repeat(beta2, b.shape[-1] // beta2.size)
    scale = lam[:, :, None] + shift
    # the interior solve in the eigenbasis, then one refinement pass
    y = b.copy()
    r = b[:, 1:] + lap[:, 1:, :1] @ b[:, :1]
    y[:, 1:] = s @ ((s_inv @ r) / scale)
    r = shift * y[:, 1:] - lap[:, 1:] @ y - b[:, 1:]
    y[:, 1:] -= s @ ((s_inv @ r) / scale)
    return _channels_last(y.view(complex), f_arr.shape[:-2])


def _mode_index(cfg, n):
    """Index of axial mode n in the stored band; ValueError outside it."""
    if abs(n) > cfg.n_z:
        raise ValueError("axial mode %d outside the stored band" % n)
    return cfg.n_z + n


def solve_mode_dirichlet(ws, n, f):
    """Solve laplacian(u) = f on axial mode n with u = 0 on the surface.

    Only the mode-n slice of f enters; the result occupies mode n alone.

    Returns:
        ScalarField. Raises ValueError if f is not on ws.config or n lies
        outside the stored band, RuntimeError if the relative collocation
        residual exceeds SOLVER_TOL.
    """
    _require_config(ws, f, "solve_mode_dirichlet: forcing")
    i_n = _mode_index(ws.config, n)
    u = zeros_scalar(ws.config)
    u.coeffs[i_n] = laplace_solve_channels(ws, n, f.coeffs[i_n])
    res = dirichlet_residual(ws, n, f, u)
    if res > SOLVER_TOL:
        raise RuntimeError(
            "modesolve: mode %d collocation residual %.3e exceeds SOLVER_TOL %.3e"
            % (n, res, SOLVER_TOL)
        )
    return u


def dirichlet_residual(ws, n, f, u):
    """Relative interior collocation residual of laplacian(u) = f at mode n.

    Raises ValueError if f or u is not on ws.config or n lies outside the
    stored band.
    """
    _require_config(ws, f, "dirichlet_residual: forcing")
    _require_config(ws, u, "dirichlet_residual: solution")
    cfg = ws.config
    i_n = _mode_index(cfg, n)
    lap = ws.tables.stacks(-cfg.n_theta, cfg.n_theta).lap
    un, fn = u.coeffs[i_n], f.coeffs[i_n]
    r = cfg.beta(n) ** 2 * un - apply_stack(lap, un) + fn
    num = float(np.sum(np.abs(r[:, 1:]) ** 2))
    den = float(np.sum(np.abs(fn[:, 1:]) ** 2))
    if den == 0.0:
        return 0.0 if num == 0.0 else float("inf")
    return float(np.sqrt(num / den))
