"""Per-axial-mode elliptic solves on the disk.

At axial mode n the Laplacian acts on an azimuthal channel m as
lap2d(|m|) - beta^2 with beta = 2*pi*n/ell. Dirichlet problems on the free
surface are solved by direct collocation: the operator matrix of a
channel is L = -lap2d(|m|) + beta^2 with the boundary row replaced by the
identity. The matrices of the channels of a band form one stack, inverted
once per |n| and cached in the workspace; a contiguous channel range lo..hi
is a view of it, so one batched matrix product serves every channel and
right-hand side. Solves apply one step of iterative refinement, which
pushes relative residuals to the order of machine epsilon times the
interpolation constant even though L itself is badly conditioned at fine
grids.
"""

import numpy as np

from .discretization import _channels_first, _channels_last, apply_stack, band_views
from .fields import _band, _require_config, zeros_scalar

# relative interior residual bound of solve_mode_dirichlet
SOLVER_TOL = 1e-10


def _dirichlet_stack(ws, n, lo, hi):
    """(matrices, inverses) of the channels m = lo..hi at mode |n|.

    One stack per |n| is cached and every range is a view of it (see
    band_views). The matrices are checked for finite values once, when
    built, so the solves are plain batched products.
    """
    a = abs(int(n))

    def build(band):
        beta = ws.config.beta(a)
        mat = beta * beta * np.eye(ws.config.n_r) - ws.tables.stacks(-band, band).lap
        mat[:, 0, :] = 0.0
        mat[:, 0, 0] = 1.0
        if not np.all(np.isfinite(mat)):
            raise ValueError("modesolve: non-finite Dirichlet matrix at mode %d" % a)
        return mat, np.linalg.inv(mat)

    ws.radial_ops[a], views = band_views(ws.radial_ops.get(a), lo, hi, build)
    return views


def laplace_solve_channels(ws, n, f_arr, bc_arr=None, lo=None):
    """Solve laplacian(u) = f at axial mode n with Dirichlet surface data.

    Args:
        ws: Workspace.
        f_arr: right-hand side, complex (..., n_channels, n_r) on the
            channels lo..hi, the symmetric band -b..b when lo is omitted.
        bc_arr: surface values (..., n_channels); zeros when omitted.

    Returns:
        u with the same shape as f_arr, solved for all channels at once
        with one iterative refinement pass.
    """
    lo = -_band(f_arr) if lo is None else lo
    mat, inv = _dirichlet_stack(ws, n, lo, lo + f_arr.shape[-2] - 1)
    # channels lead and right-hand sides trail: (n_channels, n_r, k)
    b = np.negative(_channels_first(f_arr, complex))
    b[:, 0, :] = 0.0 if bc_arr is None else bc_arr.reshape(-1, b.shape[0]).T
    # the stacks are real: act on the interleaved real view (n_channels, n_r, 2k)
    b = b.view(float)
    y = inv @ b
    y -= inv @ (mat @ y - b)
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
    mat, _ = _dirichlet_stack(ws, n, -cfg.n_theta, cfg.n_theta)
    b = -f.coeffs[i_n]
    r = apply_stack(mat, u.coeffs[i_n]) - b
    num = float(np.sum(np.abs(r[:, 1:]) ** 2))
    den = float(np.sum(np.abs(b[:, 1:]) ** 2))
    if den == 0.0:
        return 0.0 if num == 0.0 else float("inf")
    return float(np.sqrt(num / den))
