"""Per-axial-mode elliptic solves on the disk.

At axial mode n the Laplacian acts on an azimuthal channel m as
lap2d(|m|) - beta^2 with beta = 2*pi*n/ell. Dirichlet problems on the free
surface are solved by direct collocation: the operator matrix of a
channel is L = -lap2d(|m|) + beta^2 with the boundary row replaced by the
identity. The matrices of all channels of a band form one stack, inverted
once per (|n|, band) and cached in the workspace, so one batched matrix
product serves every channel and right-hand side. Solves apply one step of
iterative refinement, which pushes relative residuals to the order of
machine epsilon times the interpolation constant even though L itself is
badly conditioned at fine grids.
"""

import numpy as np

from .discretization import _channels_first, _channels_last, apply_stack
from .fields import _band, zeros_scalar

# relative interior residual bound of solve_mode_dirichlet
SOLVER_TOL = 1e-10


def _dirichlet_stack(ws, n, band):
    """Cached (matrices, inverses) of the channels m = -band..band at mode |n|.

    The matrices are checked for finite values once, here, so the solves
    are plain batched products.
    """
    key = (abs(int(n)), int(band))
    got = ws.radial_ops.get(key)
    if got is None:
        beta = ws.config.beta(key[0])
        mat = beta * beta * np.eye(ws.config.n_r) - ws.tables.stacks(-band, band).lap
        mat[:, 0, :] = 0.0
        mat[:, 0, 0] = 1.0
        if not np.all(np.isfinite(mat)):
            raise ValueError("modesolve: non-finite Dirichlet matrix at mode %d" % key[0])
        got = ws.radial_ops[key] = (mat, np.linalg.inv(mat))
    return got


def laplace_solve_channels(ws, n, f_arr, bc_arr=None):
    """Solve laplacian(u) = f at axial mode n with Dirichlet surface data.

    Args:
        ws: Workspace.
        f_arr: right-hand side, complex (..., n_channels, n_r) on any
            azimuthal band.
        bc_arr: surface values (..., n_channels); zeros when omitted.

    Returns:
        u with the same shape as f_arr, solved for all channels at once
        with one iterative refinement pass.
    """
    mat, inv = _dirichlet_stack(ws, n, _band(f_arr))
    # channels lead and right-hand sides trail: (n_channels, n_r, k)
    b = np.negative(_channels_first(f_arr, complex))
    b[:, 0, :] = 0.0 if bc_arr is None else bc_arr.reshape(-1, b.shape[0]).T
    # the stacks are real: act on the interleaved real view (n_channels, n_r, 2k)
    b = b.view(float)
    y = inv @ b
    y -= inv @ (mat @ y - b)
    return _channels_last(y.view(complex), f_arr.shape[:-2])


def solve_mode_dirichlet(ws, n, f):
    """Solve laplacian(u) = f on axial mode n with u = 0 on the surface.

    Only the mode-n slice of f enters; the result occupies mode n alone.

    Returns:
        ScalarField. Raises RuntimeError if the relative collocation
        residual exceeds SOLVER_TOL.
    """
    cfg = ws.config
    if abs(n) > cfg.n_z:
        raise ValueError("axial mode %d outside the stored band" % n)
    i_n = cfg.n_z + n
    u = zeros_scalar(cfg)
    u.coeffs[i_n] = laplace_solve_channels(ws, n, f.coeffs[i_n])
    u.real_flag = False
    res = dirichlet_residual(ws, n, f, u)
    if res > SOLVER_TOL:
        raise RuntimeError(
            "modesolve: mode %d collocation residual %.3e exceeds SOLVER_TOL %.3e"
            % (n, res, SOLVER_TOL)
        )
    return u


def dirichlet_residual(ws, n, f, u):
    """Relative interior collocation residual of laplacian(u) = f at mode n."""
    cfg = ws.config
    i_n = cfg.n_z + n
    mat, _ = _dirichlet_stack(ws, n, cfg.n_theta)
    b = -f.coeffs[i_n]
    r = apply_stack(mat, u.coeffs[i_n]) - b
    num = float(np.sum(np.abs(r[:, 1:]) ** 2))
    den = float(np.sum(np.abs(b[:, 1:]) ** 2))
    if den == 0.0:
        return 0.0 if num == 0.0 else float("inf")
    return float(np.sqrt(num / den))
