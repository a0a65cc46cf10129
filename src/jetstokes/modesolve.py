"""Per-axial-mode elliptic solves on the disk.

At axial mode n the Laplacian acts on an azimuthal channel m as
lap2d(|m|) - beta^2 with beta = 2*pi*n/ell. Dirichlet problems on the free
surface are solved by direct collocation: the operator matrix is
L = -lap2d + beta^2 with the boundary row replaced by the identity, LU
factored once per (|n|, |m|) and cached in the workspace. Solves apply one
step of iterative refinement, which pushes relative residuals to the order
of machine epsilon times the interpolation constant even though L itself
is badly conditioned at fine grids.
"""

import dataclasses

import numpy as np
import scipy.linalg

from .fields import ScalarField, norm_Hkp, norm_L2, random_smooth_scalar, zeros_scalar


def _band(arr):
    return (arr.shape[-2] - 1) // 2


@dataclasses.dataclass
class RadialOperator:
    """Collocation matrix of one (|n|, |m|) Dirichlet problem.

    Attributes:
        matrix: -lap2d(|m|) + beta^2 with row 0 (the surface node)
            replaced by identity.
        lu: scipy lu_factor output for matrix.
    """

    matrix: np.ndarray
    lu: tuple


def radial_operator(ws, n, m):
    """Cached RadialOperator for axial mode n, azimuthal channel m."""
    key = (abs(int(n)), abs(int(m)))
    op = ws.radial_ops.get(key)
    if op is None:
        beta = ws.config.beta(key[0])
        mat = -ws.tables.lap2d(key[1]) + beta * beta * np.eye(ws.config.n_r)
        mat[0, :] = 0.0
        mat[0, 0] = 1.0
        op = RadialOperator(mat, scipy.linalg.lu_factor(mat))
        ws.radial_ops[key] = op
    return op


def laplace_solve_channels(ws, n, f_arr, bc_arr=None):
    """Solve laplacian(u) = f at axial mode n with Dirichlet surface data.

    Args:
        ws: Workspace.
        f_arr: right-hand side, complex (..., n_channels, n_r) on any
            azimuthal band.
        bc_arr: surface values (..., n_channels); zeros when omitted.

    Returns:
        u with the same shape as f_arr, solved channel by channel with one
        iterative refinement pass.
    """
    band = _band(f_arr)
    lead = f_arr.shape[:-2]
    nr = f_arr.shape[-1]
    nm = 2 * band + 1
    k = int(np.prod(lead, dtype=int)) if lead else 1
    f2 = f_arr.reshape(k, nm, nr)
    bc2 = None if bc_arr is None else bc_arr.reshape(k, nm)
    out = np.empty_like(f2, dtype=complex)
    for im in range(nm):
        m = im - band
        op = radial_operator(ws, n, m)
        b = -f2[:, im, :].T.astype(complex).copy()
        b[0] = 0.0 if bc2 is None else bc2[:, im]
        y = scipy.linalg.lu_solve(op.lu, b)
        y -= scipy.linalg.lu_solve(op.lu, op.matrix @ y - b)
        out[:, im, :] = y.T
    return out.reshape(f_arr.shape)


def solve_mode_dirichlet(ws, n, f):
    """Solve laplacian(u) = f on axial mode n with u = 0 on the surface.

    Only the mode-n slice of f enters; the result occupies mode n alone.

    Returns:
        ScalarField. Raises RuntimeError if the relative collocation
        residual exceeds the configured solver tolerance.
    """
    cfg = ws.config
    if abs(n) > cfg.n_z:
        raise ValueError("axial mode %d outside the stored band" % n)
    i_n = cfg.n_z + n
    u = zeros_scalar(cfg)
    u.coeffs[i_n] = laplace_solve_channels(ws, n, f.coeffs[i_n])
    u.real_flag = False
    res = dirichlet_residual(ws, n, f, u)
    if res > cfg.solver_tol:
        raise RuntimeError(
            "modesolve: mode %d collocation residual %.3e exceeds solver_tol %.3e"
            % (n, res, cfg.solver_tol)
        )
    return u


def dirichlet_residual(ws, n, f, u):
    """Relative interior collocation residual of laplacian(u) = f at mode n."""
    cfg = ws.config
    i_n = cfg.n_z + n
    num = 0.0
    den = 0.0
    for im in range(cfg.n_modes_theta):
        m = im - cfg.n_theta
        op = radial_operator(ws, n, m)
        b = -f.coeffs[i_n, im, :]
        r = op.matrix @ u.coeffs[i_n, im, :] - np.concatenate(([0.0], b[1:]))
        num += float(np.sum(np.abs(r[1:]) ** 2))
        den += float(np.sum(np.abs(b[1:]) ** 2))
    if den == 0.0:
        return 0.0 if num == 0.0 else float("inf")
    return float(np.sqrt(num / den))


def harmonic_extension(ws, g):
    """Harmonically extend surface data into the cylinder.

    Args:
        g: TraceField with band at most n_theta.

    Returns:
        ScalarField u with laplacian(u) = 0 and trace_SF(u) = g.
    """
    cfg = ws.config
    if g.band > cfg.n_theta:
        raise ValueError(
            "trace band %d exceeds the stored field band %d" % (g.band, cfg.n_theta)
        )
    pad = cfg.n_theta - g.band
    gc = np.pad(g.coeffs, [(0, 0), (pad, pad)])
    u = zeros_scalar(cfg)
    zero_rhs = np.zeros((cfg.n_modes_theta, cfg.n_r), dtype=complex)
    for i_n in range(cfg.n_modes_z):
        n = i_n - cfg.n_z
        u.coeffs[i_n] = laplace_solve_channels(ws, n, zero_rhs, gc[i_n])
    u.real_flag = False
    return u


def stability_constant(ws, n, sample_count, rng):
    """Empirical H^2/L^2 stability ratio of the mode-n Dirichlet solve.

    Args:
        ws: Workspace.
        n: axial mode.
        sample_count: number of random forcing samples, at least 1.
        rng: numpy Generator used for the samples.

    Returns:
        max over samples of ||u||_{H^2_p} / ||f||_{L^2} with
        laplacian(u) = f concentrated on mode n.
    """
    if sample_count < 1:
        raise ValueError("stability_constant requires sample_count >= 1")
    cfg = ws.config
    i_n = cfg.n_z + n
    worst = 0.0
    for _ in range(sample_count):
        f = random_smooth_scalar(cfg, rng, real=False)
        mask = np.zeros_like(f.coeffs)
        mask[i_n] = f.coeffs[i_n]
        f = ScalarField(cfg, mask, real_flag=False)
        fnorm = norm_L2(f)
        if fnorm == 0.0:
            continue
        u = solve_mode_dirichlet(ws, n, f)
        worst = max(worst, norm_Hkp(u, 2) / fnorm)
    return worst
