"""Helmholtz projection and the surface pressure operator.

The projection P removes the gradient part of a velocity field: q solves
laplacian(q) = div(u) with q = 0 on the free surface, mode by mode, and
P u = u - grad(q). The operator Q produces the pressure contribution of
the free surface: its boundary data is mu/kappa^2 times the quadratic-
coordinate contraction of the transversal strain entries, harmonically
extended into the cylinder; given a forcing field, the same solve per axial
slice adds the forcing's zero-trace potential.

Azimuthal bands: div(u) lives one band above u and q inherits that band;
grad(q) is formed there and truncated back, so the reported reconstruction
residual honestly reflects what the stored band can represent.
"""

import dataclasses

import numpy as np

from .fields import (
    ScalarField,
    VectorField,
    _band,
    _div_slice,
    _dxy,
    _mul_x,
    _mul_y,
    _pad,
    _truncate,
    grad,
    norm_L2,
    zeros_scalar,
    zeros_vector,
)
from .modesolve import laplace_solve_channels


@dataclasses.dataclass
class DecompositionResult:
    """Outcome of the Helmholtz projection u = solenoidal + grad(potential).

    residual is the relative reconstruction defect
    ||u - solenoidal - grad(potential)|| / ||u|| in L^2.
    """

    solenoidal: VectorField
    potential: ScalarField
    residual: float


def _potential_slice(ws, n, varr):
    """Pressure potential of one axial slice and its gradient.

    Returns (q, gx, gy, gz): q on band + 1, gradient components truncated
    to the band of varr.
    """
    t = ws.tables
    band = _band(varr)
    beta = ws.config.beta(n)
    q = laplace_solve_channels(ws, n, _div_slice(t, varr, beta))
    gx, gy = _dxy(t, q)
    gz = 1j * beta * _truncate(q, band)
    return q, _truncate(gx, band), _truncate(gy, band), gz


def project_P(ws, u):
    """Helmholtz projection of a velocity field.

    Args:
        ws: Workspace.
        u: VectorField.

    Returns:
        DecompositionResult with P u, the potential, and the relative
        reconstruction residual.
    """
    cfg = ws.config
    sol = zeros_vector(cfg)
    pot = zeros_scalar(cfg)
    for i_n in range(cfg.n_modes_z):
        n = i_n - cfg.n_z
        varr = u.coeffs[:, i_n]
        q, gx, gy, gz = _potential_slice(ws, n, varr)
        sol.coeffs[0, i_n] = varr[0] - gx
        sol.coeffs[1, i_n] = varr[1] - gy
        sol.coeffs[2, i_n] = varr[2] - gz
        pot.coeffs[i_n] = _truncate(q, cfg.n_theta)
    sol.real_flag = False
    pot.real_flag = False
    unorm = norm_L2(u)
    if unorm == 0.0:
        residual = 0.0
    else:
        defect = u - sol - grad(pot)
        residual = norm_L2(defect) / unorm
    return DecompositionResult(sol, pot, residual)


def _q_slice(ws, n, varr, out_band, farr=None):
    """Surface pressure potential of one axial slice.

    varr has shape (..., 3, n_m, n_r); the result is harmonically extended
    boundary data on band out_band (content genuinely occupies the input
    band + 3). A forcing slice farr of the same shape adds its zero-trace
    potential, laplacian(phi) = div(farr), through the same solve: the
    channels are independent, so div(farr) is the right-hand side.
    """
    t = ws.tables
    cfg = ws.config
    dx, dy = _dxy(t, varr[..., :2, :, :])
    e11 = 2.0 * dx[..., 0, :, :]
    e12 = dy[..., 0, :, :] + dx[..., 1, :, :]
    e22 = 2.0 * dy[..., 1, :, :]
    data = _mul_x(t, _mul_x(t, e11)) + 2.0 * _mul_x(t, _mul_y(t, e12))
    data += _mul_y(t, _mul_y(t, e22))
    data *= cfg.mu / cfg.kappa**2
    tr = data[..., :, 0]
    rhs = np.zeros_like(data) if farr is None else _pad(_div_slice(t, farr, cfg.beta(n)), 2)
    ext = laplace_solve_channels(ws, n, rhs, tr)
    return _truncate(ext, out_band)


def operator_Q(ws, v, f=None):
    """Free-surface pressure potential Q v as a ScalarField.

    With a forcing field f the result also holds the zero-trace potential
    phi of f, laplacian(phi) = div(f), from one solve per axial slice.
    """
    cfg = ws.config
    out = zeros_scalar(cfg)
    for i_n in range(cfg.n_modes_z):
        n = i_n - cfg.n_z
        farr = None if f is None else f.coeffs[:, i_n]
        out.coeffs[i_n] = _q_slice(ws, n, v.coeffs[:, i_n], cfg.n_theta, farr)
    out.real_flag = False
    return out
