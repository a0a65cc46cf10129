"""Helmholtz projection, harmonic extension and the surface pressure operator.

The projection P removes the gradient part of a velocity field: q solves
laplacian(q) = div(u) with q = 0 on the free surface, mode by mode, and
P u = u - grad(q). The operator Q produces the pressure contribution of
the free surface: its boundary data is mu/kappa^2 times the quadratic-
coordinate contraction of the transversal strain entries, harmonically
extended into the cylinder; given a forcing field, the same solve adds the
forcing's zero-trace potential.

The surface stresses have one kernel, _surface_stresses, in helical form:
U = e^{-i theta} (v1 + i v2) and W = e^{i theta} (v1 - i v2) at r = kappa,
their radial derivatives read from the surface row of the derivative by
parity. Q's datum is mu d_r (U + W) = 2 mu d_r u_r; the tangential traces
tau_rtheta and tau_rz that stokesop imposes as constraint rows and reports
through tangential_traction come from the same traces, and Q pays only for
its datum.

Each entry point forms its right-hand sides and surface data for all axial
slices at once and solves them in one laplace_solve_channels call, the
axial modes riding on its leading axis: every mode shares the eigen tables
of the channel Laplacians (RadialTables.dirichlet) up to its shift beta^2.
When the input fields are real (real_flag, see fields), project_P and
operator_Q form and solve the slices n >= 0 only and mirror mode -n from
mode n (fields._whole); their results are flagged real.

Azimuthal bands: div(u) lives one band above u and q inherits that band;
grad(q) is formed there and truncated back, so the reconstruction residual
(computed when first read) honestly reflects what the stored band can
represent.
"""

import dataclasses
import functools

import numpy as np

from .fields import (
    ScalarField,
    VectorField,
    _axial_factors,
    _div_slice,
    _dxy,
    _field,
    _require_config,
    _stacks,
    _truncate,
    _whole,
    grad,
    norm_L2,
)
from .modesolve import laplace_solve_channels


@dataclasses.dataclass
class DecompositionResult:
    """Outcome of the Helmholtz projection u = solenoidal + grad(potential).

    residual is the relative reconstruction defect
    ||u - solenoidal - grad(potential)|| / ||u|| in L^2. It costs two norms
    and a gradient, so it is computed on first read only, from a copy of
    u held in source.
    """

    solenoidal: VectorField
    potential: ScalarField
    source: VectorField = dataclasses.field(repr=False)

    @functools.cached_property
    def residual(self):
        unorm = norm_L2(self.source)
        if unorm == 0.0:
            return 0.0
        return norm_L2(self.source - self.solenoidal - grad(self.potential)) / unorm


def _slices(field, h=0):
    """The slice-major view (n_modes_z - h, 3, n_m, n_r) of a VectorField's slices from index h."""
    return np.moveaxis(field.coeffs[:, h:], 0, 1)


def project_P(ws, u):
    """Helmholtz projection of a velocity field.

    Args:
        ws: Workspace.
        u: VectorField on ws.config.

    Returns:
        DecompositionResult with P u, the potential, and the relative
        reconstruction residual, computed when it is first read. Both
        fields are real when u is.
    """
    _require_config(ws, u, "project_P: field")
    cfg = ws.config
    t = ws.tables
    h = cfg.n_z if u.real_flag else 0
    i_beta = _axial_factors(cfg)[h:]
    # q on band n_theta + 1, the band of div(u)
    modes = np.arange(h - cfg.n_z, cfg.n_z + 1)
    q = laplace_solve_channels(ws, modes, _div_slice(t, _slices(u, h), i_beta.imag))
    gx, gy = _dxy(t, q)
    pot = np.ascontiguousarray(_truncate(q, cfg.n_theta))
    grad_q = np.stack([_truncate(gx, cfg.n_theta), _truncate(gy, cfg.n_theta), i_beta * pot])
    if h:
        pot, grad_q = _whole(pot), _whole(grad_q)
    sol = _field(VectorField, cfg, u.coeffs - grad_q, u.real_flag)
    return DecompositionResult(sol, _field(ScalarField, cfg, pot, u.real_flag), u.copy())


def _helical_sum(x, sign):
    """U + sign W on band + 1 from Cartesian traces x (..., 2, n_m).

    U = e^{-i theta} (x1 + i x2) moves channel m to m - 1 and
    W = e^{i theta} (x1 - i x2) moves it to m + 1.
    """
    out = np.zeros(x.shape[:-2] + (x.shape[-1] + 2,), dtype=complex)
    out[..., 2:] = x[..., 0, :] - 1j * x[..., 1, :]
    if sign < 0:
        np.negative(out, out=out)
    out[..., :-2] += x[..., 0, :] + 1j * x[..., 1, :]
    return out


def _surface_stresses(t, mu, varr, beta=None, lo=None):
    """Surface stresses at r = kappa of slices varr (..., 3, n_m, n_r), on band + 1.

    In helical form, U = e^{-i theta} (v1 + i v2) = u_r + i u_theta and
    W = e^{i theta} (v1 - i v2) = u_r - i u_theta; d_r of each is read from
    row 0 (node 0 is r = kappa) of its channel's derivative, by parity.
    Q's normal datum mu/kappa^2 (x^2 e11 + 2xy e12 + y^2 e22), with
    e = grad v + grad v^T, is 2 mu d_r u_r = mu d_r (U + W). With beta,
    a scalar or an array broadcasting with the slice axes, the two
    tangential traces follow at channel m:

      tau_rtheta = mu [(d_r - 1/kappa) (U - W) / (2i) + (i m / kappa) (U + W) / 2],
      tau_rz     = mu [d_r v3 + i beta (U + W) / 2].

    Returns the datum (..., n_m + 2) without beta, and (..., 3, n_m + 2),
    the datum, tau_rtheta and tau_rz, with it. lo is the channel of varr's
    index 0 (fields._stacks).
    """
    ms = _stacks(t, varr, lo).ms
    d0 = np.where(ms[:, None] % 2 == 0, t.ddr(1)[0], t.ddr(-1)[0])
    dr = np.einsum("mi,...cmi->...cm", d0, varr[..., : 2 if beta is None else 3, :, :])
    datum = _helical_sum(dr, 1.0)
    datum *= mu
    if beta is None:
        return datum
    # (U + W) / 2 = u_r and (U - W) / (2i) = u_theta; beta loses the
    # radial axis it broadcasts over on the slices
    vals = varr[..., :2, :, 0]
    rad = _helical_sum(vals, 1.0)
    tau_rt = _helical_sum(dr, -1.0) - _helical_sum(vals, -1.0) / t.kappa
    tau_rt *= -0.5j * mu
    tau_rt += (0.5j * mu / t.kappa) * np.arange(ms[0] - 1, ms[-1] + 2) * rad
    tau_rz = 0.5j * mu * (np.asarray(beta)[..., 0] if np.ndim(beta) else beta) * rad
    tau_rz[..., 1:-1] += mu * dr[..., 2, :]
    return np.stack([datum, tau_rt, tau_rz], axis=-2)


def _q_data(t, cfg, varr, beta, farr=None, lo=None):
    """Right-hand side and surface data of the pressure solve, one channel wider.

    varr (..., 3, n_m, n_r) holds velocity slices on the channels lo..hi
    (the symmetric band by default) and beta their axial wavenumbers, a
    scalar or an array broadcasting with the slice axes. A forcing farr of
    the same shape adds its zero-trace potential, laplacian(phi) =
    div(farr), through the same solve: the channels are independent, so
    div(farr) is the right-hand side.
    """
    surface = _surface_stresses(t, cfg.mu, varr, lo=lo)
    if farr is None:
        return np.zeros(surface.shape + varr.shape[-1:], dtype=complex), surface
    return _div_slice(t, farr, beta, lo), surface


def _q_slice(ws, n, varr, farr=None, lo=None):
    """Surface pressure potential of one axial slice at mode n, one channel wider.

    varr (..., 3, n_m, n_r) on the channels lo..hi, the symmetric band by
    default; the potential occupies lo - 1..hi + 1. farr adds the forcing's
    zero-trace potential as in _q_data.
    """
    rhs, surface = _q_data(ws.tables, ws.config, varr, ws.config.beta(n), farr, lo)
    return laplace_solve_channels(ws, n, rhs, surface, None if lo is None else lo - 1)


def operator_Q(ws, v, f=None):
    """Free-surface pressure potential Q v as a ScalarField.

    With a forcing field f the result also holds the zero-trace potential
    phi of f, laplacian(phi) = div(f), from the same solve: one call for
    all slices, with the surface datum and div(f) formed at once. When v
    (and f) are real, only the slices n >= 0 are formed and solved, mode
    -n is mirrored, and the result is flagged real.
    """
    _require_config(ws, v, "operator_Q: velocity field")
    if f is not None:
        _require_config(ws, f, "operator_Q: forcing field")
    cfg = ws.config
    real = v.real_flag and (f is None or f.real_flag)
    h = cfg.n_z if real else 0
    beta = _axial_factors(cfg).imag[h:]
    farr = None if f is None else _slices(f, h)
    rhs, surface = _q_data(ws.tables, cfg, _slices(v, h), beta, farr)
    q = laplace_solve_channels(ws, np.arange(h - cfg.n_z, cfg.n_z + 1), rhs, surface)
    q = _truncate(q, cfg.n_theta)
    return _field(ScalarField, cfg, _whole(q) if h else np.ascontiguousarray(q), real)


def harmonic_extension(ws, g):
    """Harmonically extend surface data into the cylinder.

    Args:
        g: TraceField on ws.config with band at most n_theta.

    Returns:
        ScalarField u with laplacian(u) = 0 and trace_SF(u) = g.
    """
    _require_config(ws, g, "harmonic_extension: trace")
    cfg = ws.config
    if g.band > cfg.n_theta:
        raise ValueError(
            "trace band %d exceeds the stored field band %d" % (g.band, cfg.n_theta)
        )
    pad = cfg.n_theta - g.band
    surface = np.pad(g.coeffs, [(0, 0), (pad, pad)])
    rhs = np.zeros(surface.shape + (cfg.n_r,), dtype=complex)
    q = laplace_solve_channels(ws, np.arange(-cfg.n_z, cfg.n_z + 1), rhs, surface)
    return ScalarField(cfg, q, False)
