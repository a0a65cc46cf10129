import numpy as np

import jetstokes as js
from jetstokes.discretization import tables_for
from jetstokes.fields import (
    random_smooth_vector,
    random_zero_trace_potential,
    rigid_rotation,
    scalar_from_profile,
    zeros_vector,
)
from jetstokes.rng import stream

import oracles


def _shear_field(cfg):
    """v = (x, -y, 0)."""
    r = tables_for(cfg).r
    v = zeros_vector(cfg)
    v.coeffs[0, cfg.n_z, cfg.n_theta + 1, :] = 0.5 * r
    v.coeffs[0, cfg.n_z, cfg.n_theta - 1, :] = 0.5 * r
    v.coeffs[1, cfg.n_z, cfg.n_theta + 1, :] = 0.5j * r
    v.coeffs[1, cfg.n_z, cfg.n_theta - 1, :] = -0.5j * r
    return v


def test_projection_decomposition(ws_small):
    cfg = ws_small.config
    u = random_smooth_vector(cfg, stream(31, "tests"))
    d = js.project_P(ws_small, u)
    assert d.residual < 1e-12
    # divergence is removed down to the per-mode solver tolerance,
    # relative to how much divergence the input carried
    assert js.norm_L2(js.div(d.solenoidal)) < 1e-8 * js.norm_L2(js.div(u))
    # the potential has zero trace on the free surface
    tr = js.trace_SF(d.potential)
    assert np.max(np.abs(tr.coeffs)) < 1e-14


def test_projection_idempotent_and_orthogonal(ws_small):
    cfg = ws_small.config
    u = random_smooth_vector(cfg, stream(32, "tests"))
    d = js.project_P(ws_small, u)
    pu = d.solenoidal
    again = js.project_P(ws_small, pu)
    assert js.norm_L2(again.solenoidal - pu) < 1e-11
    gq = js.grad(d.potential)
    ip = js.inner_product_Hkp(pu, gq, 0)
    assert abs(ip) / (js.norm_L2(pu) * js.norm_L2(gq)) < 1e-11


def test_projection_annihilates_gradients(ws_small):
    cfg = ws_small.config
    q = random_zero_trace_potential(cfg, stream(33, "tests"))
    w = js.grad(q)
    d = js.project_P(ws_small, w)
    assert js.norm_L2(d.solenoidal) / js.norm_L2(w) < 1e-11
    # and the recovered potential is q itself (both have zero trace)
    assert js.norm_L2(d.potential - q) / js.norm_L2(q) < 1e-10


def test_operator_q_shear_closed_form(ws_small):
    cfg = ws_small.config
    v = _shear_field(cfg)
    q = js.operator_Q(ws_small, v)
    r = ws_small.tables.r
    prof = oracles.shear_q_profile(r, cfg.kappa, cfg.mu)
    ref = scalar_from_profile(cfg, 0, 2, prof) + scalar_from_profile(cfg, 0, -2, prof)
    assert js.norm_L2(q - ref) / js.norm_L2(ref) < 1e-11


def test_operator_q_pure_normal_strain(ws_small):
    cfg = ws_small.config
    # v = (x, y, 0): E = 2 I, datum 2 mu (x^2 + y^2)/kappa^2 = 2 mu at the surface
    r = ws_small.tables.r
    v = zeros_vector(cfg)
    v.coeffs[0, cfg.n_z, cfg.n_theta + 1, :] = 0.5 * r
    v.coeffs[0, cfg.n_z, cfg.n_theta - 1, :] = 0.5 * r
    v.coeffs[1, cfg.n_z, cfg.n_theta + 1, :] = -0.5j * r
    v.coeffs[1, cfg.n_z, cfg.n_theta - 1, :] = 0.5j * r
    q = js.operator_Q(ws_small, v)
    ref = js.ScalarField(cfg, np.zeros_like(q.coeffs))
    ref.coeffs[cfg.n_z, cfg.n_theta, :] = 2.0 * cfg.mu
    assert js.norm_L2(q - ref) / js.norm_L2(ref) < 1e-11


def test_operator_q_kills_rotation(ws_small):
    cfg = ws_small.config
    rot = rigid_rotation(cfg)
    q = js.operator_Q(ws_small, rot)
    assert js.norm_L2(q) < 1e-12

