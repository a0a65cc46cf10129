import dataclasses

import numpy as np
import pytest

import jetstokes as js
from jetstokes import helmholtz, modesolve, stokesop
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



REF = 1e-12


def _rel(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("forced", [False, True], ids=["velocity", "forced"])
@pytest.mark.parametrize("ws_name", ["ws_small", "ws_medium"])
def test_operator_q_matches_per_slice_reference(request, ws_name, forced, real):
    ws = request.getfixturevalue(ws_name)
    rng = stream(34, "tests")
    v = random_smooth_vector(ws.config, rng, real=real)
    f = random_smooth_vector(ws.config, rng, real=real) if forced else None
    got = js.operator_Q(ws, v, f).coeffs
    assert _rel(got, oracles.operator_Q_per_slice(ws, v, f)) < REF


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("ws_name", ["ws_small", "ws_medium"])
def test_project_p_matches_per_slice_reference(request, ws_name, real):
    ws = request.getfixturevalue(ws_name)
    u = random_smooth_vector(ws.config, stream(35, "tests"), real=real)
    d = js.project_P(ws, u)
    sol, pot, residual = oracles.project_P_per_slice(ws, u)
    assert _rel(d.solenoidal.coeffs, sol) < REF
    assert _rel(d.potential.coeffs, pot) < REF
    assert abs(d.residual - residual) < REF


def test_one_dirichlet_solve_per_field(cfg_small, monkeypatch):
    # each entry point solves all its axial slices in one call, carrying
    # the modes 0..n_z of a real field and -n_z..n_z of a complex one
    ws = js.Workspace(cfg_small)
    n_z = cfg_small.n_z
    rng = stream(36, "tests")
    calls = []
    solve = helmholtz.laplace_solve_channels

    def counted(ws, n, *args):
        calls.append(list(n))
        return solve(ws, n, *args)

    monkeypatch.setattr(helmholtz, "laplace_solve_channels", counted)
    for real in (True, False):
        v = random_smooth_vector(cfg_small, rng, real=real)
        f = random_smooth_vector(cfg_small, rng, real=real)
        modes = list(range(0 if real else -n_z, n_z + 1))
        for run in (lambda: js.operator_Q(ws, v, f), lambda: js.project_P(ws, v)):
            calls.clear()
            run()
            assert calls == [modes]
    calls.clear()
    js.harmonic_extension(ws, js.trace_SF(v.x))
    assert calls == [list(range(-n_z, n_z + 1))]


def test_project_p_residual_is_computed_when_read(ws_small, monkeypatch):
    u = random_smooth_vector(ws_small.config, stream(35, "tests"), real=False)
    _, _, want = oracles.project_P_per_slice(ws_small, u)

    def refuse(*args):
        raise AssertionError("residual computed before it was read")

    with monkeypatch.context() as patch:
        patch.setattr(helmholtz, "norm_L2", refuse)
        patch.setattr(helmholtz, "grad", refuse)
        d = js.project_P(ws_small, u)
    # the residual belongs to the input at the call, not to later edits of it
    u.coeffs[:] = 0.0
    assert abs(d.residual - want) < REF
    assert d.residual == js.project_P(ws_small, d.source).residual


def _calls(ws, v):
    """Every entry point, given v as its velocity, forcing, field or trace."""
    own = zeros_vector(ws.config)

    def run(**kwargs):
        return js.evolve(ws, js.EvolutionConfig(t_final=0.04, dt=0.02, **kwargs))

    return {
        "operator_Q-v": lambda: js.operator_Q(ws, v),
        "operator_Q-f": lambda: js.operator_Q(ws, own, v),
        "recover_pressure-v": lambda: js.recover_pressure(ws, v, own),
        "recover_pressure-f": lambda: js.recover_pressure(ws, own, v),
        "project_P": lambda: js.project_P(ws, v),
        "harmonic_extension": lambda: js.harmonic_extension(ws, js.trace_SF(v.x)),
        "resolve": lambda: js.resolve(ws, 2j, v),
        "project_constrained": lambda: stokesop.project_constrained(ws, v),
        "tangential_traction": lambda: js.tangential_traction(ws, v),
        "solve_mode_dirichlet": lambda: js.solve_mode_dirichlet(ws, 1, v.x),
        "dirichlet_residual-f": lambda: modesolve.dirichlet_residual(ws, 1, v.x, own.x),
        "dirichlet_residual-u": lambda: modesolve.dirichlet_residual(ws, 1, own.x, v.x),
        "evolve-initial": lambda: run(initial=v),
        "evolve-forcing": lambda: run(forcing=lambda t: v),
        # a forcing on the workspace's config at t = 0 only
        "evolve-forcing-later": lambda: run(forcing=lambda t: own if t == 0.0 else v),
    }


@pytest.mark.parametrize(
    "call",
    [
        "operator_Q-v",
        "operator_Q-f",
        "recover_pressure-v",
        "recover_pressure-f",
        "project_P",
        "harmonic_extension",
        "resolve",
        "project_constrained",
        "tangential_traction",
        "solve_mode_dirichlet",
        "dirichlet_residual-f",
        "dirichlet_residual-u",
        "evolve-initial",
        "evolve-forcing",
        "evolve-forcing-later",
    ],
)
@pytest.mark.parametrize(
    "other",
    [dict(n_z=3), dict(mu=2.0), dict(n_z=1), dict(kappa=0.3)],
    ids=["nz3", "mu2", "nz1", "kappa03"],
)
def test_field_from_another_config_is_rejected(ws_small, call, other):
    cfg = ws_small.config
    foreign = dataclasses.replace(cfg, **other)
    v = random_smooth_vector(foreign, stream(37, "tests"))
    with pytest.raises(ValueError) as err:
        _calls(ws_small, v)[call]()
    assert repr(foreign) in str(err.value) and repr(cfg) in str(err.value)
