"""Real fields take one side; the same data flagged complex takes both.

A field flagged real (real_flag) has Hermitian-symmetric coefficients, so
its norms, inner products, gradient, pressure and forced evolution read
the axial slices n >= 0 only and mirror mode -n. The two-sided path over
all slices is the reference: every property below runs the same data
twice, once flagged real and once flagged complex (VectorField(cfg, c)
defaults to complex), and asks for agreement to 1e-12 relative.
Hypothesis draws small grids (derandomized, so every run sees the same
draws).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import jetstokes as js
from jetstokes.evolution import STEP_BLOCK
from jetstokes.fields import constant_vector, grad, random_smooth_scalar, random_smooth_vector
from jetstokes.helmholtz import operator_Q
from jetstokes.rng import stream
from jetstokes.stokesop import project_constrained

GRIDS = st.builds(
    lambda kappa, ell, mu, n_r, n_theta, n_z: js.DomainConfig(
        kappa=kappa, ell=ell, mu=mu, n_r=n_r, n_theta=n_theta, n_z=n_z
    ),
    st.floats(0.2, 0.9),
    st.floats(1.0, 10.0),
    st.floats(0.5, 2.0),
    st.integers(6, 10),
    st.integers(2, 3),
    st.integers(0, 2),
)
PROPERTY = settings(derandomize=True, max_examples=8, deadline=None)
REL = 1e-12


def _complex(field):
    """The same coefficients, flagged complex."""
    return type(field)(field.config, field.coeffs.copy())


def _close(a, b, scale=None):
    scale = np.linalg.norm(a) if scale is None else scale
    return np.linalg.norm(np.asarray(a) - np.asarray(b)) <= REL * scale


def _forced_run(ws, profile, steps, dt=0.02):
    def forcing(t):
        return profile * math.sin(1.0 + t)

    evo = js.EvolutionConfig(t_final=steps * dt, dt=dt, forcing=forcing)
    res = js.evolve(ws, evo)
    forcings = [forcing(float(t)) for t in res.trace.t]
    pressures = [js.recover_pressure(ws, v, f) for v, f in zip(res.fields, forcings)]
    rep = js.estimate_report(ws, res.fields, pressures, forcings, dt, steps * dt)
    return res, rep


@PROPERTY
@given(GRIDS)
def test_norms_and_pairings_of_real_fields_match_the_two_sided_path(cfg):
    rng = stream(91, "tests")
    u, v = (random_smooth_vector(cfg, rng) for _ in range(2))
    assert u.real_flag and v.real_flag
    uc, vc = _complex(u), _complex(v)
    for k in range(3):
        nu = js.norm_Hkp(u, k)
        assert abs(nu - js.norm_Hkp(uc, k)) <= REL * nu
        pair = js.inner_product_Hkp(u, v, k)
        ref = js.inner_product_Hkp(uc, vc, k)
        assert pair.imag == 0.0
        assert abs(pair - ref) <= REL * nu * js.norm_Hkp(v, k)


@PROPERTY
@given(GRIDS)
def test_pressure_and_gradient_of_real_fields_match_the_two_sided_path(cfg):
    ws = js.Workspace(cfg)
    rng = stream(92, "tests")
    v, f = (random_smooth_vector(cfg, rng) for _ in range(2))
    for args in ((v,), (v, f)):
        q = operator_Q(ws, *args)
        ref = operator_Q(ws, *map(_complex, args))
        assert q.real_flag and not ref.real_flag
        assert _close(ref.coeffs, q.coeffs)
    s = random_smooth_scalar(cfg, rng)
    g, ref = grad(s), grad(_complex(s))
    assert g.real_flag and not ref.real_flag
    assert _close(ref.coeffs, g.coeffs)


@PROPERTY
@given(GRIDS)
def test_forced_real_run_matches_the_two_sided_path(cfg):
    ws = js.Workspace(cfg)
    profile = random_smooth_vector(cfg, stream(93, "tests"))
    res, rep = _forced_run(ws, profile, steps=5)
    ref, ref_rep = _forced_run(ws, _complex(profile), steps=5)
    for name in ("l2_norm_sq", "dissipation"):
        a, b = getattr(res.trace, name), getattr(ref.trace, name)
        assert np.max(np.abs(a - b)) <= REL * np.max(np.abs(b))
    # the step residuals and the energy identity are roundoff themselves
    assert np.max(np.abs(res.trace.residual - ref.trace.residual)) <= REL
    ratio = res.trace.identity_residual / res.trace.identity_scale
    assert np.max(ratio) <= 1e-10
    assert all(v.real_flag for v in res.fields)
    assert not any(v.real_flag for v in ref.fields)
    for v, w in zip(res.fields, ref.fields):
        assert _close(w.coeffs, v.coeffs, np.linalg.norm(ref.fields[-1].coeffs))
    assert res.coords.shape == ref.coords.shape
    assert _close(ref.coords, res.coords)
    assert abs(rep["ratio"] - ref_rep["ratio"]) <= REL * ref_rep["ratio"]
    for key, val in ref_rep["surrogate_terms"].items():
        if isinstance(val, float):
            assert abs(rep["surrogate_terms"][key] - val) <= REL * max(val, 1e-300)


@pytest.mark.parametrize("switch", [3, STEP_BLOCK + 2])
def test_forcing_that_turns_complex_widens_the_run(ws_small, switch):
    # f is real until step `switch`, then complex; the reference flags
    # every value complex, so it runs two-sided from t = 0
    cfg = ws_small.config
    dt, steps = 0.01, STEP_BLOCK + 6
    real_part = random_smooth_vector(cfg, stream(94, "tests"))
    complex_part = random_smooth_vector(cfg, stream(95, "tests"), real=False)

    def forcing(t):
        f = real_part * math.sin(t)
        return f + complex_part * (t - switch * dt) if t > (switch - 0.5) * dt else f

    def flagged_complex(t):
        return _complex(forcing(t))

    runs = [
        js.evolve(ws_small, js.EvolutionConfig(t_final=steps * dt, dt=dt, forcing=g))
        for g in (forcing, flagged_complex)
    ]
    res, ref = runs
    # a block holds the time points after its first (block 0 holds t = 0
    # too), and the whole block widens when one of them is complex
    block = (switch - 1) // STEP_BLOCK
    first_complex = block * STEP_BLOCK + 1 if block else 0
    flags = [v.real_flag for v in res.fields]
    assert flags == [k < first_complex for k in range(steps + 1)]
    for name in ("l2_norm_sq", "dissipation"):
        a, b = getattr(res.trace, name), getattr(ref.trace, name)
        assert np.max(np.abs(a - b)) <= REL * np.max(np.abs(b))
    # the block weights are rebuilt at the width the run widens to; the
    # residual and the identity ratio are roundoff-level defects already
    # divided by their scales, so they are compared on that scale
    assert np.max(np.abs(res.trace.residual - ref.trace.residual)) <= REL
    scale, ref_scale = res.trace.identity_scale, ref.trace.identity_scale
    assert np.max(np.abs(scale - ref_scale)) <= REL * np.max(ref_scale)
    ratio = res.trace.identity_residual / res.trace.identity_scale
    ref_ratio = ref.trace.identity_residual / ref.trace.identity_scale
    assert np.max(np.abs(ratio - ref_ratio)) <= REL
    assert _close(ref.coords, res.coords)
    for v, w in zip(res.fields, ref.fields):
        assert _close(w.coeffs, v.coeffs, np.linalg.norm(ref.fields[-1].coeffs))


@pytest.mark.parametrize("initial", ["constant", "random"])
@pytest.mark.parametrize("forcing", [None, "real", "complex"])
def test_real_initial_state_is_projected_on_one_side(ws_small, initial, forcing):
    # a real initial state is projected on side 0 only, and evolve widens
    # it when f(0) is complex; the reference flags it complex, so it is
    # projected on both sides
    cfg = ws_small.config
    rng = stream(96, "tests")
    if initial == "constant":
        u0 = constant_vector(cfg, (1.0, 0.0, 0.0))
    else:
        u0 = random_smooth_vector(cfg, rng)
    proj, c = project_constrained(ws_small, u0)
    ref_proj, ref_c = project_constrained(ws_small, _complex(u0))
    assert c.shape[2] == 1 and ref_c.shape[2] == 2
    assert proj.real_flag and _close(ref_proj.coeffs, proj.coeffs)
    assert _close(ref_c[:, :, :1], c)
    g = None if forcing is None else random_smooth_vector(cfg, rng, real=forcing == "real")

    def run(u):
        f = None if g is None else (lambda t: g * math.cos(t))
        return js.evolve(ws_small, js.EvolutionConfig(t_final=0.06, dt=0.01, initial=u, forcing=f))

    res, ref = run(u0), run(_complex(u0))
    assert [v.real_flag for v in res.fields] == [forcing != "complex"] * 7
    for name in ("l2_norm_sq", "dissipation"):
        a, b = getattr(res.trace, name), getattr(ref.trace, name)
        assert np.max(np.abs(a - b)) <= REL * np.max(np.abs(b))
    assert _close(ref.coords, res.coords)
    for v, w in zip(res.fields, ref.fields):
        assert _close(w.coeffs, v.coeffs, np.linalg.norm(ref.fields[-1].coeffs))
