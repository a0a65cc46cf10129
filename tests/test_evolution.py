import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import jetstokes as js
import oracles
from jetstokes.evolution import STEP_BLOCK, energy_csv_rows, write_energy_csv
from jetstokes.fields import (
    constant_scalar,
    constant_vector,
    grad,
    random_smooth_vector,
    random_zero_trace_potential,
    zeros_scalar,
    zeros_vector,
)
from jetstokes import stokesop
from jetstokes.helmholtz import operator_Q
from jetstokes.rng import stream
from jetstokes.stokesop import expand_slice, random_constrained_vector


def _eigen_initial(ws, j):
    """Field along the j-th lowest mode-1 eigenvector, its packed coordinates and eigenvalue."""
    cfg = ws.config
    op = js.mode_operator(ws, 1)
    y0 = np.zeros(op.w.size, dtype=complex)
    y0[op.order[j]] = 1.0
    u = js.VectorField(cfg, expand_slice(ws, oracles.field_coords(ws, {1: y0})), False)
    return u, y0, float(op.eigen[0][j])


def test_implicit_euler_matches_scalar_recurrence(ws_small):
    u, y0, lam = _eigen_initial(ws_small, 4)
    dt, steps = 0.05, 10
    evo = js.EvolutionConfig(
        t_final=dt * steps, dt=dt, scheme="implicit-euler", initial=u
    )
    result = js.evolve(ws_small, evo)
    want = y0 * oracles.implicit_euler_decay(lam, dt, steps)
    err = np.linalg.norm(oracles.mode_coords(ws_small, result.coords)[1] - want) / np.linalg.norm(want)
    assert err < 1e-10
    assert result.trace.warnings == []
    assert np.max(result.trace.residual) < 1e-10


def test_crank_nicolson_matches_scalar_recurrence(ws_small):
    # the slowest eigenvector: Crank-Nicolson barely damps stiff components,
    # so roundoff injected there would swamp a strongly decayed probe
    u, y0, lam = _eigen_initial(ws_small, 0)
    dt, steps = 0.05, 10
    evo = js.EvolutionConfig(t_final=dt * steps, dt=dt, initial=u)
    result = js.evolve(ws_small, evo)
    want = y0 * oracles.crank_nicolson_decay(lam, dt, steps)
    err = np.linalg.norm(oracles.mode_coords(ws_small, result.coords)[1] - want) / np.linalg.norm(want)
    assert err < 1e-10


def test_implicit_euler_energy_monotone(ws_small):
    u = random_constrained_vector(ws_small, stream(61, "tests"))
    evo = js.EvolutionConfig(t_final=0.2, dt=0.02, scheme="implicit-euler", initial=u)
    result = js.evolve(ws_small, evo)
    l2 = result.trace.l2_norm_sq
    assert np.all(np.diff(l2) <= 1e-12 * l2[0])
    assert l2[-1] < l2[0]
    assert np.all(result.trace.dissipation >= -1e-12)


def test_constant_states_persist(ws_small):
    u = constant_vector(ws_small.config, (0.3, -0.2, 0.1))
    evo = js.EvolutionConfig(t_final=0.5, dt=0.05, scheme="implicit-euler", initial=u)
    result = js.evolve(ws_small, evo)
    drift = js.norm_L2(result.final - u) / js.norm_L2(u)
    assert drift < 1e-12
    assert result.trace.warnings == []


def test_crank_nicolson_energy_identity(ws_small):
    cfg = ws_small.config
    profile = random_smooth_vector(cfg, stream(62, "tests"), real=False)

    def forcing(t):
        return profile * float(np.sin(t))

    evo = js.EvolutionConfig(t_final=0.3, dt=0.02, forcing=forcing)
    result = js.evolve(ws_small, evo)
    worst = np.max(result.trace.identity_residual / result.trace.identity_scale)
    assert worst < 1e-8
    assert result.trace.warnings == []
    assert len(result.fields) == 16


def test_trajectory_storage_toggle(ws_small):
    u = random_constrained_vector(ws_small, stream(63, "tests"))
    evo = js.EvolutionConfig(t_final=0.1, dt=0.02, initial=u, store_trajectory=False)
    result = js.evolve(ws_small, evo)
    assert result.fields == []
    assert result.final is not None
    evo2 = js.EvolutionConfig(t_final=0.1, dt=0.02, initial=u, store_trajectory=True)
    result2 = js.evolve(ws_small, evo2)
    assert len(result2.fields) == 6
    assert np.allclose(result2.final.coeffs, result.final.coeffs)


def test_warning_for_unprojected_initial(ws_small):
    u = random_smooth_vector(ws_small.config, stream(64, "tests"), real=False)
    evo = js.EvolutionConfig(t_final=0.1, dt=0.05, initial=u)
    result = js.evolve(ws_small, evo)
    assert any("outside the constrained subspace" in w for w in result.trace.warnings)


def test_warning_for_solenoidal_forcing(ws_small):
    f = constant_vector(ws_small.config, (1.0, 0.0, 0.0))
    evo = js.EvolutionConfig(t_final=0.1, dt=0.05, forcing=lambda t: f)
    result = js.evolve(ws_small, evo)
    assert any("solenoidal part" in w for w in result.trace.warnings)


def test_warning_for_kernel_coupling(cfg_small):
    # a fresh workspace, since the perturbation edits its cached mode 0
    ws = js.Workspace(cfg_small)
    evo = js.EvolutionConfig(t_final=0.02, dt=0.01)
    assert js.evolve(ws, evo).trace.warnings == []
    # the warning reads the coupling set-up recorded for sector 0
    op = js.mode_operator(ws, 0)
    op.info[0]["kernel_coupling"] += 1e-4
    warnings = js.evolve(ws, evo).trace.warnings
    assert len(warnings) == 1 and "dissipation form couples to the kernel" in warnings[0]


@pytest.mark.parametrize(
    "grid", [(12, 3, 2), (24, 6, 4), (32, 8, 8)], ids=["12-3-2", "24-6-4", "32-8-8"]
)
def test_clean_mode_0_records_no_kernel_coupling(grid):
    cfg = js.DomainConfig(n_r=grid[0], n_theta=grid[1], n_z=grid[2])
    op = js.mode_operator(js.Workspace(cfg), 0)
    coupling = [info["kernel_coupling"] for info in op.info]
    assert max(coupling) < 1e-8
    # only the sectors with installed kernel columns can couple to them
    for info, c in zip(op.info, coupling):
        assert info["kernel_columns"] or c == 0.0


def test_kernel_coupling_is_recorded_from_the_dissipation_form(cfg_small, monkeypatch):
    # strain on the leading kernel column of each sector couples G to it
    factor = stokesop._dissipation_factor

    def coupled(t, cfg, j, z, beta):
        f = factor(t, cfg, j, z, beta)
        f[0] += 1e-3 * np.max(np.abs(f))
        return f

    monkeypatch.setattr(stokesop, "_dissipation_factor", coupled)
    ws = js.Workspace(cfg_small)
    op = js.mode_operator(ws, 0)
    assert all(info["kernel_coupling"] > 1e-8 for info in op.info if info["kernel_columns"])
    warnings = js.evolve(ws, js.EvolutionConfig(t_final=0.02, dt=0.01)).trace.warnings
    assert len(warnings) == 1 and "dissipation form couples to the kernel" in warnings[0]


@pytest.mark.parametrize("ws_name", ["ws_small", "ws_wide"])
def test_step_residual_bound_holds_on_a_forced_run(ws_name, request):
    # each step's reported residual bounds the residual the same
    # Crank-Nicolson steps leave against the blocks rebuilt from the stacks
    ws = request.getfixturevalue(ws_name)
    cfg = ws.config
    rng = stream(69, "tests")
    profile = random_smooth_vector(cfg, rng, real=False)
    u0 = random_constrained_vector(ws, rng)
    evo = js.EvolutionConfig(
        t_final=0.1, dt=0.01, initial=u0, forcing=lambda t: profile * np.sin(3.0 * t)
    )
    bound = js.evolve(ws, evo).trace.residual
    actual = oracles.evolve_per_step(ws, evo, measured=True).trace.residual
    assert bound.size == actual.size == 11
    assert np.all(actual <= bound) and np.max(bound) < 1e-10


def test_horizon_adjustment_warning(ws_small):
    evo = js.EvolutionConfig(
        t_final=0.25, dt=0.1, initial=constant_vector(ws_small.config, (1.0, 0.0, 0.0))
    )
    result = js.evolve(ws_small, evo)
    assert any("horizon adjusted" in w for w in result.trace.warnings)


def test_evolution_validation(ws_small):
    with pytest.raises(ValueError, match="dt must be positive"):
        js.evolve(ws_small, js.EvolutionConfig(t_final=1.0, dt=0.0))
    with pytest.raises(ValueError, match="unknown scheme"):
        js.evolve(ws_small, js.EvolutionConfig(t_final=1.0, dt=0.1, scheme="euler"))
    with pytest.raises(ValueError, match="at least dt"):
        js.evolve(ws_small, js.EvolutionConfig(t_final=0.01, dt=0.1))
    bad = js.EvolutionConfig(t_final=0.2, dt=0.1, forcing=lambda t: np.zeros(3))
    with pytest.raises(ValueError, match="must return a VectorField"):
        js.evolve(ws_small, bad)


def test_energy_csv(ws_small, tmp_path):
    u = random_constrained_vector(ws_small, stream(65, "tests"))
    result = js.evolve(ws_small, js.EvolutionConfig(t_final=0.1, dt=0.05, initial=u))
    rows = energy_csv_rows(result.trace)
    assert len(rows) == 3
    assert rows[0][0] == 0.0
    path = tmp_path / "energy.csv"
    write_energy_csv(path, result.trace)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,l2_norm_sq,dissipation,residual"
    assert len(lines) == 4
    assert float(lines[1].split(",")[1]) == pytest.approx(1.0, rel=1e-10)
    # exact bytes: repr floats and "\n" line ends
    tr = result.trace
    want = "t,l2_norm_sq,dissipation,residual\n" + "".join(
        "%r,%r,%r,%r\n"
        % (float(tr.t[k]), float(tr.l2_norm_sq[k]), float(tr.dissipation[k]), float(tr.residual[k]))
        for k in range(tr.t.size)
    )
    assert path.read_bytes() == want.encode("utf-8")


def test_recover_pressure_velocity_part(ws_small):
    cfg = ws_small.config
    from jetstokes.discretization import tables_for

    r = tables_for(cfg).r
    v = zeros_vector(cfg)
    v.coeffs[0, cfg.n_z, cfg.n_theta + 1, :] = 0.5 * r
    v.coeffs[0, cfg.n_z, cfg.n_theta - 1, :] = 0.5 * r
    v.coeffs[1, cfg.n_z, cfg.n_theta + 1, :] = 0.5j * r
    v.coeffs[1, cfg.n_z, cfg.n_theta - 1, :] = -0.5j * r
    q = js.recover_pressure(ws_small, v)
    ref = operator_Q(ws_small, v)
    assert np.array_equal(q.coeffs, ref.coeffs)
    want = cfg.mu * (r / cfg.kappa) ** 2
    got = q.coeffs[cfg.n_z, cfg.n_theta + 2, :]
    assert np.max(np.abs(got - want)) < 1e-10


def test_recover_pressure_forcing_part(ws_small):
    cfg = ws_small.config
    psi = random_zero_trace_potential(cfg, stream(66, "tests"), real=False)
    f = grad(psi)
    q = js.recover_pressure(ws_small, zeros_vector(cfg), f)
    num = js.norm_L2(q - psi)
    assert num / js.norm_L2(psi) < 1e-10


@pytest.mark.parametrize("n_r, n_theta, n_z", [(12, 3, 2), (24, 6, 4)])
def test_recover_pressure_is_q_plus_forcing_potential(n_r, n_theta, n_z):
    cfg = js.DomainConfig(n_r=n_r, n_theta=n_theta, n_z=n_z)
    ws = js.Workspace(cfg)
    rng = stream(67, "tests")
    v = random_smooth_vector(cfg, rng, real=False)
    f = random_smooth_vector(cfg, rng, real=False)
    got = js.recover_pressure(ws, v, f).coeffs
    want = operator_Q(ws, v).coeffs + js.project_P(ws, f).potential.coeffs
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_estimate_report_hand_values(ws_small):
    cfg = ws_small.config
    dt = 0.1
    area = cfg.ell * np.pi * cfg.kappa**2
    fields = [zeros_vector(cfg), constant_vector(cfg, (0.3, 0.0, 0.0))]
    pressures = [zeros_scalar(cfg), constant_scalar(cfg, 0.7)]
    forcings = [zeros_vector(cfg), constant_vector(cfg, (0.0, 0.5, 0.0))]
    rep = js.estimate_report(ws_small, fields, pressures, forcings, dt, dt)
    terms = rep["surrogate_terms"]
    s_h2 = np.sqrt(dt * 0.3**2 * area)
    s_dv = np.sqrt(dt * (0.3 * np.sqrt(area) / dt) ** 2)
    s_qt = np.sqrt(dt * 0.7**2 * cfg.kappa * 2.0 * np.pi * cfg.ell)
    s_f = np.sqrt(dt * 0.5**2 * area)
    assert terms["l2t_h2p_velocity"] == pytest.approx(s_h2, rel=1e-12)
    assert terms["l2t_l2_velocity_increment"] == pytest.approx(s_dv, rel=1e-12)
    assert terms["l2t_l2_grad_pressure"] == pytest.approx(0.0, abs=1e-13)
    assert terms["l2t_l2sf_pressure_trace"] == pytest.approx(s_qt, rel=1e-12)
    assert terms["l2t_l2_forcing"] == pytest.approx(s_f, rel=1e-12)
    want = (s_h2 + s_dv + s_qt) / s_f
    assert rep["ratio"] == pytest.approx(want, rel=1e-12)
    assert rep["T"] == pytest.approx(dt)
    assert rep["dt"] == dt


def test_estimate_report_homogeneous_and_validation(ws_small):
    cfg = ws_small.config
    fields = [zeros_vector(cfg), constant_vector(cfg, (1.0, 0.0, 0.0))]
    pressures = [zeros_scalar(cfg), zeros_scalar(cfg)]
    rep = js.estimate_report(ws_small, fields, pressures, None, 0.1, 0.1)
    assert rep["ratio"] == 0.0
    with pytest.raises(ValueError, match="at least one step"):
        js.estimate_report(ws_small, fields[:1], pressures[:1], None, 0.1, 0.1)
    with pytest.raises(ValueError, match="align"):
        js.estimate_report(ws_small, fields, pressures[:1], None, 0.1, 0.1)


def _report_inputs(cfg):
    fields = [zeros_vector(cfg), constant_vector(cfg, (0.3, 0.0, 0.0))]
    pressures = [zeros_scalar(cfg), constant_scalar(cfg, 0.7)]
    forcings = [zeros_vector(cfg), constant_vector(cfg, (0.0, 0.5, 0.0))]
    return {"field": fields, "pressure": pressures, "forcing": forcings}


@pytest.mark.parametrize("role", ["field", "pressure", "forcing"])
def test_estimate_report_rejects_another_config(ws_small, cfg_medium, role):
    inputs = _report_inputs(ws_small.config)
    inputs[role][1] = _report_inputs(cfg_medium)[role][1]
    with pytest.raises(ValueError, match="estimate_report: %s is on .*n_r=24.* workspace is on .*n_r=12" % role):
        js.estimate_report(ws_small, inputs["field"], inputs["pressure"], inputs["forcing"], 0.1, 0.1)


def test_estimate_report_checks_the_horizon(ws_small):
    inputs = _report_inputs(ws_small.config)
    args = (ws_small, inputs["field"], inputs["pressure"], inputs["forcing"], 0.1)
    with pytest.raises(ValueError, match="t_final=0.15 is not the 1 steps of dt=0.1"):
        js.estimate_report(*args, 0.15)
    # evolve's tolerance, 1e-9 * max(t_final, 1), is accepted
    assert js.estimate_report(*args, 0.1 + 5e-10)["T"] == pytest.approx(0.1)


KINDS = ("real", "complex", "widening", "homogeneous")


def _trajectory(ws, kind, dt=0.01):
    """The inputs of estimate_report from a run of STEP_BLOCK + 2 steps of the given kind.

    "real" and "complex" force with a real or a complex field; "widening"
    forces with a real one until the second block, whose complex values
    widen the run, so the snapshots carry both flags; "homogeneous" starts
    from a constrained state with no forcing.
    """
    cfg = ws.config
    rng = stream(97, "tests")
    real_part = random_smooth_vector(cfg, rng)
    complex_part = random_smooth_vector(cfg, rng, real=False)

    def forcing(t):
        f = real_part * math.sin(1.0 + t)
        if kind == "complex" or (kind == "widening" and t > (STEP_BLOCK + 0.5) * dt):
            f = f + complex_part * math.cos(t)
        return f

    g = None if kind == "homogeneous" else forcing
    initial = random_constrained_vector(ws, rng) if g is None else None
    steps = STEP_BLOCK + 2
    evo = js.EvolutionConfig(t_final=steps * dt, dt=dt, forcing=g, initial=initial)
    fields = js.evolve(ws, evo).fields
    forcings = None if g is None else [g(dt * k) for k in range(steps + 1)]
    pressures = [
        js.recover_pressure(ws, v, None if g is None else forcings[k])
        for k, v in enumerate(fields)
    ]
    return fields, pressures, forcings, dt


def _assert_estimate_matches_per_field_terms(ws, fields, pressures, forcings, dt):
    k_steps = len(fields) - 1
    got = js.estimate_report(ws, fields, pressures, forcings, dt, k_steps * dt)["surrogate_terms"]
    want = oracles.estimate_terms_per_field(fields, pressures, forcings, dt)
    for key, val in want.items():
        assert abs(got[key] - val) <= 1e-13 * val, key


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("ws_name", ["ws_small", "ws_wide"])
def test_estimate_report_matches_the_per_field_terms(ws_name, kind, request):
    # the increments and the pressure gradients come from word outputs,
    # the oracle forms them as fields
    ws = request.getfixturevalue(ws_name)
    fields, pressures, forcings, dt = _trajectory(ws, kind)
    flags = {v.real_flag for v in fields}
    want = {"real": {True}, "complex": {False}, "widening": {True, False}}
    assert flags == want.get(kind, flags)
    _assert_estimate_matches_per_field_terms(ws, fields, pressures, forcings, dt)


@settings(derandomize=True, max_examples=8, deadline=None)
@given(st.integers(8, 16), st.integers(2, 4), st.integers(0, 2), st.sampled_from(KINDS))
def test_estimate_report_matches_the_per_field_terms_on_any_grid(n_r, n_theta, n_z, kind):
    ws = js.Workspace(js.DomainConfig(n_r=n_r, n_theta=n_theta, n_z=n_z))
    _assert_estimate_matches_per_field_terms(ws, *_trajectory(ws, kind))


def _rel(got, want):
    """||got - want|| / ||want||, and exact agreement required of zeros."""
    scale = np.linalg.norm(want)
    return np.linalg.norm(got - want) / scale if scale > 0.0 else np.linalg.norm(got)


@pytest.mark.parametrize("store", [True, False], ids=["stored", "final-only"])
@pytest.mark.parametrize("initial", [True, False], ids=["initial", "rest"])
@pytest.mark.parametrize("forced", [True, False], ids=["forced", "homogeneous"])
@pytest.mark.parametrize("scheme", js.evolution.SCHEMES)
def test_evolve_matches_per_step_loop(ws_small, scheme, forced, initial, store):
    cfg = ws_small.config
    rng = stream(68, "tests")
    profile = random_smooth_vector(cfg, rng, real=False)
    u0 = random_constrained_vector(ws_small, rng)
    seen = {"batched": [], "per-step": []}

    def recording(key):
        def forcing(t):
            seen[key].append(t)
            return profile * np.sin(3.0 * t)

        return forcing

    # 37 steps: two full blocks of STEP_BLOCK steps and a partial one
    runs = {}
    for key, run in (("batched", js.evolve), ("per-step", oracles.evolve_per_step)):
        evo = js.EvolutionConfig(
            t_final=0.37,
            dt=0.01,
            scheme=scheme,
            forcing=recording(key) if forced else None,
            initial=u0 if initial else None,
            store_trajectory=store,
        )
        runs[key] = run(ws_small, evo)
    got, want = runs["batched"], runs["per-step"]
    assert seen["batched"] == seen["per-step"]
    assert all(type(t) is float for t in seen["batched"])
    assert len(seen["batched"]) == (39 if forced else 0)
    assert np.array_equal(got.trace.t, want.trace.t)
    for name in ("l2_norm_sq", "dissipation"):
        assert _rel(getattr(got.trace, name), getattr(want.trace, name)) <= 1e-12
    # residual and identity_residual are roundoff-level defects already
    # divided by their scales, so they are compared on that scale
    assert np.max(np.abs(got.trace.residual - want.trace.residual)) <= 1e-12
    if scheme == "crank-nicolson":
        assert _rel(got.trace.identity_scale, want.trace.identity_scale) <= 1e-12
        ratio = got.trace.identity_residual / got.trace.identity_scale
        ref = want.trace.identity_residual / want.trace.identity_scale
        assert np.max(np.abs(ratio - ref)) <= 1e-12
    else:
        assert got.trace.identity_residual is None
    assert len(got.fields) == len(want.fields) == (38 if store else 0)
    for a, b in zip(got.fields + [got.final], want.fields + [want.final]):
        assert _rel(a.coeffs, b.coeffs) <= 1e-12
    # one coordinate array per field; side 1 of |n| = 0 is padding
    assert got.coords.shape == want.coords.shape
    assert not np.any(got.coords[0, :, 1])
    want_coords = oracles.mode_coords(ws_small, want.coords)
    for n, y in oracles.mode_coords(ws_small, got.coords).items():
        assert _rel(y, want_coords[n]) <= 1e-12
