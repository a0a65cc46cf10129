import numpy as np
import pytest
import scipy.linalg
import scipy.special

import jetstokes as js
import oracles
from jetstokes.fields import constant_vector, random_smooth_vector
from jetstokes.config import ResolventBlock
from jetstokes.rng import stream
from jetstokes.spectral import _pencil_solve, write_eigenvalues_csv, write_resolvent_csv
from jetstokes.stokesop import _apply_weight, assemble_A, reduce_slice

# Regression values, converged to nine digits under radial and azimuthal
# refinement (checked from n_r = 12 up to n_r = 48). The 1.0 entry is the
# twisted rotation e^{i beta z} (-y, x, 0) whose eigenvalue is mu * beta^2
# exactly, so it gets a tight absolute tolerance.
MODE0_NONZERO = (13.559830867, 13.559830867, 22.163147989, 22.163147989, 37.313452855)
MODE1_SMALLEST = (0.150352606, 0.150352606, 1.0, 2.907550155, 16.484250510)


def test_kernel_dimension_is_four(ws_small):
    assert js.kernel_dimension(ws_small) == 4


def test_mode0_frozen_eigenvalues(ws_small):
    entries = js.eigensolve(ws_small, 0, 9)
    vals = [e.lam.real for e in entries]
    for e in entries:
        assert abs(e.lam.imag) == 0.0
        assert e.residual < 1e-10
        assert e.in_sector
    for k in range(4):
        assert abs(vals[k]) < 1e-8
    for k, want in enumerate(MODE0_NONZERO):
        assert vals[4 + k] == pytest.approx(want, rel=1e-5)
    assert vals[4] == pytest.approx(vals[5], rel=1e-9)
    assert vals[6] == pytest.approx(vals[7], rel=1e-9)


def test_mode1_frozen_eigenvalues(ws_small):
    entries = js.eigensolve(ws_small, 1, 5)
    vals = [e.lam.real for e in entries]
    for e in entries:
        assert e.residual < 1e-10
        assert e.in_sector
    assert vals[0] == pytest.approx(MODE1_SMALLEST[0], rel=1e-5)
    assert vals[1] == pytest.approx(vals[0], rel=1e-9)
    assert vals[2] == pytest.approx(1.0, abs=1e-8)
    assert vals[3] == pytest.approx(MODE1_SMALLEST[3], rel=1e-5)
    assert vals[4] == pytest.approx(MODE1_SMALLEST[4], rel=1e-5)


def test_mode2_hits_exact_twisted_value(ws_small):
    # mu * beta(2)^2 = 4 at the default geometry
    entries = js.eigensolve(ws_small, 2, 10)
    dist = min(abs(e.lam.real - 4.0) for e in entries)
    assert dist < 1e-7


def test_eigenvalues_stable_under_refinement(ws_medium):
    entries = js.eigensolve(ws_medium, 1, 5)
    vals = [e.lam.real for e in entries]
    for k, want in enumerate(MODE1_SMALLEST):
        assert vals[k] == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize("ws_name", ["ws_small", "ws_medium"])
def test_mode0_antiplane_family_matches_bessel_zeros(ws_name, request):
    # u_z = J_j(s r) e^{i j theta} with J_j'(s kappa) = 0 is stress-free and
    # pressure-free at beta = 0, with eigenvalue mu s^2
    ws = request.getfixturevalue(ws_name)
    cfg = ws.config
    op = js.mode_operator(ws, 0)
    for p in oracles.sector_parts(op):
        j = p.info["j"]
        if abs(j) > cfg.n_theta - 1:
            continue
        for zero in scipy.special.jnp_zeros(abs(j), 3):
            want = cfg.mu * (zero / cfg.kappa) ** 2
            assert np.min(np.abs(op.w[p.index] - want)) <= 1e-9 * want


def test_resolve_constant_right_hand_side(ws_small):
    g = constant_vector(ws_small.config, (0.4, -0.3, 0.9))
    v, info = js.resolve(ws_small, -1.0, g)
    assert js.norm_L2(v - g) / js.norm_L2(g) < 1e-10
    assert info["max_rel_residual"] < 1e-10
    assert info["warnings"] == []


def test_resolve_rejects_parameters_outside_sector(ws_small):
    g = constant_vector(ws_small.config, (1.0, 0.0, 0.0))
    for lam in (1.0, 0.0, 3.0 + 0.5j):
        with pytest.raises(ValueError, match="sector"):
            js.resolve(ws_small, lam, g)


def test_resolve_refuses_a_parameter_on_the_spectrum(ws_small):
    # mode 0's kernel eigenvalues lie within 1e-27 of 0, so 1e-15 i is
    # 1e-15 from them, under the gap 1e-12 * max|w| that the check allows
    g = random_smooth_vector(ws_small.config, stream(47, "tests"), real=False)
    with pytest.raises(RuntimeError) as err:
        js.resolve(ws_small, 1e-15j, g)
    assert str(err.value) == "resolvent parameter 1e-15j is within 1.000e-15 of the mode-0 spectrum"


def test_gap_check_names_the_lowest_mode_near_lam(ws_small):
    # mode 2's twisted eigenvalue mu beta_2^2 is in no lower mode's spectrum
    cfg = ws_small.config
    lam = complex(cfg.mu * cfg.beta(2) ** 2, 1e-14)
    r = reduce_slice(ws_small, random_smooth_vector(cfg, stream(48, "tests"), real=False).coeffs)
    with pytest.raises(RuntimeError, match=r"of the mode-2 spectrum$"):
        _pencil_solve(ws_small, lam, r)


def test_resolve_bound_and_residual(ws_small):
    g = random_smooth_vector(ws_small.config, stream(51, "tests"), real=False)
    for lam in (1j, 2j, -1.0 + 2.0j):
        v, info = js.resolve(ws_small, lam, g)
        assert info["max_rel_residual"] < 1e-10
        bound = np.sqrt(2.0) / abs(lam) * js.norm_L2(g)
        assert js.norm_L2(v) <= bound + 1e-8


@pytest.mark.parametrize("ws_name", ["ws_small", "ws_wide"])
def test_resolve_bound_holds_over_the_sweep_grid(ws_name, request):
    # the reported max_rel_residual bounds the residual against the blocks
    # rebuilt from the stacks, mode by mode, at every sweep point
    ws = request.getfixturevalue(ws_name)
    g = random_smooth_vector(ws.config, stream(55, "tests"), real=False)
    r = reduce_slice(ws, g.coeffs)
    for lam in ResolventBlock().grid():
        y, bound = _pencil_solve(ws, lam, r)
        actual = oracles.pencil_residuals(ws, lam, r, y)
        assert np.all(actual <= bound) and np.max(bound) < 1e-8
        _, info = js.resolve(ws, lam, g)
        assert info["max_rel_residual"] == np.max(bound)


def test_resolve_negative_mode_matches_direct_assembly(ws_small):
    cfg = ws_small.config
    t = ws_small.tables
    lam = -1.0 + 2.0j
    g = random_smooth_vector(cfg, stream(52, "tests"), real=False)
    v, _ = js.resolve(ws_small, lam, g)
    op_m = assemble_A(ws_small, -1)
    i_n = cfg.n_z - 1
    gw = _apply_weight(t, cfg.ell, g.coeffs[:, i_n]).reshape(-1)
    r = op_m.basis.conj().T @ gw
    m, g = oracles.dense_blocks(op_m)
    y = scipy.linalg.solve(g - lam * m, r)
    direct = (op_m.basis @ y).reshape(v.coeffs[:, i_n].shape)
    err = np.linalg.norm(direct - v.coeffs[:, i_n]) / np.linalg.norm(direct)
    assert err < 1e-8


def test_resolvent_sweep(ws_small):
    grid = [1j, 2j, -1.0 + 1.0j]
    samples = js.resolvent_sweep(ws_small, grid, stream(53, "tests"))
    assert len(samples) == 3
    assert all(s.bound_ok for s in samples)
    assert all(s.l2_gain <= s.l2_bound + 1e-8 for s in samples)
    again = js.resolvent_sweep(ws_small, grid, stream(53, "tests"))
    assert [s.l2_gain for s in again] == [s.l2_gain for s in samples]
    with pytest.raises(ValueError, match="nonempty"):
        js.resolvent_sweep(ws_small, [], stream(53, "tests"))


def test_ray_exponent_measured_decay(ws_small):
    samples = js.resolvent_sweep(ws_small, [8j, 16j, 32j], stream(54, "tests"))
    # log-log slope of the H^2 gain along the imaginary ray
    x = np.log([abs(s.lam) for s in samples])
    y = np.log([s.hk_gain for s in samples])
    slope = np.polyfit(x, y, 1)[0]
    assert -1.6 < slope < -0.3


def test_eigenvalues_csv(ws_small, tmp_path):
    entries = js.eigensolve(ws_small, 1, 3)
    path = tmp_path / "eigenvalues.csv"
    write_eigenvalues_csv(path, entries)
    lines = path.read_text().splitlines()
    assert lines[0] == "n,re_lambda,im_lambda,residual,in_sector"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == pytest.approx(MODE1_SMALLEST[0], rel=1e-5)
    assert first[4] == "true"
    # exact bytes: repr floats, true/false, "\n" line ends
    want = "n,re_lambda,im_lambda,residual,in_sector\n" + "".join(
        "%d,%r,%r,%r,%s\n"
        % (e.n, float(e.lam.real), float(e.lam.imag), float(e.residual), str(e.in_sector).lower())
        for e in entries
    )
    assert path.read_bytes() == want.encode("utf-8")


def test_resolvent_csv(ws_small, tmp_path):
    samples = js.resolvent_sweep(ws_small, [2j], stream(55, "tests"))
    path = tmp_path / "resolvent_sweep.csv"
    write_resolvent_csv(path, samples)
    lines = path.read_text().splitlines()
    assert lines[0] == "re_lambda,im_lambda,l2_gain,l2_bound,hk_gain,bound_ok"
    row = lines[1].split(",")
    assert float(row[0]) == 0.0
    assert float(row[1]) == 2.0
    assert row[5] == "true"
    # exact bytes: repr floats, true/false, "\n" line ends
    want = "re_lambda,im_lambda,l2_gain,l2_bound,hk_gain,bound_ok\n" + "".join(
        "%r,%r,%r,%r,%r,%s\n"
        % (
            float(s.lam.real),
            float(s.lam.imag),
            float(s.l2_gain),
            float(s.l2_bound),
            float(s.hk_gain),
            str(s.bound_ok).lower(),
        )
        for s in samples
    )
    assert path.read_bytes() == want.encode("utf-8")
