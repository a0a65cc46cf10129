import math

import numpy as np
import pytest

import jetstokes as js
from jetstokes.discretization import RadialTables, _channels_first, _channels_last, tables_for
from jetstokes.fields import (
    ScalarField,
    _axial_factors,
    _draw_smooth_coeffs,
    _grad_norm_sq,
    _norms_and_increments,
    _truncate,
    constant_scalar,
    constant_vector,
    grad,
    norm_L2,
    rigid_rotation,
    random_smooth_scalar,
    random_smooth_vector,
    random_zero_trace_potential,
    scalar_from_profile,
    trace_norm_L2,
    zeros_scalar,
    zeros_vector,
)
from jetstokes.rng import stream
from jetstokes.stokesop import random_constrained_vector

import oracles


def _x_field(cfg):
    """The scalar x = r cos(theta) in coefficient form."""
    t = np.asarray(js_tables_r(cfg))
    f = zeros_scalar(cfg)
    f.coeffs[cfg.n_z, cfg.n_theta + 1, :] = 0.5 * t
    f.coeffs[cfg.n_z, cfg.n_theta - 1, :] = 0.5 * t
    return f


def js_tables_r(cfg):
    from jetstokes.discretization import tables_for

    return tables_for(cfg).r


def test_constant_l2_norm(cfg_small):
    c = constant_scalar(cfg_small, 2.0)
    want = oracles.const_norm_sq(2.0, cfg_small.kappa, cfg_small.ell)
    assert js.norm_L2(c) ** 2 == pytest.approx(want, rel=1e-13)


def test_axial_wave_h1_norm(cfg_small):
    u = scalar_from_profile(cfg_small, 1, 0, np.ones(cfg_small.n_r))
    got = js.inner_product_Hkp(u, u, 1).real
    want = oracles.axial_wave_h1_norm_sq(cfg_small.kappa, cfg_small.ell)
    assert got == pytest.approx(want, rel=1e-13)


def test_radial_monomial_norm(cfg_small):
    # ||r e^{i theta}||^2 = ell * 2 pi * kappa^4 / 4
    r = js_tables_r(cfg_small)
    u = scalar_from_profile(cfg_small, 0, 1, r)
    want = cfg_small.ell * 2.0 * math.pi * cfg_small.kappa**4 / 4.0
    assert js.norm_L2(u) ** 2 == pytest.approx(want, rel=1e-13)


def test_grad_of_x_is_e1(cfg_small):
    u = _x_field(cfg_small)
    g = js.grad(u)
    e1 = constant_vector(cfg_small, (1.0, 0.0, 0.0))
    assert js.norm_L2(g - e1) < 1e-13


def test_div_closed_forms(cfg_small):
    rot = rigid_rotation(cfg_small)
    assert js.norm_L2(js.div(rot)) < 1e-13
    # (x, y, 0) has divergence 2
    v = zeros_vector(cfg_small)
    x = _x_field(cfg_small)
    v.coeffs[0] = x.coeffs
    r = js_tables_r(cfg_small)
    v.coeffs[1, cfg_small.n_z, cfg_small.n_theta + 1, :] = -0.5j * r
    v.coeffs[1, cfg_small.n_z, cfg_small.n_theta - 1, :] = 0.5j * r
    d = js.div(v)
    two = constant_scalar(cfg_small, 2.0)
    assert js.norm_L2(d - two) < 1e-12


def test_laplacian_closed_form(cfg_small):
    r = js_tables_r(cfg_small)
    u = scalar_from_profile(
        cfg_small, 0, 0, oracles.poisson_const_profile(r, cfg_small.kappa)
    )
    lap = js.laplacian(u)
    one = constant_scalar(cfg_small, 1.0)
    assert js.norm_L2(lap - one) < 1e-12
    # harmonic: laplacian of x vanishes
    assert js.norm_L2(js.laplacian(_x_field(cfg_small))) < 1e-11


def test_div_grad_equals_laplacian(cfg_small):
    phi = random_smooth_scalar(cfg_small, stream(11, "tests"))
    a = js.div(js.grad(phi))
    b = js.laplacian(phi)
    assert js.norm_L2(a - b) < 1e-10


def _sym_entry_fields(v):
    """The Cartesian strain entries E_ij = D_j v_i + D_i v_j (i <= j) of
    oracles._sym_entries, as ScalarFields on the stored band."""
    cfg = v.config
    varr = np.moveaxis(v.coeffs, 0, 1)
    e = oracles._sym_entries(tables_for(cfg), varr, _axial_factors(cfg).imag)
    return {key: js.ScalarField(cfg, _truncate(arr, cfg.n_theta)) for key, arr in e.items()}


def test_sym_grad_closed_forms(cfg_small):
    rot = rigid_rotation(cfg_small)
    e = _sym_entry_fields(rot)
    assert max(js.norm_L2(f) for f in e.values()) < 1e-13
    # shear (x, -y, 0): E_11 = 2, E_22 = -2, everything else 0
    v = zeros_vector(cfg_small)
    x = _x_field(cfg_small)
    v.coeffs[0] = x.coeffs
    r = js_tables_r(cfg_small)
    v.coeffs[1, cfg_small.n_z, cfg_small.n_theta + 1, :] = 0.5j * r
    v.coeffs[1, cfg_small.n_z, cfg_small.n_theta - 1, :] = -0.5j * r
    e = _sym_entry_fields(v)
    two = constant_scalar(cfg_small, 2.0)
    assert js.norm_L2(e[(0, 0)] - two) < 1e-12
    assert js.norm_L2(e[(1, 1)] + two) < 1e-12
    for key in ((0, 1), (0, 2), (1, 2), (2, 2)):
        assert js.norm_L2(e[key]) < 1e-12


def test_disk_inner_matches_three_operand_einsum(cfg_small):
    # the order-0 form is ell times the disk inner products of every slice
    gram = tables_for(cfg_small).stacks(-cfg_small.n_theta, cfg_small.n_theta).gram
    rng = stream(4, "tests")
    u = random_smooth_vector(cfg_small, rng, real=False)
    v = random_smooth_vector(cfg_small, rng, real=False)
    for a, b in zip(u.coeffs, v.coeffs):
        fa, fb = ScalarField(cfg_small, a, False), ScalarField(cfg_small, b, False)
        for x, y in ((fa, fb), (fa, fa)):
            got = js.inner_product_Hkp(x, y, 0)
            want = cfg_small.ell * oracles.disk_inner_einsum(gram, x.coeffs, y.coeffs).sum()
            assert abs(got - want) <= 1e-14 * abs(want)


# largest |new - chain| / (|u|_k |v|_k) seen with these draws: 1.2e-13 at
# k <= 2, 4.0e-12 at k = 3 and 2.6e-11 at k = 4, all on the scalar field at
# 32/8/2 (cross products alone: 2.5e-14, 2.0e-12 and 2.6e-11)
@pytest.mark.parametrize("grid", [(12, 3, 2), (24, 6, 4), (32, 8, 2)], ids=lambda g: "%d/%d/%d" % g)
def test_inner_product_matches_the_chain_oracle(grid):
    cfg = js.DomainConfig(n_r=grid[0], n_theta=grid[1], n_z=grid[2])
    rng = stream(6, "tests")
    for draw in (random_smooth_scalar, random_smooth_vector):
        u = draw(cfg, rng, real=False)
        v = draw(cfg, rng, real=False)
        for k in range(5):
            bound = 1e-12 if k <= 2 else 1e-9
            nu = math.sqrt(oracles.chain_inner_Hkp(u, u, k).real)
            nv = math.sqrt(oracles.chain_inner_Hkp(v, v, k).real)
            for a, b, scale in ((u, u, nu * nu), (u, v, nu * nv), (v, u, nu * nv)):
                err = abs(js.inner_product_Hkp(a, b, k) - oracles.chain_inner_Hkp(a, b, k))
                assert err <= bound * scale, (draw.__name__, k, err / scale)


@pytest.mark.parametrize("k", range(3))
def test_inner_product_is_bitwise_the_per_order_formula(k):
    # one channels-first copy per field, scaled per order, gives the very
    # values of one scaled transpose per order
    cfg = js.DomainConfig(n_r=24, n_theta=6, n_z=4)
    rng = stream(8, "tests")
    for real in (True, False):
        u = random_smooth_vector(cfg, rng, real=real)
        v = random_smooth_vector(cfg, rng, real=real)
        for a, b in ((u, u), (u, v), (v, u)):
            assert js.inner_product_Hkp(a, b, k) == oracles.inner_product_Hkp_per_order(a, b, k)


def _nodal_draw(cfg, rng, pole_regular):
    """Random complex nodal profiles on every (component, n, m), optionally made pole-regular.

    The projection maps each channel's profiles onto the span of
    zernike(|m|), orthogonally in the disk Gram of their parity.
    """
    t = tables_for(cfg)
    shape = (3, cfg.n_modes_z, cfg.n_modes_theta, cfg.n_r)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if pole_regular:
        for im, m in enumerate(range(-cfg.n_theta, cfg.n_theta + 1)):
            z = t.zernike(abs(m))
            c[..., im, :] = c[..., im, :] @ t.gram(1 if m % 2 == 0 else -1) @ z @ z.T
    return js.VectorField(cfg, c)


# largest |words - 2^j words| / (|u|_k |v|_k) seen with these draws: 0 at
# k <= 1 (the same stacks), 2.0e-15 at k = 2, 1.5e-13 at k = 3 and 2.6e-12
# at k = 4; on raw nodal data 1.1e-5, 1.1e-5 and 1.0e-4 at k = 2, 3 and 4
@pytest.mark.parametrize("k", range(5))
def test_commuting_words_match_all_words_on_pole_regular_fields(ws_wide, k):
    # U and D commute on the pole-regular span, so the j + 1 words of
    # order j, weighted binomially, give the 2^j-word form of the full
    # derivative tensor there
    cfg = ws_wide.config
    rng = stream(12, "tests")
    every = oracles.word_stacks_all(tables_for(cfg), cfg.n_theta, k)
    draws = [
        (random_smooth_scalar(cfg, rng, real=False), random_smooth_scalar(cfg, rng, real=False)),
        (random_smooth_vector(cfg, rng, margin_m=0, margin_deg=0), random_smooth_vector(cfg, rng)),
        (random_constrained_vector(ws_wide, rng), random_constrained_vector(ws_wide, rng)),
        (_nodal_draw(cfg, rng, True), _nodal_draw(cfg, rng, True)),
    ]
    bound = 1e-13 if k <= 2 else 1e-11
    for u, v in draws:
        nu = math.sqrt(oracles.inner_product_Hkp_per_order(u, u, k, every).real)
        nv = math.sqrt(oracles.inner_product_Hkp_per_order(v, v, k, every).real)
        for a, b, scale in ((u, u, nu * nu), (u, v, nu * nv), (v, u, nu * nv)):
            want = oracles.inner_product_Hkp_per_order(a, b, k, every)
            err = abs(js.inner_product_Hkp(a, b, k) - want)
            assert err <= bound * scale, (k, err / scale)
    # off the pole-regular span the two forms part from order 2 on: H^k_p
    # is the full derivative tensor on pole-regular fields only
    raw = _nodal_draw(cfg, rng, False)
    want = oracles.inner_product_Hkp_per_order(raw, raw, k, every).real
    err = abs(js.inner_product_Hkp(raw, raw, k).real - want)
    assert err > 1e-7 * want if k >= 2 else err <= 1e-13 * want


@pytest.mark.parametrize("k", range(3))
def test_one_word_pass_gives_the_norms_and_the_increments(k):
    # on the fields' own path the forms are bitwise inner_product_Hkp;
    # with one field complex every pass reads all slices, and the forms and
    # increments agree with the field-level ones to roundoff
    cfg = js.DomainConfig(n_r=24, n_theta=6, n_z=4)
    rng = stream(9, "tests")
    for real in (True, False):
        us = [random_smooth_vector(cfg, rng, real=real) for _ in range(3)]
        for mixed in (False, True):
            if mixed:
                us[1] = js.VectorField(cfg, us[1].coeffs.copy())
            got = list(_norms_and_increments(us, k))
            assert len(got) == 2
            for (form, increment), u, prev in zip(got, us[1:], us):
                want = js.inner_product_Hkp(u, u, k).real
                if mixed and real:
                    assert abs(form - want) <= 1e-13 * want
                else:
                    assert form == want
                want = norm_L2(u - prev) ** 2
                assert abs(increment - want) <= 1e-13 * want


def test_word_pass_leaves_a_channels_last_field_intact(cfg_small):
    # the last order scales the channels-first copy in place; a field
    # stored channels-last, as the Dirichlet solves return theirs, is that
    # copy itself and must come back unchanged
    base = random_smooth_vector(cfg_small, stream(11, "tests"), real=False)
    lead = (3, cfg_small.n_modes_z)
    f = js.VectorField(cfg_small, _channels_last(_channels_first(base.coeffs), lead))
    assert np.may_share_memory(_channels_first(f.coeffs), f.coeffs)
    before = f.coeffs.copy()
    for k in range(3):
        assert js.norm_Hkp(f, k) == js.norm_Hkp(base, k)
    assert np.array_equal(f.coeffs, before)


# grad keeps the stored band, so the band-edge channels +-n_theta, which
# margin_m=0 populates, are where the truncation shows
@pytest.mark.parametrize("grid", [(12, 3, 2), (10, 4, 0)], ids=lambda g: "%d/%d/%d" % g)
@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_grad_norm_sq_is_the_norm_of_the_truncated_gradient(grid, real):
    cfg = js.DomainConfig(n_r=grid[0], n_theta=grid[1], n_z=grid[2])
    q = random_smooth_scalar(cfg, stream(10, "tests"), margin_m=0, margin_deg=0, real=real)
    assert np.all(np.abs(q.coeffs[..., [0, -1], :]).max(axis=(1, 2)) > 0.0)
    want = norm_L2(grad(q)) ** 2
    assert abs(_grad_norm_sq(q) - want) <= 1e-13 * want
    # the untruncated gradient, |q|_{H^1}^2 - |q|_{L^2}^2, differs visibly
    untruncated = js.norm_Hkp(q, 1) ** 2 - norm_L2(q) ** 2
    assert abs(untruncated - want) > 1e-6 * want


def test_word_stacks_are_built_once_per_band_and_order(cfg_small, monkeypatch):
    fresh = RadialTables(cfg_small.kappa, cfg_small.n_r)
    assert fresh._orders == {}
    first = fresh.sobolev_words(cfg_small.n_theta, 2)
    assert all(a is b for a, b in zip(fresh.sobolev_words(cfg_small.n_theta, 2), first))
    assert list(fresh._orders) == [(cfg_small.n_theta, j) for j in range(3)]
    assert [o.shape[0] for o in first] == [1, 2, 3]
    # the inner product reads the shared instance's entries and builds no more
    u = random_smooth_vector(cfg_small, stream(7, "tests"))
    want = js.norm_Hkp(u, 2)
    t = tables_for(cfg_small)
    kept = t.sobolev_words(cfg_small.n_theta, 2)

    def refuse(band, j):
        raise AssertionError("word order (%d, %d) rebuilt" % (band, j))

    monkeypatch.setattr(t, "_word_order", refuse)
    assert js.norm_Hkp(u, 2) == want
    assert all(a is b for a, b in zip(t.sobolev_words(cfg_small.n_theta, 2), kept))
    # a lower order count shares the entries (the gradient norm reads k = 1)
    for k in (0, 1):
        assert all(a is b for a, b in zip(t.sobolev_words(cfg_small.n_theta, k), kept))


@pytest.mark.parametrize("k", range(5))
def test_norm_shares_one_derivative_chain(cfg_small, k):
    # u is u takes one sum of squares per order, a copy one complex dot product
    u = random_smooth_vector(cfg_small, stream(5, "tests"), real=False)
    same = js.inner_product_Hkp(u, u, k)
    apart = js.inner_product_Hkp(u, u.copy(), k)
    assert abs(same - apart) <= 1e-13 * abs(apart)


def test_inner_product_structure(cfg_small):
    rng = stream(3, "tests")
    u = random_smooth_vector(cfg_small, rng, real=False)
    v = random_smooth_vector(cfg_small, rng, real=False)
    w = random_smooth_vector(cfg_small, rng, real=False)
    a = js.inner_product_Hkp(u, v, 0)
    b = js.inner_product_Hkp(v, u, 0)
    assert a == pytest.approx(np.conj(b), rel=1e-12)
    lin = js.inner_product_Hkp(u + w * (0.3 + 0.1j), v, 0)
    sep = js.inner_product_Hkp(u, v, 0) + (0.3 + 0.1j) * js.inner_product_Hkp(w, v, 0)
    assert lin == pytest.approx(sep, rel=1e-11)
    n0 = js.norm_Hkp(u, 0)
    n1 = js.norm_Hkp(u, 1)
    n2 = js.norm_Hkp(u, 2)
    assert n0 <= n1 <= n2


def test_sobolev_order_validation(cfg_small):
    u = constant_scalar(cfg_small, 1.0)
    with pytest.raises(ValueError):
        js.norm_Hkp(u, 5)
    with pytest.raises(ValueError):
        js.norm_Hkp(u, -1)


def test_trace_closed_form(cfg_small):
    r = js_tables_r(cfg_small)
    u = scalar_from_profile(cfg_small, 0, 0, r**2, real_flag=True)
    tr = js.trace_SF(u)
    want = np.zeros_like(tr.coeffs)
    want[cfg_small.n_z, cfg_small.n_theta] = cfg_small.kappa**2
    assert np.allclose(tr.coeffs, want, atol=1e-15)
    got = trace_norm_L2(tr)
    want_norm = math.sqrt(
        cfg_small.kappa * 2.0 * math.pi * cfg_small.ell * cfg_small.kappa**4
    )
    assert got == pytest.approx(want_norm, rel=1e-13)


def test_random_fields_are_normalized(cfg_small):
    u = random_smooth_vector(cfg_small, stream(2, "tests"))
    assert js.norm_L2(u) == pytest.approx(1.0, rel=1e-12)
    s = random_smooth_scalar(cfg_small, stream(2, "tests"))
    assert js.norm_L2(s) == pytest.approx(1.0, rel=1e-12)


def test_zero_trace_potential_has_exact_zero_trace(cfg_small):
    q = random_zero_trace_potential(cfg_small, stream(4, "tests"))
    tr = js.trace_SF(q)
    assert np.all(tr.coeffs == 0.0)
    assert js.norm_L2(q) > 0.0


def test_field_shape_validation(cfg_small):
    with pytest.raises(ValueError, match="shape"):
        js.ScalarField(cfg_small, np.zeros((2, 2, 2), dtype=complex))
    with pytest.raises(ValueError, match="shape"):
        js.VectorField(cfg_small, np.zeros((2, 2, 2, 2), dtype=complex))


def test_real_draw_is_the_mirror_average_of_the_complex_draw(cfg_small):
    # a real draw averages the complex draw of the same seed with its
    # mirror conj(c[-n, -m]), bit for bit
    for seed in (40, 41):
        c = _draw_smooth_coeffs(cfg_small, stream(seed, "tests"), 2, 2, False)
        got = _draw_smooth_coeffs(cfg_small, stream(seed, "tests"), 2, 2, True)
        assert np.array_equal(got, 0.5 * (c + np.conj(c[::-1, ::-1])))


def test_one_draw_per_component_reads_the_per_slice_normals():
    # the same normals in the same stream order as the per-(n, m) loop;
    # only the products' summation order differs
    cfg = js.DomainConfig(n_r=16, n_theta=5, n_z=3)
    for margin_m, margin_deg in ((2, 2), (0, 0), (3, 5), (9, 0)):
        want_rng, got_rng = stream(42, "tests"), stream(42, "tests")
        want = oracles.smooth_coeffs_per_slice(cfg, want_rng, margin_m, margin_deg)
        got = _draw_smooth_coeffs(cfg, got_rng, margin_m, margin_deg, False)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        assert got_rng.standard_normal() == want_rng.standard_normal()


def test_real_flag_defaults_to_false(cfg_small):
    shape = (cfg_small.n_modes_z, cfg_small.n_modes_theta, cfg_small.n_r)
    fields = (
        js.ScalarField(cfg_small, np.ones(shape, dtype=complex)),
        js.VectorField(cfg_small, np.ones((3,) + shape, dtype=complex)),
        zeros_scalar(cfg_small),
        zeros_vector(cfg_small),
    )
    assert not any(f.real_flag for f in fields)


def test_constructors_check_a_real_flag(cfg_small):
    u = random_smooth_vector(cfg_small, stream(5, "tests"))
    s = random_smooth_scalar(cfg_small, stream(5, "tests"))
    assert js.VectorField(cfg_small, u.coeffs, True).real_flag
    assert js.ScalarField(cfg_small, s.coeffs, real_flag=True).real_flag
    c = random_smooth_vector(cfg_small, stream(6, "tests"), real=False)
    with pytest.raises(ValueError, match="not Hermitian"):
        js.VectorField(cfg_small, c.coeffs, True)
    with pytest.raises(ValueError, match="not Hermitian"):
        js.ScalarField(cfg_small, c.coeffs[0], real_flag=True)
    # one coefficient off its mirror is enough
    bad = u.coeffs.copy()
    bad[0, cfg_small.n_z + 1, cfg_small.n_theta, 0] += 1e-6
    with pytest.raises(ValueError, match="not Hermitian"):
        js.VectorField(cfg_small, bad, True)


def test_scalar_from_profile_rejects_a_false_real_flag(cfg_small):
    r = tables_for(cfg_small).r
    for n, m in ((1, 0), (0, 1), (-1, 2)):
        with pytest.raises(ValueError, match="not real"):
            scalar_from_profile(cfg_small, n, m, r, real_flag=True)
        assert not scalar_from_profile(cfg_small, n, m, r).real_flag
    with pytest.raises(ValueError, match="real profile"):
        scalar_from_profile(cfg_small, 0, 0, (1.0 + 1j) * r, real_flag=True)
    assert scalar_from_profile(cfg_small, 0, 0, r + 0j, real_flag=True).real_flag


# each kind's constant field of amplitude a, and the other kind
_KINDS = {
    "scalar": (constant_scalar, "vector"),
    "vector": (lambda cfg, a: constant_vector(cfg, (a, 2.0 * a, -a)), "scalar"),
}


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_field_arithmetic(cfg_small, kind):
    make, other = _KINDS[kind]
    u = make(cfg_small, 1.0)
    v = make(cfg_small, 2.0)
    assert js.norm_L2((u + v) - make(cfg_small, 3.0)) == 0.0
    assert js.norm_L2((v - u) - u) == 0.0
    assert js.norm_L2(2.0 * u - v) == 0.0
    assert js.norm_L2(u * 2.0 - v) == 0.0
    assert js.norm_L2(-u + u) == 0.0
    # results keep their kind; they are real exactly when every operand is
    c = 1j * u
    real = (u + v, v - u, 2.0 * u, -u, u.copy())
    complex_ = (c, u * 1j, c + u, u - c, -c, 2.0 * c, c.copy())
    for results, flag in ((real, True), (complex_, False)):
        for w in results:
            assert type(w) is type(u)
            assert w.real_flag is flag
    # a copy shares no memory with the original
    w = u.copy()
    assert np.array_equal(w.coeffs, u.coeffs)
    assert not np.shares_memory(w.coeffs, u.coeffs)
    w.coeffs[...] = 0.0
    assert js.norm_L2(u) > 0.0
    if kind == "vector":
        for i, part in enumerate((u.x, u.y, u.z)):
            assert isinstance(part, ScalarField)
            assert np.shares_memory(part.coeffs, u.coeffs[i])
    # mixing kinds or configs fails from either operand
    coarse = js.DomainConfig(n_r=10, n_theta=3, n_z=2)
    for foreign in (_KINDS[other][0](cfg_small, 1.0), make(coarse, 1.0)):
        for a, b in ((u, foreign), (foreign, u)):
            with pytest.raises(ValueError, match="mismatch"):
                a + b
            with pytest.raises(ValueError, match="mismatch"):
                a - b
