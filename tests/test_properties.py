"""Sector invariants over randomized small configurations.

Hypothesis draws kappa, ell, mu, n_r and n_theta (derandomized, so every
run sees the same draws) and each test checks one structural fact of the
sector layout on modes 0 and 1:

- the projection P = expand o reduce of whole fields (modes 0 and +-1)
  commutes with the mirror theta -> -theta, u_y -> -u_y;
- P is idempotent and self-adjoint in L^2;
- a mirrored sector's columns, read through the mirror, have their
  source's pencil, hence its eigenvalues;
- every sector pencil is Hermitian, with M positive definite and G
  positive semidefinite;
- the kernel has dimension 4 at n = 0 and is empty at n = 1;
- every built sector's constraint rows are a phase times a real row, and
  the cached r0 + beta r1 is that row;
- each sector's helical dissipation factor, on random real coordinates
  at random beta, gives the G of the Cartesian strain entries;
- the resolvent obeys the sector bound ||v|| <= sqrt(2) ||g|| / |lam|
  for lam with |Im lam| > Re lam, and its reported residual bound holds
  against the pencil rebuilt from the stacks (n_r 8 to 16);
- the polar surface stresses of random slices, on the symmetric band or
  on a sector window, at random beta, are the e_theta and e_z components
  of the Cartesian tangential traction oracle, and Q's datum is minus its
  normal component.

Two more tests draw n_z too. With n_r 8 to 16 and n_z 0 to 3, every mode
stacks into one whole-field operator, and the whole-field reduce and
expand match the per-sector complex path of every mode n = -n_z..n_z.
With n_theta 2 to 5 and n_z 0 to 2, every built sector of every mode has
the counted dimension K_j and L^2-orthonormal columns, and the nodal
divergence and tangential traction of its fields vanish. And the Sobolev inner product is checked on
random fields: Hermitian symmetry, a real nonnegative (u, u), norms that
grow with the order, agreement with the derivative-chain oracle, norms
that a rotation about the axis leaves unchanged, and bounds by the
multi-index-once form: once <= (u, u)_{H^k_p} <= C(k, k // 2) once.

The last test draws random symmetric-definite pencils (size K <= 40,
cond(M) <= 1e6) and checks the Cholesky reduction of the sector pencil
eigh: ascending eigenvalues, small residuals and M-orthonormal
eigenvectors, each within 10 K eps cond(M) of exact.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import jetstokes as js
import oracles
from jetstokes.fields import _div_slice, random_smooth_scalar, random_smooth_vector
from jetstokes.rng import stream
from jetstokes.evolution import SCHEMES
from jetstokes.helmholtz import _surface_stresses
from jetstokes.spectral import KERNEL_TOL, _pencil_solve
from jetstokes.stokesop import (
    _apply_weight,
    _dissipation_factor,
    _sector_fields,
    _sector_window,
    _unit_weight,
    build_constrained_basis,
    expand_slice,
    field_operator,
    reduce_slice,
)

CONFIGS = st.builds(
    lambda kappa, ell, mu, n_r, n_theta: js.DomainConfig(
        kappa=kappa, ell=ell, mu=mu, n_r=n_r, n_theta=n_theta, n_z=1
    ),
    st.floats(0.1, 0.95),
    st.floats(1.0, 20.0),
    st.floats(0.1, 10.0),
    st.integers(6, 16),
    st.integers(2, 4),
)
FACTOR_CONFIGS = st.builds(
    lambda kappa, ell, mu, n_r, n_theta: js.DomainConfig(
        kappa=kappa, ell=ell, mu=mu, n_r=n_r, n_theta=n_theta, n_z=1
    ),
    st.floats(0.1, 0.95),
    st.floats(1.0, 20.0),
    st.floats(0.1, 10.0),
    st.integers(8, 16),
    st.integers(2, 4),
)
# |lam| e^{i phi} with phi in (pi/4, 7 pi/4): |Im lam| > Re lam
BOUND_CONFIGS = st.builds(
    lambda kappa, ell, mu, n_r, n_theta: js.DomainConfig(
        kappa=kappa, ell=ell, mu=mu, n_r=n_r, n_theta=n_theta, n_z=1
    ),
    st.floats(0.1, 0.95),
    st.floats(1.0, 20.0),
    st.floats(0.1, 10.0),
    st.integers(8, 16),
    st.integers(2, 4),
)
LAMBDAS = st.builds(
    lambda r, phi: r * cmath.exp(1j * phi),
    st.floats(0.1, 100.0),
    st.floats(math.pi / 4 + 0.01, 7 * math.pi / 4 - 0.01),
)
SOBOLEV_CONFIGS = st.builds(
    lambda kappa, ell, n_r, n_theta, n_z: js.DomainConfig(
        kappa=kappa, ell=ell, n_r=n_r, n_theta=n_theta, n_z=n_z
    ),
    st.floats(0.1, 0.95),
    st.floats(1.0, 20.0),
    st.integers(6, 16),
    st.integers(2, 4),
    st.integers(0, 2),
)
STACK_CONFIGS = st.builds(
    lambda kappa, ell, mu, n_r, n_theta, n_z: js.DomainConfig(
        kappa=kappa, ell=ell, mu=mu, n_r=n_r, n_theta=n_theta, n_z=n_z
    ),
    st.floats(0.1, 0.95),
    st.floats(1.0, 20.0),
    st.floats(0.1, 10.0),
    st.integers(8, 16),
    st.integers(2, 4),
    st.integers(0, 3),
)
SECTOR_CONFIGS = st.builds(
    lambda kappa, ell, mu, n_r, n_theta, n_z: js.DomainConfig(
        kappa=kappa, ell=ell, mu=mu, n_r=n_r, n_theta=n_theta, n_z=n_z
    ),
    st.floats(0.1, 0.95),
    st.floats(1.0, 20.0),
    st.floats(0.1, 10.0),
    st.integers(6, 16),
    st.integers(2, 5),
    st.integers(0, 2),
)
PROPERTY = settings(derandomize=True, max_examples=10, deadline=None)


def _mirror_field(cfg, arr):
    """The mirror image of every axial slice of a field arr (3, n_modes_z, n_m, n_r)."""
    slices = [arr[:, i] for i in range(cfg.n_modes_z)]
    return np.stack([oracles.mirror_rows(cfg, s.reshape(-1)).reshape(s.shape) for s in slices], axis=1)


def _project(ws, arr):
    return expand_slice(ws, reduce_slice(ws, arr))


@PROPERTY
@given(CONFIGS)
def test_projection_commutes_with_the_mirror(cfg):
    ws = js.Workspace(cfg)
    rng = stream(81, "tests")
    shape = (3, cfg.n_modes_z, cfg.n_modes_theta, cfg.n_r)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    pg = _project(ws, g)
    err = np.linalg.norm(_project(ws, _mirror_field(cfg, g)) - _mirror_field(cfg, pg))
    assert err <= 1e-12 * np.linalg.norm(pg)


@PROPERTY
@given(CONFIGS)
def test_projection_is_idempotent_and_self_adjoint(cfg):
    ws = js.Workspace(cfg)
    rng = stream(83, "tests")
    shape = (2, 3, cfg.n_modes_z, cfg.n_modes_theta, cfg.n_r)
    u, v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def inner(a, b):
        return np.vdot(b, _apply_weight(ws.tables, cfg.ell, a))

    pu, pv = _project(ws, u), _project(ws, v)
    assert np.linalg.norm(_project(ws, pu) - pu) <= 1e-12 * np.linalg.norm(pu)
    scale = math.sqrt(inner(u, u).real * inner(v, v).real)
    assert abs(inner(pu, v) - inner(u, pv)) <= 1e-12 * scale


@PROPERTY
@given(CONFIGS)
def test_mirrored_sectors_carry_their_source_pencil(cfg):
    ws = js.Workspace(cfg)
    for n in (0, 1):
        op = js.mode_operator(ws, n)
        for p in oracles.sector_parts(op):
            if not p.mirrored:
                continue
            m, g = oracles.pencil_all_channels(ws, n, oracles.sector_columns(op, p.index))
            assert np.max(np.abs(m - p.M)) <= 1e-12 * np.max(np.abs(m))
            assert np.max(np.abs(g - p.G)) <= 1e-12 * np.max(np.abs(g))
            # the mirror half of the stack entry repeats its source's eigenvalues
            assert np.array_equal(op.w[p.index], op.w[p.index - 1])


@PROPERTY
@given(CONFIGS)
def test_sector_pencils_are_hermitian_psd(cfg):
    ws = js.Workspace(cfg)
    for n in (0, 1):
        for p in oracles.sector_parts(js.mode_operator(ws, n)):
            assert np.array_equal(p.M, p.M.conj().T)
            assert np.array_equal(p.G, p.G.conj().T)
            assert np.min(np.linalg.eigvalsh(p.M)) > 0.0
            assert np.min(np.linalg.eigvalsh(p.G)) >= -1e-12 * np.max(np.abs(p.G))


@PROPERTY
@given(CONFIGS)
def test_kernel_is_four_dimensional_at_mode_0_only(cfg):
    ws = js.Workspace(cfg)
    assert js.kernel_dimension(ws) == 4
    w = js.mode_operator(ws, 1).eigen[0]
    assert np.sum(np.abs(w) < KERNEL_TOL * np.max(np.abs(w))) == 0


@PROPERTY
@given(CONFIGS)
def test_sector_rows_are_real_up_to_a_phase(cfg):
    ws = js.Workspace(cfg)
    with pytest.raises(ValueError, match="j = %d is not complete" % cfg.n_theta):
        oracles.row_phase_defects(ws, 0, cfg.n_theta)
    for n in (0, 1):
        for j in range(cfg.n_theta):
            imag, split = oracles.row_phase_defects(ws, n, j)
            assert imag <= 1e-14 and split <= 1e-14


@PROPERTY
@given(SECTOR_CONFIGS)
def test_sector_bases_are_counted_orthonormal_and_constrained(cfg):
    # the nodal divergence and the tangential traction of the synthesized
    # fields check the Galerkin rows independently of their projection
    ws = js.Workspace(cfg)
    t = ws.tables
    for n in range(cfg.n_z + 1):
        beta = cfg.beta(n)
        for j in range(cfg.n_theta):
            z, info = build_constrained_basis(ws, n, j)
            assert info["dim"] == z.shape[1] == oracles.sector_dimension(cfg.n_r, n, j)
            gram = z.T @ _unit_weight(t, cfg, j, z)
            assert np.max(np.abs(gram - np.eye(z.shape[1]))) <= 1e-12
            f = _sector_fields(cfg, j, z)
            size = np.linalg.norm(f.reshape(f.shape[0], -1), axis=1)
            div = _div_slice(t, f, beta, j - 1).reshape(f.shape[0], -1)
            tau = _surface_stresses(t, cfg.mu, f, beta, j - 1)[:, 1:].reshape(f.shape[0], -1)
            assert np.max(np.linalg.norm(div, axis=1) / size) <= 1e-9, (n, j)
            assert np.max(np.linalg.norm(tau, axis=1) / size) <= 1e-9, (n, j)


@PROPERTY
@given(FACTOR_CONFIGS, st.floats(-20.0, 20.0))
def test_helical_factor_gives_the_cartesian_dissipation_form(cfg, beta):
    ws = js.Workspace(cfg)
    rng = stream(62, "tests")
    for j in range(cfg.n_theta):
        z = rng.standard_normal((3 * cfg.n_r, 7))
        f = _dissipation_factor(ws.tables, cfg, j, z, beta)
        want = oracles.cartesian_dissipation_factor(ws, j, z, beta)
        g, g_want = f @ f.T, want @ want.T
        assert np.linalg.norm(g - g_want) <= 1e-13 * np.linalg.norm(g_want)


@PROPERTY
@given(CONFIGS, LAMBDAS)
def test_resolvent_obeys_the_sector_bound(cfg, lam):
    ws = js.Workspace(cfg)
    g = random_smooth_vector(cfg, stream(82, "tests"), real=False)
    v, info = js.resolve(ws, lam, g)
    assert info["max_rel_residual"] < 1e-8
    assert js.norm_L2(v) <= (1.0 + 1e-10) * math.sqrt(2.0) * js.norm_L2(g) / abs(lam)


@PROPERTY
@given(BOUND_CONFIGS, LAMBDAS)
def test_resolve_residual_bound_holds(cfg, lam):
    ws = js.Workspace(cfg)
    r = reduce_slice(ws, random_smooth_vector(cfg, stream(85, "tests"), real=False).coeffs)
    y, bound = _pencil_solve(ws, lam, r)
    assert np.all(oracles.pencil_residuals(ws, lam, r, y) <= bound)


@PROPERTY
@given(CONFIGS, LAMBDAS)
def test_packed_padding_stays_zero_and_every_entry_finite(cfg, lam):
    # a padding eigenvalue of +inf would turn Crank-Nicolson's keep factor
    # into -inf and its zero coordinate into NaN; 0 keeps both factors 1
    ws = js.Workspace(cfg)
    rng = stream(84, "tests")
    g = random_smooth_vector(cfg, rng, real=False)
    ops = {n: js.mode_operator(ws, abs(n)) for n in range(-cfg.n_z, cfg.n_z + 1)}
    live = {n: (oracles.ascending_rank(op) >= 0).astype(complex) for n, op in ops.items()}
    pad = oracles.field_coords(ws, live) == 0.0
    r = reduce_slice(ws, g.coeffs)
    y, rel = _pencil_solve(ws, lam, r)
    for c in (r, y):
        assert np.all(np.isfinite(c)) and not np.any(c[pad])
    assert np.all(np.isfinite(rel))
    assert np.all(np.isfinite(expand_slice(ws, y)))
    # a rough initial state: unit-size coordinates on every live entry
    c0 = {
        n: oracles.packed(op, rng.standard_normal(op.order.size) + 1j * rng.standard_normal(op.order.size))
        for n, op in ops.items()
    }
    u = js.VectorField(cfg, expand_slice(ws, oracles.field_coords(ws, c0)), False)
    for scheme in SCHEMES:
        evo = js.EvolutionConfig(
            t_final=0.03, dt=0.01, scheme=scheme, initial=u, forcing=lambda t: g * math.sin(t)
        )
        res = js.evolve(ws, evo)
        assert np.all(np.isfinite(res.coords)) and not np.any(res.coords[pad])
        assert all(np.all(np.isfinite(f.coeffs)) for f in res.fields)
        assert np.all(np.isfinite(res.trace.l2_norm_sq)) and np.all(np.isfinite(res.trace.residual))


@PROPERTY
@given(STACK_CONFIGS)
def test_every_mode_stacks_and_the_whole_field_maps_match_the_per_sector_path(cfg):
    ws = js.Workspace(cfg)
    fop = field_operator(ws)
    assert fop.Z.shape[0] == cfg.n_z + 1
    rng = stream(86, "tests")
    shape = (3, cfg.n_modes_z, cfg.n_modes_theta, cfg.n_r)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    r = reduce_slice(ws, g)
    c = rng.standard_normal(r.shape) + 1j * rng.standard_normal(r.shape)
    v = expand_slice(ws, c)
    got_r, got_c = oracles.mode_coords(ws, r), oracles.mode_coords(ws, c)
    for n in range(-cfg.n_z, cfg.n_z + 1):
        ref = oracles.PerSectorMaps(ws, n)
        want = ref.reduce(g[:, cfg.n_z + n])
        assert np.linalg.norm(got_r[n] - want) <= 1e-13 * np.linalg.norm(want)
        want = ref.expand(got_c[n])
        assert np.linalg.norm(v[:, cfg.n_z + n] - want) <= 1e-13 * np.linalg.norm(want)


@PROPERTY
@given(SOBOLEV_CONFIGS, st.booleans())
def test_sobolev_inner_product_is_a_graded_hermitian_form(cfg, vector):
    draw = random_smooth_vector if vector else random_smooth_scalar
    rng = stream(84, "tests")
    u = draw(cfg, rng, real=False)
    v = draw(cfg, rng, real=False)
    norms = []
    for k in range(3):
        uu = js.inner_product_Hkp(u, u, k)
        nu = math.sqrt(uu.real)
        nv = js.norm_Hkp(v, k)
        uv = js.inner_product_Hkp(u, v, k)
        assert uu.imag == 0.0 and uu.real >= 0.0
        assert abs(uv - np.conj(js.inner_product_Hkp(v, u, k))) <= 1e-13 * nu * nv
        assert abs(uu - oracles.chain_inner_Hkp(u, u, k)) <= 1e-12 * nu * nu
        assert abs(uv - oracles.chain_inner_Hkp(u, v, k)) <= 1e-12 * nu * nv
        norms.append(nu)
    assert norms[0] <= norms[1] <= norms[2]


def _rotated(f, phi):
    """f rotated by phi about the axis: c_m -> e^(-i m phi) c_m, and R(phi) on (x, y)."""
    cfg = f.config
    m = np.arange(-cfg.n_theta, cfg.n_theta + 1)
    c = f.coeffs * np.exp(-1j * m * phi)[:, None]
    if f.coeffs.ndim == 4:
        x, y = c[0].copy(), c[1].copy()
        c[0] = math.cos(phi) * x - math.sin(phi) * y
        c[1] = math.sin(phi) * x + math.cos(phi) * y
    return type(f)(cfg, c, f.real_flag)


@PROPERTY
@given(SOBOLEV_CONFIGS, st.booleans(), st.booleans(), st.floats(-math.pi, math.pi))
def test_sobolev_norms_are_invariant_under_rotations_about_the_axis(cfg, vector, real, phi):
    draw = random_smooth_vector if vector else random_smooth_scalar
    u = draw(cfg, stream(87, "tests"), real=real)
    v = _rotated(u, phi)
    for k in range(5):
        # at k >= 3 the form amplifies roundoff in the rotated coefficients:
        # at n_r 16 a relative 1.1e-16 perturbation of c moves the H^4 norm
        # by up to 8.8e-13, and rotations moved it by up to 7.2e-13
        bound = 1e-13 if k <= 2 else 1e-11
        want = js.norm_Hkp(u, k)
        assert abs(js.norm_Hkp(v, k) - want) <= bound * want, k


@PROPERTY
@given(SOBOLEV_CONFIGS, st.booleans())
def test_sobolev_form_is_equivalent_to_the_multi_index_once_form(cfg, vector):
    # order j weighs d_x^(j-p) d_y^p by C(j, p) in [1, C(k, k // 2)]
    draw = random_smooth_vector if vector else random_smooth_scalar
    u = draw(cfg, stream(88, "tests"), real=False)
    for k in range(5):
        uu = js.inner_product_Hkp(u, u, k).real
        once = oracles.chain_inner_Hkp(u, u, k, once=True).real
        assert once * (1.0 - 1e-12) <= uu <= math.comb(k, k // 2) * once * (1.0 + 1e-12), k


@PROPERTY
@given(CONFIGS, st.floats(-20.0, 20.0), st.one_of(st.none(), st.integers(-6, 6)))
def test_polar_surface_stresses_are_the_cartesian_traction(cfg, beta, j):
    # j None: the symmetric band; otherwise the window of sector j, held to
    # the complete sectors, whose low end need not be -band
    t = js.Workspace(cfg).tables
    with pytest.raises(ValueError, match="j = %d is not complete" % -cfg.n_theta):
        _sector_window(cfg, -cfg.n_theta)
    if j is None:
        lo, n_w = None, cfg.n_modes_theta
    else:
        lo, hi = _sector_window(cfg, max(1 - cfg.n_theta, min(j, cfg.n_theta - 1)))
        n_w = hi - lo + 1
    rng = stream(85, "tests")
    shape = (2, 3, n_w, cfg.n_r)
    varr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    # one beta per slice, broadcasting with the slice axes
    betas = np.array([beta, -0.5 * beta])[:, None, None]
    got = _surface_stresses(t, cfg.mu, varr, betas, lo)
    # S = -mu E n: the oracle's traction sits on lo - 2..hi + 2, so its
    # normal component on lo - 3..hi + 3, and its tangential part on
    # lo - 4..hi + 4, so that part's components on lo - 5..hi + 5; the
    # polar traces live on lo - 1..hi + 1 only
    normal = -oracles.polar_components(oracles.cartesian_traction(t, varr, betas, cfg.mu, lo))[0]
    tangential = oracles.cartesian_tangential_traction(t, varr, betas, cfg.mu, lo)
    want = -np.moveaxis(oracles.polar_components(tangential), 0, 1)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(want[:, 0])) <= 1e-13 * scale
    assert np.max(np.abs(want[..., :4])) + np.max(np.abs(want[..., -4:])) <= 1e-13 * scale
    assert np.max(np.abs(got[:, 1:] - want[:, 1:, 4:-4])) <= 1e-13 * scale
    scale = np.max(np.abs(normal))
    assert np.max(np.abs(normal[..., :2])) + np.max(np.abs(normal[..., -2:])) <= 1e-13 * scale
    assert np.max(np.abs(got[:, 0] - normal[..., 2:-2])) <= 1e-13 * scale
    # Q reads the datum alone
    datum = _surface_stresses(t, cfg.mu, varr, lo=lo)
    assert np.array_equal(datum, got[:, 0])


