import numpy as np
import pytest
import scipy.linalg
import scipy.special

import jetstokes as js
from jetstokes.discretization import RadialTables, band_views, tables_for
from jetstokes.fields import (
    constant_scalar,
    random_smooth_scalar,
    random_smooth_vector,
    random_zero_trace_potential,
    scalar_from_profile,
)
from jetstokes import helmholtz, modesolve
from jetstokes.modesolve import dirichlet_residual, laplace_solve_channels
from jetstokes.rng import stream

import oracles


def test_poisson_constant_forcing(ws_small):
    cfg = ws_small.config
    f = constant_scalar(cfg, 1.0)
    u = js.solve_mode_dirichlet(ws_small, 0, f)
    r = ws_small.tables.r
    ref = scalar_from_profile(
        cfg, 0, 0, oracles.poisson_const_profile(r, cfg.kappa), real_flag=True
    )
    assert js.norm_L2(u - ref) / js.norm_L2(ref) < 1e-12
    # and the solve really inverts the laplacian
    back = js.laplacian(u)
    assert js.norm_L2(back - f) / js.norm_L2(f) < 1e-10


def test_bessel_mode_against_series(ws_small):
    cfg = ws_small.config
    beta = cfg.beta(1)
    f = scalar_from_profile(cfg, 1, 0, np.ones(cfg.n_r))
    u = js.solve_mode_dirichlet(ws_small, 1, f)
    ref = scalar_from_profile(
        cfg, 1, 0, oracles.bessel_mode_profile(ws_small.tables.r, cfg.kappa, beta)
    )
    assert js.norm_L2(u - ref) / js.norm_L2(ref) < 1e-11


def test_bessel_mode_against_finite_volume(ws_small):
    cfg = ws_small.config
    beta = cfg.beta(1)
    f = scalar_from_profile(cfg, 1, 0, np.ones(cfg.n_r))
    u = js.solve_mode_dirichlet(ws_small, 1, f)
    got = u.coeffs[cfg.n_z + 1, cfg.n_theta, :].real
    fd = oracles.fd_mode_solve_richardson(
        0, beta, cfg.kappa, lambda r: np.ones_like(r), ws_small.tables.r
    )
    assert np.max(np.abs(got - fd)) < 1e-7


def test_convergence_under_doubling():
    errs = []
    for nr in (8, 16):
        cfg = js.DomainConfig(n_r=nr, n_theta=2, n_z=1)
        ws = js.Workspace(cfg)
        beta = cfg.beta(1)
        f = scalar_from_profile(cfg, 1, 0, np.ones(nr))
        u = js.solve_mode_dirichlet(ws, 1, f)
        ref = scalar_from_profile(
            cfg, 1, 0, oracles.bessel_mode_profile(ws.tables.r, cfg.kappa, beta)
        )
        errs.append(js.norm_L2(u - ref) / js.norm_L2(ref))
    assert errs[1] < errs[0] / 10.0 or errs[0] < 1e-12


def test_harmonic_extension_closed_forms(ws_small):
    cfg = ws_small.config
    r = ws_small.tables.r
    band = cfg.n_theta

    def trace_with(n, m, value):
        coeffs = np.zeros((cfg.n_modes_z, 2 * band + 1), dtype=complex)
        coeffs[cfg.n_z + n, band + m] = value
        return js.TraceField(cfg, coeffs, band)

    # constant boundary data extends to the constant
    u = js.harmonic_extension(ws_small, trace_with(0, 0, 1.0))
    assert js.norm_L2(u - constant_scalar(cfg, 1.0)) < 1e-12

    # azimuthal data r-profile (r/kappa)^|m|
    u = js.harmonic_extension(ws_small, trace_with(0, 1, 1.0))
    ref = scalar_from_profile(cfg, 0, 1, r / cfg.kappa)
    assert js.norm_L2(u - ref) / js.norm_L2(ref) < 1e-12

    # axial data: modified Bessel profile I0(beta r)/I0(beta kappa)
    beta = cfg.beta(1)
    u = js.harmonic_extension(ws_small, trace_with(1, 0, 1.0))
    prof = oracles.bessel_i0(beta * r) / float(oracles.bessel_i0(beta * cfg.kappa))
    ref = scalar_from_profile(cfg, 1, 0, prof)
    assert js.norm_L2(u - ref) / js.norm_L2(ref) < 1e-11


def test_numpy_i0_matches_scipy_on_c01_arguments():
    # verify's c01 reference profile I0(beta r) / I0(beta kappa) uses np.i0;
    # scipy.special.i0 is the independent reference, at every beta r of
    # c01's three default grids and at the surface
    cfg = js.DomainConfig()
    beta = cfg.beta(1)
    for n_r in (32, 64, 128):
        x = beta * np.append(RadialTables(cfg.kappa, n_r).r, cfg.kappa)
        want = scipy.special.i0(x)
        assert np.max(np.abs(np.i0(x) - want) / want) <= 1e-15


def test_solver_linearity(ws_small):
    cfg = ws_small.config
    rng = stream(21, "tests")
    f = random_smooth_scalar(cfg, rng)
    g = random_smooth_scalar(cfg, rng)
    a, b = 0.7, -1.3
    lhs = js.solve_mode_dirichlet(ws_small, 1, f * a + g * b)
    rhs = js.solve_mode_dirichlet(ws_small, 1, f) * a + js.solve_mode_dirichlet(
        ws_small, 1, g
    ) * b
    assert js.norm_L2(lhs - rhs) < 1e-11 * max(js.norm_L2(lhs), 1.0)


def test_maximum_principle(ws_small):
    cfg = ws_small.config
    r = ws_small.tables.r
    f = scalar_from_profile(cfg, 0, 0, -(1.0 + r**2), real_flag=True)
    u = js.solve_mode_dirichlet(ws_small, 0, f)
    prof = u.coeffs[cfg.n_z, cfg.n_theta, :]
    assert np.max(np.abs(prof.imag)) < 1e-13
    assert np.min(prof.real) > -1e-12


def test_mode_laplacian_self_adjoint(ws_small):
    cfg = ws_small.config
    rng = stream(22, "tests")
    u = random_zero_trace_potential(cfg, rng)
    v = random_zero_trace_potential(cfg, rng)
    a = js.inner_product_Hkp(js.laplacian(u), v, 0)
    b = js.inner_product_Hkp(u, js.laplacian(v), 0)
    scale = js.norm_L2(js.laplacian(u)) * js.norm_L2(v)
    assert abs(a - b) / scale < 1e-10


@pytest.mark.parametrize(
    "n_r, n_theta, tol",
    # 128/2 is criterion 01's finest grid, where L has condition about 1e10
    [(24, 6, 1e-13), (128, 2, 1e-12)],
)
def test_channel_solve_matches_dense_solve(n_r, n_theta, tol):
    ws = js.Workspace(js.DomainConfig(n_r=n_r, n_theta=n_theta, n_z=1))
    rng = stream(23, "tests")
    shape = (3, 2 * n_theta + 1)
    for n in (0, 1):
        f = rng.standard_normal(shape + (n_r,)) + 1j * rng.standard_normal(shape + (n_r,))
        bc = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        got = laplace_solve_channels(ws, n, f, bc)
        # the collocation matrices beta^2 - lap with the surface row the identity
        mat = ws.config.beta(n) ** 2 * np.eye(n_r) - ws.tables.stacks(-n_theta, n_theta).lap
        mat[:, 0, :] = 0.0
        mat[:, 0, 0] = 1.0
        b = -f
        b[..., 0] = bc
        want = np.array([[scipy.linalg.solve(m, bm) for m, bm in zip(mat, bk)] for bk in b])
        assert np.linalg.norm(got - want) <= tol * np.linalg.norm(want)


def test_field_layer_stays_off_lu(cfg_small, monkeypatch):
    ws = js.Workspace(cfg_small)

    def refuse(*args, **kwargs):
        raise AssertionError("LU factorization used")

    monkeypatch.setattr(scipy.linalg, "lu_factor", refuse)
    monkeypatch.setattr(scipy.linalg, "lu_solve", refuse)
    g = random_smooth_vector(cfg_small, stream(24, "tests"), real=False)
    evo = js.EvolutionConfig(t_final=0.04, dt=0.02, forcing=lambda t: g * t)
    res = js.evolve(ws, evo)
    forcings = [g * t for t in res.trace.t]
    pressures = [js.recover_pressure(ws, v, f) for v, f in zip(res.fields, forcings)]
    rep = js.estimate_report(ws, res.fields, pressures, forcings, evo.dt, evo.t_final)
    assert np.isfinite(rep["ratio"])
    assert js.project_P(ws, g).residual < 1e-8


def test_dirichlet_residual_and_tolerance(ws_small, monkeypatch):
    cfg = ws_small.config
    f = constant_scalar(cfg, 1.0)
    u = js.solve_mode_dirichlet(ws_small, 0, f)
    assert dirichlet_residual(ws_small, 0, f, u) < modesolve.SOLVER_TOL
    monkeypatch.setattr(modesolve, "SOLVER_TOL", 1e-30)
    with pytest.raises(RuntimeError, match="modesolve"):
        js.solve_mode_dirichlet(ws_small, 0, f)


@pytest.mark.parametrize("n", [-3, 3, 7])
def test_modes_outside_the_band_are_rejected(ws_small, n):
    # n_z = 2: mode -3 would read index -1, which wraps to mode +2
    f = constant_scalar(ws_small.config, 1.0)
    with pytest.raises(ValueError, match="axial mode %d outside" % n):
        js.solve_mode_dirichlet(ws_small, n, f)
    with pytest.raises(ValueError, match="axial mode %d outside" % n):
        dirichlet_residual(ws_small, n, f, f)


def test_stability_constant_closed_form(ws_small):
    cfg = ws_small.config
    f = constant_scalar(cfg, 1.0)
    u = js.solve_mode_dirichlet(ws_small, 0, f)
    ratio = js.norm_Hkp(u, 2) / js.norm_L2(f)
    assert ratio == pytest.approx(
        oracles.stability_ratio_const_forcing(cfg.kappa), rel=1e-11
    )


def test_chebyshev_derivative_exactness(cfg_small):
    t = tables_for(cfg_small)
    r = t.r
    # even polynomial through the even-parity fold
    p = r**4 - 0.3 * r**2
    dp = t.ddr(1) @ p
    assert np.max(np.abs(dp - (4 * r**3 - 0.6 * r))) < 1e-11
    # odd polynomial through the odd-parity fold
    q = r**3
    dq = t.ddr(-1) @ q
    assert np.max(np.abs(dq - 3 * r**2)) < 1e-11


def test_quadrature_gram_against_gauss(cfg_small):
    t = tables_for(cfg_small)
    # int_0^kappa r^2 * r dr for the profile p(r) = r (odd parity)
    p = t.r.astype(complex)
    got = float(np.real(np.conj(p) @ (t.gram(-1) @ p)))
    assert got == pytest.approx(cfg_small.kappa**4 / 4.0, rel=1e-13)
    # int_0^kappa (r^2)^2 * r dr for p(r) = r^2 (even parity)
    p = (t.r**2).astype(complex)
    got = float(np.real(np.conj(p) @ (t.gram(1) @ p)))
    assert got == pytest.approx(cfg_small.kappa**6 / 6.0, rel=1e-13)
    # the closed-form Gram against 2 n_r Gauss-Legendre points reached by
    # barycentric resampling, the reference's own roundoff (measured
    # <= 8.8e-14 of the max)
    for n_r in (12, 24, 48, 64):
        t = RadialTables(cfg_small.kappa, n_r)
        for parity in (1, -1):
            g = t.gram(parity)
            dev = np.max(np.abs(g - oracles.quadrature_gram(t, parity))) / np.max(np.abs(g))
            assert dev <= 5e-13, (n_r, parity, dev)


def test_pole_rows_annihilate_smooth_basis(cfg_small):
    t = tables_for(cfg_small)
    for m_abs in (2, 3, 5):
        rows = t.pole_rows(m_abs)
        if rows.shape[0] == 0:
            continue
        basis = t.smooth_basis(m_abs)
        assert np.max(np.abs(rows @ basis)) < 1e-12


# (n_r, n_theta): every |m| <= n_theta is a piece of some complete sector
ZERNIKE_GRIDS = [(12, 3), (24, 6), (48, 16), (64, 32)]


@pytest.mark.parametrize("n_r, n_theta", ZERNIKE_GRIDS, ids=lambda v: str(v))
def test_zernike_tables_are_disk_orthonormal_jacobi_profiles(n_r, n_theta):
    cfg = js.DomainConfig(n_r=n_r, n_theta=n_theta)
    t = RadialTables(cfg.kappa, n_r)
    s = t.r / cfg.kappa
    for m_abs in range(n_theta + 1):
        z = t.zernike(m_abs)
        k = np.arange(n_r - m_abs // 2)
        assert z.shape == (n_r, k.size)
        # s^m P_k^(0, m)(2 s^2 - 1) at unit disk norm: int_0^1 of its square
        # times s ds is 1 / (2 (2k + m + 1))
        jac = scipy.special.eval_jacobi(k[None, :], 0, m_abs, 2.0 * s[:, None] ** 2 - 1.0)
        want = s[:, None] ** m_abs * jac * np.sqrt(2.0 * (2 * k + m_abs + 1)) / cfg.kappa
        dev = np.max(np.abs(z - want), axis=0) / np.max(np.abs(want), axis=0)
        assert np.max(dev) <= 1e-12, (m_abs, np.max(dev))
        gram = t.gram(1 if m_abs % 2 == 0 else -1)
        # the exact profiles are orthonormal in the closed-form Gram
        # (measured <= 2.6e-14; the quadrature Gram held them to 3.1e-13)
        orth = np.max(np.abs(want.T @ gram @ want - np.eye(k.size)))
        assert orth <= 1e-13, (m_abs, orth)
        # the Cholesky pass makes them orthonormal in the parity Gram
        assert np.max(np.abs(z.T @ gram @ z - np.eye(k.size))) <= 1e-14
        # the nodal pole rows are the independent reference for the span;
        # past |m| = 5 and n_r = 48 the rows themselves lose accuracy
        if m_abs <= 5 and n_r <= 48:
            rel = np.abs(t.pole_rows(m_abs) @ z) / np.linalg.norm(z, axis=0)
            assert np.max(rel, initial=0.0) <= 1e-12


def test_zernike_tables_are_cached_on_the_instance():
    t = RadialTables(0.5, 12)
    assert t.zernike(3) is t.zernike(3)
    assert RadialTables(0.5, 12).zernike(3) is not t.zernike(3)


def test_channel_ranges_are_views_of_one_band_stack():
    # a sector's channel range solves on the rows of the band's tables:
    # the same numbers as the band solve, from one eigen table per band
    ws = js.Workspace(js.DomainConfig(n_r=12, n_theta=3, n_z=1))
    t = ws.tables
    rng = stream(25, "tests")
    shape = (2, 7, 12)
    f = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    bc = rng.standard_normal(shape[:-1]) + 1j * rng.standard_normal(shape[:-1])
    full = laplace_solve_channels(ws, 1, f, bc)
    for lo, hi in ((-1, 2), (-3, -2), (0, 3)):
        cut = slice(lo + 3, hi + 4)
        part = laplace_solve_channels(ws, 1, f[:, cut], bc[:, cut], lo)
        assert np.array_equal(part, full[:, cut])
        for window, band in zip(t.dirichlet(lo, hi), t.dirichlet(-3, 3)):
            assert np.shares_memory(window, band)
        st = t.stacks(lo, hi)
        assert list(st.ms) == list(range(lo, hi + 1))
        assert all(np.array_equal(st.lap[i], t.lap2d(abs(m))) for i, m in enumerate(st.ms))


@pytest.mark.parametrize("n_r", [8, 24, 128])
def test_dirichlet_tables_are_real_positive_and_well_conditioned(n_r):
    t = tables_for(js.DomainConfig(n_r=n_r, n_theta=2, n_z=1))
    s, s_inv, lam = t.dirichlet(-12, 12)
    assert lam.dtype == np.float64 and np.all(lam > 0.0)
    assert np.max(np.linalg.cond(s)) <= 1e2
    for i, m in enumerate(range(-12, 13)):
        lap = t.lap2d(abs(m))[1:, 1:]
        back = (s[i] * lam[i]) @ s_inv[i]
        assert np.linalg.norm(back + lap) <= 1e-12 * np.linalg.norm(lap)


def test_dirichlet_tables_refuse_a_spectrum_that_is_not_real_and_positive():
    # a negative and a purely imaginary interior spectrum
    skew = np.diag(np.ones(7), 1) - np.diag(np.ones(7), -1)
    for lap in (np.eye(8), skew):
        t = RadialTables(0.5, 8)
        t.lap2d = lambda m_abs, lap=lap: lap
        with pytest.raises(RuntimeError, match="not real and positive"):
            t.dirichlet(-1, 1)


def test_set_up_resolve_and_steps_solve_no_dirichlet_problem(monkeypatch):
    # the blocks, the eigendecomposition, resolve and the evolution steps
    # stay off the elliptic solver and never build its tables
    cfg = js.DomainConfig(n_r=12, n_theta=3, n_z=2)
    ws = js.Workspace(cfg)

    def refuse(*args):
        raise AssertionError("Dirichlet problem solved")

    monkeypatch.setattr(helmholtz, "laplace_solve_channels", refuse)
    monkeypatch.setattr(RadialTables, "dirichlet", refuse)
    g = random_smooth_vector(cfg, stream(27, "tests"), real=False)
    for n in range(cfg.n_z + 1):
        js.eigensolve(ws, n, 4)
    js.resolve(ws, -1.0 + 2.0j, g)
    js.evolve(ws, js.EvolutionConfig(t_final=0.03, dt=0.01, initial=g))


def test_mode_array_matches_per_mode_calls():
    # one call over a mode array gives each mode's own solve: the real
    # layout (modes 0..n_z), the complex one (-n_z..n_z) and a channel window
    n_z = 2
    ws = js.Workspace(js.DomainConfig(n_r=16, n_theta=3, n_z=n_z))
    rng = stream(26, "tests")
    for modes, lo, n_m in (
        (np.arange(n_z + 1), None, 7),
        (np.arange(-n_z, n_z + 1), None, 9),
        (np.arange(-n_z, n_z + 1), -1, 4),
    ):
        shape = (modes.size, 3, n_m, 16)
        f = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        bc = rng.standard_normal(shape[:-1]) + 1j * rng.standard_normal(shape[:-1])
        got = laplace_solve_channels(ws, modes, f, bc, lo)
        for i, n in enumerate(modes):
            want = laplace_solve_channels(ws, int(n), f[i], bc[i], lo)
            assert np.linalg.norm(got[i] - want) <= 1e-14 * np.linalg.norm(want)
    with pytest.raises(ValueError, match="3 modes for 5 slices"):
        laplace_solve_channels(ws, np.arange(3), f, bc, lo)


def test_band_views_grow_only_for_a_wider_range():
    builds = []

    def build(band):
        builds.append(band)
        return (np.arange(-band, band + 1),)

    cached, (ms,) = band_views(None, -1, 2, build)
    assert cached[0] == 2 and list(ms) == [-1, 0, 1, 2]
    same, (ms,) = band_views(cached, -2, 0, build)
    assert same is cached and list(ms) == [-2, -1, 0]
    wider, (ms,) = band_views(cached, 0, 3, build)
    assert wider[0] == 3 and list(ms) == [0, 1, 2, 3]
    assert builds == [2, 3]
