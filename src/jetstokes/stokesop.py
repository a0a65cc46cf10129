"""Traction, constrained basis, and the projected Stokes operator.

Per axial mode n the velocity space is cut down to the constrained
subspace: divergence-free fields whose tangential surface traction
vanishes and whose Cartesian channel profiles are smooth through the axis.
The subspace is found as the numerical nullspace N of a stacked constraint
matrix (divergence rows, tangential traction rows, pole regularity rows)
via a singular value decomposition with a relative cutoff.

On N the Galerkin pencil is sampled by quadrature:

  M[i, j] = (b_j, b_i)                  L^2 Gram matrix,
  G[i, j] = (mu/2) sum_ij integral E(b_j) conj(E(b_i))
                                         dissipation form (Hermitian PSD).

Each mode is stored in the M-orthonormal eigenbasis V of that pencil:
basis = N V, M_block = V^H M V ~ I and G_block = V^H G V ~ diag(w). In
these coordinates the L^2 projection, the resolvent and both time
steppers are diagonal scalings; the blocks are kept to measure residuals
against. The strong block

  A_block[i, j] = (A b_j, b_i),         A v = -mu P laplacian(v) + grad(Q v),

is assembled on first read only; criterion checks compare it with G_block.

Mode n = 0 receives special treatment: the three constant fields and the
rigid rotation are installed as exact leading basis columns, orthonormal
in the L^2 inner product, and the remaining columns are M-projected
against them. The pencil eigh sees only the non-kernel rows and columns,
so the kernel columns, scaled to unit M-norm, are eigenvectors as they
stand; a full-pencil eigh would mix them into the rest at
eps * lam_max / gap. Eigenvalues below 1e-8 * lam_max, the kernel ones
included, are measured as quadrature-dissipation quotients of their
eigenvectors, which are nonnegative by construction.

Negative modes are never assembled: coefficients of mode -n are conjugate
m-reversals of mode +n quantities, see reduce_slice / expand_slice.
"""

import dataclasses
import functools
import math
import weakref

import numpy as np
import scipy.linalg

from .discretization import apply_stack
from .fields import (
    _axial_factors,
    _band,
    _disk_inner_per_n,
    _dx,
    _dy,
    _mul_x,
    _mul_y,
    _pad,
    _truncate,
    inner_product_Hkp,
    norm_L2,
    random_smooth_vector,
    zeros_vector,
)
from .helmholtz import _div_slice, _potential_slice, _q_slice

# pair -> multiplicity in sum_ij over the full symmetric table
_PAIRS = (
    ((0, 0), 1.0),
    ((1, 1), 1.0),
    ((2, 2), 1.0),
    ((0, 1), 2.0),
    ((0, 2), 2.0),
    ((1, 2), 2.0),
)


@dataclasses.dataclass
class Traction:
    """Surface traction trace with components on the first axis.

    coeffs has shape (3, 2*n_z+1, 2*band+1); the azimuthal band exceeds the
    field band because the normal vector couples neighboring modes.
    """

    config: object
    coeffs: np.ndarray
    band: int

    def __post_init__(self):
        want = (3, self.config.n_modes_z, 2 * self.band + 1)
        if self.coeffs.shape != want:
            raise ValueError(
                "traction shape %s does not match band %d" % (self.coeffs.shape, self.band)
            )


@dataclasses.dataclass
class ModeOperator:
    """One axial mode in the eigenbasis of its pencil.

    basis holds the eigenvector fields as columns; eigen is (w, residual)
    with the ascending eigenvalues and each pair's pencil residual
    ||G e_i - w_i M e_i|| / sqrt(M_ii) in these coordinates. ws is a weak
    reference to the owning Workspace, so the cache holds no reference
    cycle; reading A_block needs that workspace alive.
    """

    n: int
    basis: np.ndarray
    M_block: np.ndarray
    G_block: np.ndarray
    eigen: tuple
    kernel_columns: tuple
    info: dict
    ws: object = dataclasses.field(repr=False, compare=False)

    @functools.cached_property
    def A_block(self):
        """Strong operator block (A b_j, b_i), assembled on first read."""
        ws = self.ws()
        cfg = ws.config
        k = self.basis.shape[1]
        barr = np.ascontiguousarray(self.basis.T).reshape(k, 3, cfg.n_modes_theta, cfg.n_r)
        wb = _apply_weight(ws.tables, cfg.ell, barr).reshape(k, -1)
        return np.conj(wb) @ _apply_A_slice(ws, self.n, barr).reshape(k, -1).T


# ---------------------------------------------------------------------------
# symmetric derivative entries and traction


def _sym_entries(t, varr, beta):
    """Entries E_ij = D_j v_i + D_i v_j of one or many axial slices.

    varr has shape (..., 3, n_m, n_r); beta is a scalar or broadcasts with
    the slice axes. Returns a dict keyed (i, j), i <= j, on band + 1.
    """
    v1 = varr[..., 0, :, :]
    v2 = varr[..., 1, :, :]
    v3 = varr[..., 2, :, :]
    d1 = [_dx(t, v) for v in (v1, v2, v3)]
    d2 = [_dy(t, v) for v in (v1, v2, v3)]
    dz = [_pad(1j * beta * v, 1) for v in (v1, v2, v3)]
    return {
        (0, 0): 2.0 * d1[0],
        (1, 1): 2.0 * d2[1],
        (2, 2): 2.0 * dz[2],
        (0, 1): d2[0] + d1[1],
        (0, 2): dz[0] + d1[2],
        (1, 2): dz[1] + d2[2],
    }


def _tr_cos(arr):
    """Multiply a trace coefficient array by cos(theta) (band + 1)."""
    out = np.zeros(arr.shape[:-1] + (arr.shape[-1] + 2,), dtype=complex)
    out[..., 2:] += 0.5 * arr
    out[..., :-2] += 0.5 * arr
    return out


def _tr_sin(arr):
    """Multiply a trace coefficient array by sin(theta) (band + 1)."""
    out = np.zeros(arr.shape[:-1] + (arr.shape[-1] + 2,), dtype=complex)
    out[..., 2:] += -0.5j * arr
    out[..., :-2] += 0.5j * arr
    return out


def _tr_pad(arr, extra):
    if extra == 0:
        return arr
    pad = [(0, 0)] * arr.ndim
    pad[-1] = (extra, extra)
    return np.pad(arr, pad)


def _traction_arrays(t, varr, beta, mu, q_tr=None):
    """Traction traces S_i = q n_i - mu sum_j E_ij n_j on band + 2.

    varr (..., 3, n_m, n_r); q_tr optional (..., n_m) surface values of the
    pressure. Returns a list of three (..., n_m + 4) arrays.
    """
    e = _sym_entries(t, varr, beta)
    tr = {key: val[..., :, 0] for key, val in e.items()}
    s1 = -mu * (_tr_cos(tr[(0, 0)]) + _tr_sin(tr[(0, 1)]))
    s2 = -mu * (_tr_cos(tr[(0, 1)]) + _tr_sin(tr[(1, 1)]))
    s3 = -mu * (_tr_cos(tr[(0, 2)]) + _tr_sin(tr[(1, 2)]))
    if q_tr is not None:
        s1 += _tr_pad(_tr_cos(q_tr), 1)
        s2 += _tr_pad(_tr_sin(q_tr), 1)
    return [s1, s2, s3]


def _tangential_arrays(t, varr, beta, mu):
    """Tangential traction traces on band + 4 (pressure independent)."""
    s = _traction_arrays(t, varr, beta, mu)
    sn = _tr_cos(s[0]) + _tr_sin(s[1])
    st1 = _tr_pad(s[0], 2) - _tr_cos(sn)
    st2 = _tr_pad(s[1], 2) - _tr_sin(sn)
    st3 = _tr_pad(s[2], 2)
    return [st1, st2, st3]


def traction(ws, v, q):
    """Surface traction of a velocity field and a pressure field.

    Args:
        ws: Workspace.
        v: VectorField.
        q: ScalarField (pass a zero field for the velocity part alone).

    Returns:
        Traction on band n_theta + 2.
    """
    cfg = ws.config
    t = ws.tables
    varr = np.moveaxis(v.coeffs, 0, 1)
    beta = np.real(_axial_factors(cfg) / 1j)
    s = _traction_arrays(t, varr, beta, cfg.mu, q.coeffs[..., 0])
    return Traction(cfg, np.stack(s), cfg.n_theta + 2)


def tangential_traction(ws, v):
    """Tangential surface traction S - (S . n) n of a velocity field.

    The pressure contribution q n is purely normal and drops out, so no
    pressure argument is needed.

    Returns:
        Traction on band n_theta + 4.
    """
    cfg = ws.config
    t = ws.tables
    varr = np.moveaxis(v.coeffs, 0, 1)
    beta = np.real(_axial_factors(cfg) / 1j)
    s = _tangential_arrays(t, varr, beta, cfg.mu)
    return Traction(cfg, np.stack(s), cfg.n_theta + 4)


# ---------------------------------------------------------------------------
# constrained basis


def _kernel_slice_arrays(cfg, t):
    """Constants e1, e2, e3 and the rigid rotation as mode-0 slices."""
    nm, nr = cfg.n_modes_theta, cfg.n_r
    out = np.zeros((4, 3, nm, nr), dtype=complex)
    for c in range(3):
        out[c, c, cfg.n_theta, :] = 1.0
    one = np.zeros((nm, nr), dtype=complex)
    one[cfg.n_theta, :] = 1.0
    out[3, 0] = _truncate(-_mul_y(t, one), cfg.n_theta)
    out[3, 1] = _truncate(_mul_x(t, one), cfg.n_theta)
    return out


def _apply_weight(t, ell, arr):
    """Apply the L^2 weight (2*pi*ell times the per-channel Gram) to arr."""
    return 2.0 * math.pi * ell * apply_stack(t.stacks(_band(arr)).gram, arr)


def _sample_matrix(t, ell, arr):
    """Weighted quadrature samples of channel profiles, flattened per row.

    arr has shape (K, ..., n_m, n_r); rows of the result are ready for
    Gram products: conj(Y) @ Y.T reproduces the L^2 pairing exactly for
    the polynomial degrees the grid carries.
    """
    st = t.stacks(_band(arr))
    vals = apply_stack(st.resample, arr)
    vals *= np.sqrt(2.0 * math.pi * ell * t.w_quad)
    return vals.reshape(arr.shape[0], -1)


def build_constrained_basis(ws, n, svd_tol=None):
    """Orthonormal spanning set of the constrained subspace of mode n.

    Constraint rows: divergence at every collocation point (band + 1),
    tangential traction surface channels (band + 4), and pole regularity
    rows per component and azimuthal channel. Rows are normalized to unit
    length before the SVD so the relative cutoff is meaningful.

    Args:
        ws: Workspace.
        n: axial mode (any sign; the constraints depend on beta^2 only
            through the matrix, so the result is the mode-n space).
        svd_tol: relative singular value cutoff, defaults to the config.

    Returns:
        (basis, info): basis is (3*n_m*n_r, K) complex with columns
        flattened in (component, m, r) order; info records sizes, the
        singular value split at the cutoff (sv_at_rank / sv_past_rank,
        worth checking when changing svd_tol or pushing the resolution),
        and kernel bookkeeping. For n = 0 the first four columns are
        exactly the constants and the rigid rotation, L^2-orthonormalized,
        and the rest are L^2-orthogonal to them.

    Raises:
        RuntimeError if the known kernel fields fail the constraints or do
        not lie in the computed nullspace.
    """
    cfg = ws.config
    t = ws.tables
    if svd_tol is None:
        svd_tol = cfg.svd_tol
    nm, nr = cfg.n_modes_theta, cfg.n_r
    nfield = 3 * nm * nr
    beta = cfg.beta(n)

    unit = np.eye(nfield, dtype=complex).reshape(nfield, 3, nm, nr)
    rows_div = _div_slice(t, unit, beta).reshape(nfield, -1).T
    rows_tan = np.concatenate(
        [a.reshape(nfield, -1).T for a in _tangential_arrays(t, unit, beta, cfg.mu)]
    )
    pole_blocks = []
    for c in range(3):
        for im in range(nm):
            p = t.pole_rows(abs(im - cfg.n_theta))
            if p.shape[0] == 0:
                continue
            block = np.zeros((p.shape[0], nfield), dtype=complex)
            start = (c * nm + im) * nr
            block[:, start : start + nr] = p
            pole_blocks.append(block)
    rows_pole = (
        np.concatenate(pole_blocks)
        if pole_blocks
        else np.zeros((0, nfield), dtype=complex)
    )

    cmat = np.concatenate([rows_div, rows_tan, rows_pole])
    norms = np.linalg.norm(cmat, axis=1)
    keep = norms > 1e-14 * norms.max()
    cmat = cmat[keep] / norms[keep][:, None]

    _, s, vh = scipy.linalg.svd(cmat, full_matrices=True)
    thr = svd_tol * s[0]
    # Differentiation-matrix conditioning smears exact row dependencies
    # into a noise cloud that climbs toward the cutoff on fine grids, so
    # the rank call is tolerance-based by nature. The split is recorded
    # in info; directions near the cutoff violate the constraints at the
    # cutoff level either way, which is harmless at the tolerances the
    # operators are used at. The kernel checks below stay hard.
    rank = int((s > thr).sum())
    null = vh[rank:].conj().T

    info = {
        "n": int(n),
        "rows_div": int(rows_div.shape[0]),
        "rows_tan": int(rows_tan.shape[0]),
        "rows_pole": int(rows_pole.shape[0]),
        "rows_kept": int(cmat.shape[0]),
        "rank": rank,
        "dim": int(null.shape[1]),
        "sv_max": float(s[0]),
        "sv_at_rank": float(s[rank - 1]) if rank else 0.0,
        "sv_past_rank": float(s[rank]) if rank < s.size else 0.0,
        "svd_tol": float(svd_tol),
    }

    if n != 0:
        return null, info

    # mode 0: install the known kernel as exact leading columns
    kern = _kernel_slice_arrays(cfg, t).reshape(4, nfield).T
    worst = 0.0
    for col in range(4):
        worst = max(
            worst,
            float(np.linalg.norm(cmat @ kern[:, col]))
            / float(np.linalg.norm(kern[:, col])),
        )
    if worst > 1e-8:
        raise RuntimeError(
            "known kernel fields violate the mode-0 constraints by %.3e" % worst
        )
    info["kernel_constraint_residual"] = worst

    wkern = _apply_weight(t, cfg.ell, kern.T.reshape(4, 3, nm, nr)).reshape(4, nfield).T
    gk = kern.conj().T @ wkern
    lk = scipy.linalg.cholesky(0.5 * (gk + gk.conj().T), lower=True)
    linv = scipy.linalg.solve_triangular(lk, np.eye(4), lower=True)
    kern = kern @ linv.conj().T
    wkern = wkern @ linv.conj().T

    # exactly four nullspace directions must be the kernel: each kernel
    # field lies in the nullspace span, and the complement of their
    # coordinates there, M-projected against the kernel, spans the rest
    coef = null.conj().T @ kern
    dist = np.linalg.norm(kern - null @ coef, axis=0) ** 2
    dist /= np.linalg.norm(kern, axis=0) ** 2
    if not np.all(dist < 1e-8):
        raise RuntimeError(
            "mode-0 kernel deflation expected exactly four null directions, "
            "got squared relative distances %s of the kernel fields from the "
            "nullspace" % dist
        )
    comp = scipy.linalg.qr(coef)[0][:, 4:]
    rest = null @ comp - kern @ ((wkern.conj().T @ null) @ comp)
    basis = np.concatenate([kern, rest], axis=1)
    info["kernel_columns"] = (0, 1, 2, 3)
    info["dim"] = int(basis.shape[1])
    return basis, info


# ---------------------------------------------------------------------------
# strong application and assembly


def _apply_A_slice(ws, n, varr):
    """Strong operator A = -mu P laplacian + grad Q on one axial slice.

    varr (..., 3, n_m, n_r) -> same shape, truncated to the input band.
    """
    t = ws.tables
    cfg = ws.config
    band = _band(varr)
    beta = cfg.beta(n)
    lap = apply_stack(t.stacks(band).lap, varr) - beta * beta * varr
    _, gx, gy, gz = _potential_slice(ws, n, lap)
    qb = _q_slice(ws, n, varr, band + 3)
    out = np.empty_like(varr)
    out[..., 0, :, :] = -cfg.mu * (lap[..., 0, :, :] - gx) + _truncate(_dx(t, qb), band)
    out[..., 1, :, :] = -cfg.mu * (lap[..., 1, :, :] - gy) + _truncate(_dy(t, qb), band)
    out[..., 2, :, :] = -cfg.mu * (lap[..., 2, :, :] - gz) + 1j * beta * _truncate(
        qb, band
    )
    return out


def apply_A(ws, v):
    """Strong application of the projected Stokes operator to a field."""
    cfg = ws.config
    out = zeros_vector(cfg)
    for i_n in range(cfg.n_modes_z):
        n = i_n - cfg.n_z
        out.coeffs[:, i_n] = _apply_A_slice(ws, n, v.coeffs[:, i_n])
    out.real_flag = False
    return out


def assemble_A(ws, n):
    """Assemble mode n on a fresh constrained basis, in its pencil eigenbasis.

    Returns a ModeOperator; use mode_operator for the cached accessor.
    """
    cfg = ws.config
    t = ws.tables
    null, info = build_constrained_basis(ws, n)
    k = null.shape[1]
    nm, nr = cfg.n_modes_theta, cfg.n_r
    barr = np.ascontiguousarray(null.T).reshape(k, 3, nm, nr)

    ym = _sample_matrix(t, cfg.ell, barr)
    m = np.conj(ym) @ ym.T
    m = 0.5 * (m + m.conj().T)
    del ym

    g = np.zeros((k, k), dtype=complex)
    entries = _sym_entries(t, barr, cfg.beta(n))
    for (i, j), wgt in _PAIRS:
        y = _sample_matrix(t, cfg.ell, entries[(i, j)])
        g += wgt * (np.conj(y) @ y.T)
    g *= 0.5 * cfg.mu
    g = 0.5 * (g + g.conj().T)
    del entries, barr

    # the installed kernel columns lead the basis and are deflated
    nk = len(info.get("kernel_columns", ()))
    w = np.zeros(k)
    v = np.zeros_like(g)
    v[:nk, :nk] = np.diag(1.0 / np.sqrt(np.diag(m)[:nk].real))
    w[nk:], v[nk:, nk:] = scipy.linalg.eigh(g[nk:, nk:], m[nk:, nk:])
    basis = null @ v
    del null
    lam_max = float(np.max(np.abs(w))) if k else 0.0
    for i in np.nonzero(np.abs(w) < 1e-8 * lam_max)[0]:
        den = float(np.real(np.conj(v[:, i]) @ (m @ v[:, i])))
        w[i] = _dissipation_slice(ws, n, basis[:, i].reshape(3, nm, nr)) / den
    order = np.argsort(w, kind="stable")
    w, v, basis = w[order], v[:, order], basis[:, order]

    vh = v.conj().T
    m_blk = vh @ (m @ v)
    m_blk = 0.5 * (m_blk + m_blk.conj().T)
    g_blk = vh @ (g @ v)
    g_blk = 0.5 * (g_blk + g_blk.conj().T)
    residual = np.linalg.norm(g_blk - m_blk * w, axis=0) / np.sqrt(np.diag(m_blk).real)
    return ModeOperator(
        n=int(n),
        basis=basis,
        M_block=m_blk,
        G_block=g_blk,
        eigen=(w, residual),
        kernel_columns=tuple(sorted(int(i) for i in np.argsort(order)[:nk])),
        info=info,
        ws=weakref.ref(ws),
    )


def mode_operator(ws, n):
    """Cached ModeOperator of a nonnegative axial mode.

    Negative modes are conjugate m-reversals of positive ones and are
    handled by reduce_slice / expand_slice; asking for them here is an
    error so the cache never holds redundant blocks.
    """
    if n < 0:
        raise ValueError("mode_operator caches n >= 0; use mode blocks via |n|")
    op = ws.mode_ops.get(n)
    if op is None:
        op = assemble_A(ws, n)
        ws.mode_ops[n] = op
    return op


def _adjoint_apply(mat, x):
    """mat^H x without forming the conjugate transpose of mat."""
    return np.conj(np.conj(x) @ mat)


def _signed(n, y):
    """Mode-|n| coordinates of mode-n coordinates y, and back.

    Mode -n quantities are the complex conjugates of mode +n ones (see
    reduce_slice), so the map conjugates for n < 0 and is its own inverse.
    Every cached block and eigenbasis lives in mode-|n| coordinates.
    """
    return np.conj(y) if n < 0 else y


# ---------------------------------------------------------------------------
# reduction to and expansion from mode coordinates


def _conj_flip(arr):
    return np.conj(arr[..., ::-1, :])


def reduce_slice(ws, n, arr):
    """Functional values r_i = (g, b_i) of one axial slice g.

    arr is (3, n_m, n_r), the mode-n slice of a field. For n < 0 the
    pairing is carried out against the conjugated mode |n| basis. The
    basis is M-orthonormal, so these are also the coordinates of the L^2
    projection onto the subspace.
    """
    op = mode_operator(ws, abs(n))
    if n < 0:
        arr = _conj_flip(arr)
    wg = _apply_weight(ws.tables, ws.config.ell, arr).reshape(-1)
    return _signed(n, _adjoint_apply(op.basis, wg))


def expand_slice(ws, n, y):
    """Field slice of mode-n coordinates y (inverse of coordinate maps)."""
    op = mode_operator(ws, abs(n))
    cfg = ws.config
    v = (op.basis @ _signed(n, y)).reshape(3, cfg.n_modes_theta, cfg.n_r)
    if n < 0:
        v = _conj_flip(v)
    return v


def project_constrained(ws, v):
    """L^2-orthogonal projection of a field onto the constrained subspace.

    The basis is M-orthonormal, so the coordinates are the reduced
    functionals r themselves.

    Returns (projected VectorField, per-mode coordinate dict).
    """
    cfg = ws.config
    out = zeros_vector(cfg)
    coords = {}
    for i_n in range(cfg.n_modes_z):
        n = i_n - cfg.n_z
        y = coords[n] = reduce_slice(ws, n, v.coeffs[:, i_n])
        out.coeffs[:, i_n] = expand_slice(ws, n, y)
    out.real_flag = False
    return out, coords


def random_constrained_vector(ws, rng):
    """Random unit-norm member of the constrained subspace."""
    f = random_smooth_vector(ws.config, rng, real=False)
    v, _ = project_constrained(ws, f)
    nrm = norm_L2(v)
    if nrm > 0.0:
        v.coeffs /= nrm
    return v


# ---------------------------------------------------------------------------
# sesquilinear form and dissipation


def form_value(ws, v, u, lam=0.0):
    """Value of the form <v, u> = -lam (v, u) + dissipation pairing.

    The dissipation pairing is (mu/2) sum_ij integral E_ij(v) conj(E_ij(u))
    evaluated on the untruncated band + 1 entries.
    """
    cfg = ws.config
    t = ws.tables
    beta = np.real(_axial_factors(cfg) / 1j)
    ev = _sym_entries(t, np.moveaxis(v.coeffs, 0, 1), beta)
    eu = _sym_entries(t, np.moveaxis(u.coeffs, 0, 1), beta)
    diss = 0.0 + 0.0j
    for key, wgt in _PAIRS:
        diss += wgt * np.sum(_disk_inner_per_n(t, ev[key], eu[key]))
    diss *= 0.5 * cfg.mu * cfg.ell
    return complex(-lam * inner_product_Hkp(v, u, 0) + diss)


def _dissipation_slice(ws, n, varr):
    """Quadrature dissipation of one axial slice, structurally >= 0.

    Computed as a weighted sum of squared sample values, so the result is
    nonnegative no matter the rounding; used to pin near-zero Rayleigh
    quotients.
    """
    cfg = ws.config
    t = ws.tables
    entries = _sym_entries(t, varr, cfg.beta(n))
    total = 0.0
    for key, wgt in _PAIRS:
        arr = entries[key]
        vals = apply_stack(t.stacks(_band(arr)).resample, arr)
        total += wgt * float(np.sum(t.w_quad * np.abs(vals) ** 2))
    return 0.5 * cfg.mu * 2.0 * math.pi * cfg.ell * total


def dissipation_value(ws, v):
    """Total dissipation of a field (the form at lam = 0, real and >= 0)."""
    cfg = ws.config
    total = 0.0
    for i_n in range(cfg.n_modes_z):
        total += _dissipation_slice(ws, i_n - cfg.n_z, v.coeffs[:, i_n])
    return total


def kernel_rayleigh_quotients(ws):
    """Rayleigh quotients of the four installed kernel fields at mode 0.

    Returns a list of |(A b_k, b_k)| / (b_k, b_k) over the kernel columns,
    using the strong A_block.
    """
    op = mode_operator(ws, 0)
    out = []
    for k in op.kernel_columns:
        out.append(float(abs(op.A_block[k, k])) / float(op.M_block[k, k].real))
    return out
