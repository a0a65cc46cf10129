"""Independent reference computations used to pin expected values.

Everything here is deliberately built from scratch: power series, a
finite-volume radial solver on a staggered grid, and hand-derived closed
forms. None of it shares code paths with the package, so agreement is
evidence rather than tautology. The exceptions are
dense_constrained_nullspace, which reuses the package's divergence and
pole rows but none of its angular-momentum sector split, with the
Cartesian tangential traction rows below; the all-channel sector path
(unit fields, constraint rows, complex SVD and M/G samples over every
channel of the band), the layout and the complex arithmetic the package
used before each sector was carried on its own channel window and built
in real arithmetic; the sector's constraint rows evaluated directly at
one beta in complex arithmetic, which the real rows r0 + beta r1 are held
to; the full-band strong assembly, which applies A to a sector's columns
over the whole band, as the package did before each sector's strong
block was assembled on its own reach; the per-sector request path
(PerSectorMaps), which reduced, expanded and multiplied one sector at a
time with complex fields on Cartesian rows and a slice-level mirror, as
the package did before the sectors were packed into real stacks; the
Cartesian strain entries (_sym_entries) and the dissipation factor built
from them (cartesian_dissipation_factor), which read a sector's complex
window fields, as the package did before it formed six real helical
strain blocks from the sector's profiles; the derivative-chain Sobolev inner product (chain_inner_Hkp), which
differentiated each component order by order, as the package did before
the derivative words were precomposed with the Gram factors, weighing
each derivative by its multinomial count in the full derivative tensor
(or once, the form the package used before it weighed that tensor), and the
per-order one (inner_product_Hkp_per_order), which moved each field
channels first once per order, as the package did before it moved each
field once per call, with the 2^j-word stacks (word_stacks_all) that the
package applied before it kept j + 1 commuting words per order; the
quadrature dissipation (dissipation_slice), which samples every strain
entry at the Gauss-Legendre nodes (resample_stack, by barycentric
interpolation, lagrange_eval_matrix), as the package pinned near-zero
eigenvalues before the dissipation form was factored and formed its disk
Gram before that Gram was taken in closed form (quadrature_gram); the
Cartesian traction (cartesian_traction, cartesian_tangential_traction),
which contracts the surface strain with n = (cos, sin, 0) and imposed the
stress-free condition as three Cartesian components on band + 4, as the
package did before it read tau_rtheta and tau_rz in polar form; and the
reference kernels at the end: the per-channel stack product, the four-application
derivatives, divergence and surface pressure, the step-by-step
evolution loop, which maps fields to coordinates mode by mode through
PerSectorMaps, the estimate terms field by field
(estimate_terms_per_field), which formed each snapshot's increment and
pressure gradient as fields, and the slice-by-slice random draw
(smooth_coeffs_per_slice), two normal draws and one product per (n, m).
They are the package's earlier implementations, kept so the batched and
windowed ones can be held to them.
"""

import collections
import math

import numpy as np
import scipy.linalg

# relative singular-value cut of the nodal all-channel references: their
# nodal divergence and pole rows are dependent, so their rank is a cut
NODAL_SVD_TOL = 1e-9


def bessel_i0(x):
    """I0 by the ascending series sum_k (x/2)^(2k) / (k!)^2."""
    x = np.asarray(x, dtype=float)
    term = np.ones_like(x)
    out = np.ones_like(x)
    for k in range(1, 80):
        term = term * (x / 2.0) ** 2 / (k * k)
        out = out + term
        if np.max(term) < 1e-20 * np.max(out):
            break
    return out


def bessel_mode_profile(r, kappa, beta):
    """Solution profile of (laplacian - beta^2) u = 1, u(kappa) = 0, m = 0.

    u(r) = (I0(beta r) / I0(beta kappa) - 1) / beta^2.
    """
    return (bessel_i0(beta * r) / float(bessel_i0(beta * kappa)) - 1.0) / beta**2


def poisson_const_profile(r, kappa):
    """Solution of laplacian u = 1 on the disk with u(kappa) = 0."""
    return (np.asarray(r) ** 2 - kappa**2) / 4.0


def fd_mode_solve(m, beta, kappa, f_func, cells):
    """Finite-volume radial solve of laplacian_m u - beta^2 u = f, u(kappa)=0.

    Staggered grid r_i = (i + 1/2) h with conservative fluxes at the cell
    faces; the axis face carries zero flux and the outer face uses the
    half-cell one-sided gradient against the Dirichlet value. Second
    order in h.

    Returns (r_centers, u).
    """
    h = kappa / cells
    r = (np.arange(cells) + 0.5) * h
    lower = np.zeros(cells)
    diag = np.zeros(cells)
    upper = np.zeros(cells)
    for i in range(cells):
        face_in = i * h
        face_out = (i + 1) * h
        if i > 0:
            lower[i] = face_in / (r[i] * h * h)
            diag[i] -= face_in / (r[i] * h * h)
        if i < cells - 1:
            upper[i] = face_out / (r[i] * h * h)
            diag[i] -= face_out / (r[i] * h * h)
        else:
            # flux through r = kappa against u(kappa) = 0 at half a cell
            diag[i] -= 2.0 * face_out / (r[i] * h * h)
        diag[i] -= (m / r[i]) ** 2 + beta**2
    ab = np.zeros((3, cells))
    ab[0, 1:] = upper[:-1]
    ab[1, :] = diag
    ab[2, :-1] = lower[1:]
    u = scipy.linalg.solve_banded((1, 1), ab, f_func(r))
    return r, u


def fd_mode_solve_richardson(m, beta, kappa, f_func, targets, cells=1536):
    """fd_mode_solve at two resolutions, Richardson-extrapolated onto targets.

    The two solutions are interpolated linearly onto the target radii
    (with the known boundary value appended) and combined as
    (4 u_fine - u_coarse) / 3.
    """
    vals = []
    for n in (cells, 2 * cells):
        r, u = fd_mode_solve(m, beta, kappa, f_func, n)
        rr = np.concatenate([r, [kappa]])
        uu = np.concatenate([u, [0.0]])
        order = np.argsort(targets)
        out = np.empty_like(np.asarray(targets, dtype=float))
        out[order] = np.interp(np.asarray(targets)[order], rr, uu)
        vals.append(out)
    return (4.0 * vals[1] - vals[0]) / 3.0


def const_norm_sq(c, kappa, ell):
    """||c||^2 in the plain L2 inner product: |c|^2 * ell * pi * kappa^2."""
    return abs(c) ** 2 * ell * math.pi * kappa**2


def axial_wave_h1_norm_sq(kappa, ell):
    """||e^{2 pi i z / ell}||^2 in the order-1 cylinder product.

    The function is constant on each disk slice, so the disk gradients
    vanish and the weighted sum collapses to ell pi kappa^2 (1 + beta^2)
    with beta = 2 pi / ell.
    """
    beta = 2.0 * math.pi / ell
    return ell * math.pi * kappa**2 * (1.0 + beta**2)


def stability_ratio_const_forcing(kappa):
    """||u||_{H^2_p} / ||f||_{L^2} for f = 1 at axial mode 0.

    u = (r^2 - kappa^2)/4, with disk derivatives u_x = x/2, u_y = y/2,
    u_xx = u_yy = 1/2, u_xy = 0. Integrals over the disk:
    int u^2 = pi kappa^6 / 48, int (u_x^2 + u_y^2) = pi kappa^4 / 8,
    int (u_xx^2 + u_xy^2 + u_yy^2) = pi kappa^2 / 2. Dividing by
    ||1||^2 = pi kappa^2 (the ell factors cancel) gives
    ratio^2 = kappa^4/48 + kappa^2/8 + 1/2.
    """
    return math.sqrt(kappa**4 / 48.0 + kappa**2 / 8.0 + 0.5)


def shear_q_profile(r, kappa, mu):
    """Boundary-pressure response of v = (x, -y, 0).

    The strain entries are E_11 = 2, E_22 = -2, E_12 = 0, so the surface
    datum is mu kappa^{-2} (x^2 E_11 + 2 x y E_12 + y^2 E_22)
    = 2 mu kappa^{-2} (x^2 - y^2) = 2 mu (r/kappa)^2 cos(2 theta) at
    r = kappa, and the harmonic extension keeps the same formula inside.
    In complex azimuthal coefficients: mu (r/kappa)^2 at m = 2 and at
    m = -2.
    """
    return mu * (np.asarray(r) / kappa) ** 2


def dense_constrained_nullspace(ws, n):
    """Constrained space of mode n from one SVD over all unit fields.

    The package's divergence and pole rows and the Cartesian tangential
    traction rows (cartesian_tangential_traction) are applied to every one
    of the 3*n_m*n_r Cartesian unit fields at once, with rows that zero
    the pieces of the sectors the band clips (|j| >= n_theta): u- at
    m = n_theta - 1 and n_theta, u+ at m = -(n_theta - 1) and -n_theta,
    and u_z at m = +-n_theta. Every constraint commutes with the sectors,
    so this is exactly the direct sum of the complete sectors. Rows are
    normalized, and the nullspace is cut at NODAL_SVD_TOL * s_max of the
    whole mode. Returns orthonormal columns in (component, m, r) order.
    """
    from jetstokes.fields import _div_slice

    cfg, t = ws.config, ws.tables
    nfield = 3 * cfg.n_modes_theta * cfg.n_r
    beta = cfg.beta(n)
    unit = np.eye(nfield, dtype=complex).reshape(nfield, 3, cfg.n_modes_theta, cfg.n_r)
    ms = range(-cfg.n_theta, cfg.n_theta + 1)
    # a piece's coefficient is its conjugate Cartesian vector on the rows
    h, nt = math.sqrt(0.5), cfg.n_theta
    edge = [((h, 1j * h, 0.0), m) for m in (-nt, 1 - nt)]
    edge += [((h, -1j * h, 0.0), m) for m in (nt - 1, nt)]
    edge += [((0.0, 0.0, 1.0), m) for m in (-nt, nt)]
    clip = np.zeros((len(edge), cfg.n_r, 3, cfg.n_modes_theta, cfg.n_r), dtype=complex)
    for e, (vec, m) in enumerate(edge):
        for c in range(3):
            clip[e, :, c, nt + m] = vec[c] * np.eye(cfg.n_r)
    cmat = np.concatenate(
        [_div_slice(t, unit, beta).reshape(nfield, -1).T]
        + [a.reshape(nfield, -1).T for a in cartesian_tangential_traction(t, unit, beta, cfg.mu)]
        + [scipy.linalg.block_diag(*[t.pole_rows(abs(m)) for _ in range(3) for m in ms])]
        + [clip.reshape(-1, nfield)]
    )
    norms = np.linalg.norm(cmat, axis=1)
    keep = norms > 1e-14 * norms.max()
    _, s, vh = scipy.linalg.svd(cmat[keep] / norms[keep][:, None])
    rank = int((s > NODAL_SVD_TOL * s[0]).sum())
    return vh[rank:].conj().T


def sector_dimension(n_r, n, j):
    """K_j by counting: sector j's 3 n_r Zernike unknowns less its constraint rows.

    The pieces at |m| = |j + 1|, |j - 1| and |j| have n_r - |m| // 2
    profiles each; the rows are n_r - |j| // 2 Galerkin divergence rows
    and two traction rows, one divergence row fewer at n = 0 and odd j.
    """
    return 2 * n_r - 2 - abs(j + 1) // 2 - abs(j - 1) // 2 + (j % 2 if n == 0 else 0)


def sector_units_all_channels(cfg, j):
    """Unit fields of sector j in full Cartesian slices, (k, 3, n_m, n_r).

    The earlier layout of the sector path: every piece of the sector sits
    in a slice over all channels of the band, so each kernel applied to
    these runs on every channel, and the u_z piece carries no phase, so
    the constraint rows on these units are complex and need a complex SVD.
    Returns (units, |m| of each piece).
    """
    nm, nr = cfg.n_modes_theta, cfg.n_r
    h = math.sqrt(0.5)
    pieces = [(j + 1, (h, -1j * h, 0.0)), (j - 1, (h, 1j * h, 0.0)), (j, (0.0, 0.0, 1.0))]
    pieces = [(m, vec) for m, vec in pieces if abs(m) <= cfg.n_theta]
    units = np.zeros((len(pieces), nr, 3, nm, nr), dtype=complex)
    for p, (m, vec) in enumerate(pieces):
        for c in range(3):
            units[p, :, c, cfg.n_theta + m, :] = vec[c] * np.eye(nr)
    return units.reshape(-1, 3, nm, nr), [abs(m) for m, _ in pieces]


def sector_constraints_all_channels(ws, n, j):
    """Kept, row-normalized constraint rows of sector j over all channels.

    The rows are the package's divergence and pole rows and the Cartesian
    tangential traction rows of cartesian_tangential_traction, on band + 4.
    Returns (cmat, embed): cmat acts on the sector's unit coordinates and
    embed (3*n_m*n_r, k) maps those coordinates to full Cartesian columns.
    """
    from jetstokes.fields import _div_slice

    cfg, t = ws.config, ws.tables
    units, m_abs = sector_units_all_channels(cfg, j)
    k = units.shape[0]
    beta = cfg.beta(n)
    cmat = np.concatenate(
        [_div_slice(t, units, beta).reshape(k, -1).T]
        + [a.reshape(k, -1).T for a in cartesian_tangential_traction(t, units, beta, cfg.mu)]
        + [scipy.linalg.block_diag(*[t.pole_rows(m) for m in m_abs])]
    )
    norms = np.linalg.norm(cmat, axis=1)
    keep = norms > 1e-14 * norms.max()
    return cmat[keep] / norms[keep][:, None], units.reshape(k, -1).T


def sector_rows_complex(ws, n, j):
    """Sector j's constraint rows at mode n, evaluated directly in complex arithmetic.

    The rows act on the fields of the sector's Zernike coefficients
    (stokesop._piece_map), in the order of stokesop._sector_rows. Returns
    (rows, r0 + beta r1) with the second from the package's real cache.
    """
    from jetstokes.stokesop import _constraint_rows, _piece_map, _sector_fields, _sector_rows

    cfg, t = ws.config, ws.tables
    units = _sector_fields(cfg, j, _piece_map(t, cfg, j))
    r0, r1 = _sector_rows(ws, j)
    return _constraint_rows(t, cfg, j, units, cfg.beta(n)), r0 + cfg.beta(n) * r1


def row_phase_defects(ws, n, j):
    """Realness and split defects of sector j's constraint rows at mode n.

    Each direct row of sector_rows_complex is rotated by the phase of its
    largest entry. Returns the largest imaginary part left in a rotated
    row, and the largest distance of a rotated row from +- its row of
    r0 + beta r1, each relative to the row's norm (to the largest row norm
    for rows that vanish at this beta).
    """
    direct, split = sector_rows_complex(ws, n, j)
    norms = np.linalg.norm(direct, axis=1)
    scale = np.where(norms > 0.0, norms, norms.max())
    big = direct[np.arange(direct.shape[0]), np.argmax(np.abs(direct), axis=1)]
    # a row that vanishes at this beta stays zero
    rotated = direct * (np.conj(big) / np.maximum(np.abs(big), 1e-300))[:, None]
    imag = np.linalg.norm(rotated.imag, axis=1) / scale
    gap = np.minimum(
        np.linalg.norm(rotated - split, axis=1), np.linalg.norm(rotated + split, axis=1)
    )
    return float(np.max(imag)), float(np.max(gap / scale))


def sector_nullspace_all_channels(ws, n, j):
    """Sector j's constraint nullspace over all channels.

    Returns (columns in full Cartesian layout, kept-row count, rank) with
    the rank cut at NODAL_SVD_TOL * s_max.
    """
    cmat, embed = sector_constraints_all_channels(ws, n, j)
    _, s, vh = scipy.linalg.svd(cmat)
    rank = int((s > NODAL_SVD_TOL * s[0]).sum())
    return embed @ vh[rank:].conj().T, cmat.shape[0], rank


def mirror_rows(cfg, arr):
    """Image of flat Cartesian-slice rows under theta -> -theta, u_y -> -u_y.

    arr (3 * n_m * n_r, ...) holds slices in (component, m, r) order on its
    leading axis; the image moves channel m to -m and negates the y rows.
    The map is a signed permutation and its own inverse.
    """
    out = arr.reshape((3, cfg.n_modes_theta, cfg.n_r) + arr.shape[1:])[:, ::-1].copy()
    out[1] *= -1.0
    return out.reshape(arr.shape)


SectorPart = collections.namedtuple("SectorPart", "entry info nk z M G index mirrored")


def sector_parts(op):
    """Every sector of op, j = -J..J, as a SectorPart with its pencil rebuilt from the stacks.

    Built sector j >= 0 at stack entry i owns the entries (i, c, 0) of the
    (S, K_max, 2) layout and its mirror -j the entries (i, c, 1), for its
    columns c < K_j; every other entry is padding. A part holds its stack
    entry, its record (a mirror's negates j), its kernel
    column count nk (the record's "kernel_columns"), its coordinates z
    (3 n_r, K) on its unit fields, its (K, K) blocks M and G, its packed
    indices and whether it is the side-1 mirror; a mirror shares its
    entry's z, M, G and nk. The operator stores no blocks: M = z^T (M_u z)
    is rebuilt from the stacks Z and ZW and symmetrized, and G = F^T F
    from the helical factor of z, so in eigen coordinates they are I and
    diag(w) up to the pencil's defects.
    """
    from jetstokes.stokesop import _dissipation_factor

    ws = op.ws()
    k_max = op.Z.shape[1]
    own, mirrored = [], []
    for i, info in enumerate(op.info):
        k, nk = info["dim"], len(info["kernel_columns"])
        z = op.Z[i, :k].T
        m = z.T @ op.ZW[i, :k].T
        f = _dissipation_factor(ws.tables, ws.config, info["j"], z, ws.config.beta(op.n))
        blocks = (z, 0.5 * (m + m.T), f @ f.T)
        index = 2 * (i * k_max + np.arange(k))
        own.append(SectorPart(i, info, nk, *blocks, index, False))
        if info["j"] > 0:
            image = dict(info, j=-info["j"])
            mirrored.insert(0, SectorPart(i, image, nk, *blocks, index + 1, True))
    return mirrored + own


def dense_blocks(op):
    """The rebuilt M and G (K, K) of sector_parts in the ascending order of op.eigen.

    Each coordinate belongs to one sector, so both are block diagonal over
    the sectors, with exact zeros between them.
    """
    rank = ascending_rank(op)
    m, g = np.zeros((2, op.order.size, op.order.size))
    for p in sector_parts(op):
        at = np.ix_(rank[p.index], rank[p.index])
        m[at], g[at] = p.M, p.G
    return m, g


def ascending_rank(op):
    """Position of each packed coordinate in the ascending order of op.eigen, -1 on the padding."""
    rank = np.full(op.w.size, -1)
    rank[op.order] = np.arange(op.order.size)
    return rank


def packed(op, y):
    """Packed coordinates (dim, ...) of coordinates y (K, ...) in op.eigen's ascending order."""
    out = np.zeros(op.w.shape + y.shape[1:], dtype=complex)
    out[op.order] = y
    return out


def mode_coords(ws, c):
    """Per-mode packed coordinates {n: (dim_n, ...)} of a field coordinate array c.

    c is (n_z + 1, dim, 2, ...): mode n >= 0 is side 0 of entry n and mode
    -n side 1, each cut to the packed size of mode |n|.
    """
    from jetstokes.stokesop import mode_operator

    n_z = ws.config.n_z
    return {
        n: c[abs(n), : mode_operator(ws, abs(n)).w.size, int(n < 0)]
        for n in range(-n_z, n_z + 1)
    }


def field_coords(ws, coords):
    """Field coordinate array (n_z + 1, dim, 2, ...) of per-mode packed coordinates.

    coords maps modes n to (dim_n, ...) arrays, as mode_coords returns them;
    every other entry, side 1 of |n| = 0 included, is zero.
    """
    from jetstokes.stokesop import mode_operator

    n_z = ws.config.n_z
    dim = max(mode_operator(ws, a).w.size for a in range(n_z + 1))
    trail = next(iter(coords.values())).shape[1:]
    out = np.zeros((n_z + 1, dim, 2) + trail, dtype=complex)
    for n, y in coords.items():
        out[abs(n), : y.shape[0], int(n < 0)] = y
    return out


def sector_columns(op, index):
    """Cartesian columns (3 * n_m * n_r, k) of the eigenvector fields at packed indices index."""
    return op.basis[:, ascending_rank(op)[index]]


class PerSectorMaps:
    """The per-sector complex request path of mode n, one sector at a time.

    Each built sector carries coef = _sector_fields(z), its eigenvector
    fields on the flat Cartesian rows they reach; a mirrored sector -j
    pairs its source's coef with the mirror_rows image of the slice, and
    the rebuilt M and G of sector_parts act as complex blocks. Coordinates
    are read and written at each sector's packed indices (sector_parts),
    and the padding is zero. reduce and expand are the package's
    reduce_slice and expand_slice before the sectors were packed into real
    stacks and before a field's modes were handled as one coordinate
    array; apply multiplies by the rebuilt blocks, to measure residuals
    against. They take one mode's slices and coordinates (dim, ...), which
    mode_coords and field_coords cut from and place into the field
    coordinate array.
    """

    def __init__(self, ws, n):
        from jetstokes.stokesop import _sector_fields, _sector_window, _window_rows, mode_operator

        self.ws, self.n = ws, n
        self.op = mode_operator(ws, abs(n))
        cfg = ws.config
        self.parts = []
        for part in sector_parts(self.op):
            own = self.op.info[part.entry]
            fields = _sector_fields(cfg, own["j"], part.z).reshape(part.index.size, -1)
            local = np.flatnonzero(fields.any(axis=0))
            rows = _window_rows(cfg, *_sector_window(cfg, own["j"]))[local]
            coef = np.ascontiguousarray(fields[:, local].T)
            self.parts.append((part, part.index, rows, coef, part.mirrored))

    def reduce(self, arr):
        """Coordinates (dim, ...) of the mode-n slices arr (..., 3, n_m, n_r)."""
        from jetstokes.stokesop import _apply_weight

        cfg = self.ws.config
        if self.n < 0:
            arr = np.conj(arr[..., ::-1, :])
        lead = arr.shape[:-3]
        wg = _apply_weight(self.ws.tables, cfg.ell, arr).reshape(-1, math.prod(arr.shape[-3:]))
        wg = np.conj(wg.T)
        wgs = (wg, mirror_rows(cfg, wg))
        y = np.zeros((self.op.w.size, wg.shape[1]), dtype=complex)
        for _, index, rows, coef, mirrored in self.parts:
            y[index] = coef.T @ wgs[mirrored][rows]
        return np.conj(y).reshape(y.shape[:1] + lead)

    def expand(self, y):
        """Mode-n slices (..., 3, n_m, n_r) of coordinates y (dim, ...)."""
        cfg = self.ws.config
        flat = y.reshape(y.shape[0], -1)
        v = np.zeros((3 * cfg.n_modes_theta * cfg.n_r, flat.shape[1]), dtype=complex)
        for mirrored in (True, False):
            for _, index, rows, coef, is_mirror in self.parts:
                if is_mirror is mirrored:
                    v[rows] += coef @ flat[index]
            v = mirror_rows(cfg, v) if mirrored else v
        v = v.T.reshape(y.shape[1:] + (3, cfg.n_modes_theta, cfg.n_r))
        return np.conj(v[..., ::-1, :]) if self.n < 0 else v

    def apply(self, name, y):
        """Product of the block "M" or "G" with coordinates y, sector by sector."""
        out = np.zeros(y.shape, dtype=complex)
        for s, index, _, _, _ in self.parts:
            out[index] = getattr(s, name).astype(complex) @ y[index]
        return out

    def pencil_solve(self, lam, r):
        """(G - lam M) y = r, r (dim, ...), in eigen coordinates: the diagonal scaling."""
        shift = np.conj(lam) if self.n < 0 else lam
        return r / (self.op.w - shift).reshape((-1,) + (1,) * (r.ndim - 1))


def pencil_residuals(ws, lam, r, y):
    """Relative residuals ||r - (G - lam M) y|| / ||r|| per mode n = -n_z..n_z, 0 where r is zero.

    r and y are field coordinate arrays (n_z + 1, dim, 2, ...); G and M are
    the blocks sector_parts rebuilds, mode -n shifted by conj(lam).
    """
    rs, ys = mode_coords(ws, r), mode_coords(ws, y)
    out = []
    for n in sorted(rs):
        ref = PerSectorMaps(ws, n)
        shift = np.conj(lam) if n < 0 else lam
        res = rs[n] - ref.apply("G", ys[n]) + shift * ref.apply("M", ys[n])
        den = np.linalg.norm(rs[n])
        out.append(np.linalg.norm(res) / den if den > 0.0 else 0.0)
    return np.array(out)


def quadrature(t):
    """2*n_r Gauss-Legendre nodes on (0, kappa) and their weights times r."""
    x, w = np.polynomial.legendre.leggauss(2 * t.n_r)
    r = 0.5 * t.kappa * (x + 1.0)
    return r, 0.5 * t.kappa * w * r


def lagrange_eval_matrix(x, targets, kappa):
    """Barycentric interpolation matrix from Chebyshev-Lobatto nodes.

    Args:
        x: full Chebyshev-Lobatto grid (descending).
        targets: evaluation points.
        kappa: half-width, used only to scale the node-hit guard.

    Returns:
        Matrix b with (b @ values)[q] = interpolant(targets[q]).
    """
    m = x.size
    w = (-1.0) ** np.arange(m)
    w[0] *= 0.5
    w[-1] *= 0.5
    diff = targets[:, None] - x[None, :]
    hit = np.abs(diff) < 1e-14 * kappa
    safe = np.where(hit, 1.0, diff)
    terms = w[None, :] / safe
    b = terms / terms.sum(axis=1)[:, None]
    rows_with_hit = hit.any(axis=1)
    if rows_with_hit.any():
        b[rows_with_hit] = 0.0
        b[hit] = 1.0
    return b


def resample_stack(t, lo, hi):
    """Per-channel maps (n_m, 2*n_r, n_r) of stored profiles to their quadrature samples.

    Channel m = lo..hi continues its profile to the negative half axis
    with parity (-1)^m, and the Lagrange interpolant of the full diameter
    grid is evaluated at the nodes of quadrature(t): the sampling the
    package formed its Grams and the dissipation from before they were
    factored.
    """
    from jetstokes.discretization import chebyshev_lobatto

    x = chebyshev_lobatto(t.n_r, t.kappa)[0]
    b = lagrange_eval_matrix(x, quadrature(t)[0], t.kappa)
    mirror = np.arange(2 * t.n_r - 1, t.n_r - 1, -1)
    folded = {p: b[:, : t.n_r] + p * b[:, mirror] for p in (1, -1)}
    return np.stack([folded[1 if m % 2 == 0 else -1] for m in range(lo, hi + 1)])


def quadrature_gram(t, parity):
    """The disk Gram of one parity from the quadrature samples of its profiles.

    Exact for the products of two profiles the grid carries, up to the
    resampling's roundoff: the Gram the package formed before it took it
    in closed form.
    """
    m = 0 if parity == 1 else 1
    b = resample_stack(t, m, m)[0]
    g = b.T @ (quadrature(t)[1][:, None] * b)
    return 0.5 * (g + g.T)


# pair -> multiplicity in sum_ij over the full symmetric table
_PAIRS = (
    ((0, 0), 1.0),
    ((1, 1), 1.0),
    ((2, 2), 1.0),
    ((0, 1), 2.0),
    ((0, 2), 2.0),
    ((1, 2), 2.0),
)


def _sym_entries(t, varr, beta, lo=None):
    """Cartesian strain entries E_ij = D_j v_i + D_i v_j of one or many axial slices.

    varr has shape (..., 3, n_m, n_r) on the channels lo..hi (the symmetric
    band by default); beta is a scalar or broadcasts with the slice axes.
    Returns a dict keyed (i, j), i <= j, on the channels lo - 1..hi + 1.
    The package formed its dissipation factor from these entries of a
    sector's complex window fields before it read the six real helical
    blocks of stokesop._dissipation_factor.
    """
    from jetstokes.fields import _dxy, _pad

    # one derivative pair per component keeps each array a third of varr
    d1, d2 = zip(*[_dxy(t, varr[..., c, :, :], lo) for c in range(3)])
    dz = [_pad(1j * beta * varr[..., c, :, :], 1) for c in range(3)]
    return {
        (0, 0): 2.0 * d1[0],
        (1, 1): 2.0 * d2[1],
        (2, 2): 2.0 * dz[2],
        (0, 1): d2[0] + d1[1],
        (0, 2): dz[0] + d1[2],
        (1, 2): dz[1] + d2[2],
    }


def cartesian_dissipation_factor(ws, j, z, beta):
    """F^T of sector j's coordinates z (k, K) from the Cartesian strain entries: (K, N) reals.

    Row c holds the entries (_sym_entries) of column c's window field on
    the channels j - 2..j + 2 through the Cholesky factor L^T of each
    channel's Gram, each scaled by sqrt(mu/2 2 pi ell) and the square root
    of its multiplicity, as interleaved reals: the factor as the package
    built it before the helical blocks.
    """
    from jetstokes.discretization import apply_stack
    from jetstokes.stokesop import _sector_fields

    cfg, t = ws.config, ws.tables
    entries = _sym_entries(t, _sector_fields(cfg, j, z), beta, j - 1)
    e = np.stack([entries[key] for key, _ in _PAIRS], axis=1)
    f = apply_stack(t.stacks(j - 2, j + 2).factor, e)
    scales = np.sqrt([wgt * math.pi * cfg.mu * cfg.ell for _, wgt in _PAIRS])
    f *= scales[:, None, None]
    return f.reshape(z.shape[1], -1).view(float)


def dissipation_slice(ws, n, varr, lo=None):
    """Quadrature dissipation (mu/2) sum_ij ||E_ij||^2 of one axial slice.

    varr (3, n_m, n_r) is on the channels lo..hi, the whole band by
    default. Every strain entry is sampled at the quadrature nodes, one
    mat-vec per channel, and its squared samples are summed with the
    quadrature weights, so the result is nonnegative whatever the
    rounding. The package pinned near-zero Rayleigh quotients with it
    before the dissipation form was factored.
    """
    cfg, t = ws.config, ws.tables
    entries = _sym_entries(t, varr, cfg.beta(n), lo)
    w_quad = quadrature(t)[1]
    total = 0.0
    for key, wgt in _PAIRS:
        arr = entries[key]
        first = -((arr.shape[-2] - 1) // 2) if lo is None else lo - 1
        vals = apply_stack_per_channel(resample_stack(t, first, first + arr.shape[-2] - 1), arr)
        total += wgt * float(np.sum(w_quad * np.abs(vals) ** 2))
    return 0.5 * cfg.mu * 2.0 * math.pi * cfg.ell * total


def _trace_cos(arr):
    """A trace coefficient array (..., n_m) times cos(theta), on band + 1."""
    out = np.zeros(arr.shape[:-1] + (arr.shape[-1] + 2,), dtype=complex)
    out[..., 2:] += 0.5 * arr
    out[..., :-2] += 0.5 * arr
    return out


def _trace_sin(arr):
    """A trace coefficient array (..., n_m) times sin(theta), on band + 1."""
    out = np.zeros(arr.shape[:-1] + (arr.shape[-1] + 2,), dtype=complex)
    out[..., 2:] += -0.5j * arr
    out[..., :-2] += 0.5j * arr
    return out


def _trace_pad(arr, extra):
    """A trace coefficient array zero-padded by extra channels on each side."""
    pad = [(0, 0)] * (arr.ndim - 1) + [(extra, extra)]
    return np.pad(arr, pad)


def cartesian_traction(t, varr, beta, mu, lo=None):
    """Viscous traction S_i = -mu sum_j E_ij n_j at r = kappa, in Cartesian components.

    varr (..., 3, n_m, n_r) on the channels lo..hi (the symmetric band by
    default); beta is a scalar or broadcasts with the slice axes. The
    strain entries E of _sym_entries are read at node 0
    (r = kappa) and contracted with n = (cos, sin, 0). Returns a list of
    three (..., n_m + 4) arrays on lo - 2..hi + 2.
    """
    e = {key: val[..., 0] for key, val in _sym_entries(t, varr, beta, lo).items()}
    s1 = -mu * (_trace_cos(e[(0, 0)]) + _trace_sin(e[(0, 1)]))
    s2 = -mu * (_trace_cos(e[(0, 1)]) + _trace_sin(e[(1, 1)]))
    s3 = -mu * (_trace_cos(e[(0, 2)]) + _trace_sin(e[(1, 2)]))
    return [s1, s2, s3]


def cartesian_tangential_traction(t, varr, beta, mu, lo=None):
    """Tangential traction S - (S . n) n in Cartesian components, on lo - 4..hi + 4.

    The constraint rows the package imposed before it read the surface
    stresses in polar form: three components, each on four more channels
    a side than varr, and most of them linearly dependent.
    """
    s = cartesian_traction(t, varr, beta, mu, lo)
    sn = _trace_cos(s[0]) + _trace_sin(s[1])
    return [
        _trace_pad(s[0], 2) - _trace_cos(sn),
        _trace_pad(s[1], 2) - _trace_sin(sn),
        _trace_pad(s[2], 2),
    ]


def polar_components(trace):
    """The n, e_theta and e_z components, on band + 1, of Cartesian surface traces.

    trace is a list of three arrays as cartesian_traction returns them;
    S . n = cos(theta) S_1 + sin(theta) S_2 and
    S . e_theta = -sin(theta) S_1 + cos(theta) S_2.
    """
    s1, s2, s3 = trace
    return np.stack(
        [_trace_cos(s1) + _trace_sin(s2), _trace_cos(s2) - _trace_sin(s1), _trace_pad(s3, 1)]
    )


def _sample_matrix(t, ell, arr):
    """Weighted quadrature samples of channel profiles, flattened per row.

    arr has shape (K, ..., n_m, n_r) on the symmetric band; rows of the
    result are ready for Gram products: conj(Y) @ Y.T reproduces the L^2
    pairing exactly for the polynomial degrees the grid carries.
    """
    from jetstokes.discretization import apply_stack

    band = (arr.shape[-2] - 1) // 2
    vals = apply_stack(resample_stack(t, -band, band), arr)
    vals *= np.sqrt(2.0 * math.pi * ell * quadrature(t)[1])
    return vals.reshape(arr.shape[0], -1)


def pencil_all_channels(ws, n, basis):
    """M and G of full Cartesian columns basis (3*n_m*n_r, K), sampled on every channel.

    The complex construction the package used before each sector's pencil
    was formed in real arithmetic: quadrature samples of the fields and of
    their strain entries, and conj(Y) @ Y.T products.
    """
    cfg, t = ws.config, ws.tables
    k = basis.shape[1]
    barr = np.ascontiguousarray(basis.T).reshape(k, 3, cfg.n_modes_theta, cfg.n_r)
    ym = _sample_matrix(t, cfg.ell, barr)
    m = np.conj(ym) @ ym.T
    g = np.zeros((k, k), dtype=complex)
    entries = _sym_entries(t, barr, cfg.beta(n))
    for key, wgt in _PAIRS:
        y = _sample_matrix(t, cfg.ell, entries[key])
        g += wgt * (np.conj(y) @ y.T)
    g *= 0.5 * cfg.mu
    return 0.5 * (m + m.conj().T), 0.5 * (g + g.conj().T)


def strong_block_full_band(ws, n, cols, j):
    """Strong block and leak of sector j from A applied over the whole band.

    cols (3*n_m*n_r, K) are the sector's columns as full Cartesian slices
    in (component, m, r) order. Returns (cols^H W A cols, leak), the leak
    being the relative Euclidean norm of A cols outside the sector's unit
    embedding, as the full-band strong path computed them.
    """
    from jetstokes.stokesop import (
        _apply_A_slice,
        _apply_weight,
        _sector_units,
        _sector_window,
        _window_rows,
    )

    cfg = ws.config
    k = cols.shape[1]
    ab = _apply_A_slice(ws, n, np.ascontiguousarray(cols.T).reshape(k, 3, cfg.n_modes_theta, cfg.n_r))
    wab = _apply_weight(ws.tables, cfg.ell, ab).reshape(k, -1)
    block = cols.conj().T @ wab.T
    ab = ab.reshape(k, -1)
    total = np.linalg.norm(ab)
    units = _sector_units(cfg, j)
    units = units.reshape(units.shape[0], -1)
    wrows = _window_rows(cfg, *_sector_window(cfg, j))
    ab[:, wrows] -= (ab[:, wrows] @ units.conj().T) @ units
    return block, float(np.linalg.norm(ab) / total)


def disk_inner_einsum(gram, a, b):
    """2*pi * sum_m b_m^H gram_m a_m per axial slice, one three-operand einsum.

    The package applies the Gram stack first and contracts two operands;
    gram is (n_channels, n_r, n_r), a and b (n_modes_z, n_channels, n_r).
    """
    return 2.0 * np.pi * np.einsum("mij,nmj,nmi->n", gram, a, np.conj(b))


def _disk_inner_per_n(t, a, b):
    """2*pi * sum_m (a_m, b_m)_{L^2(r dr)} for each axial slice.

    a and b carry shape (..., n_modes_z, n_channels, n_r) on a common band;
    the leading axes are summed too, and the result has shape (n_modes_z,).
    """
    from jetstokes.discretization import apply_stack
    from jetstokes.fields import _stacks

    shape = (-1,) + a.shape[-3:]
    ga = apply_stack(_stacks(t, a).gram, a).reshape(shape)
    np.conj(ga, out=ga)
    return 2.0 * np.pi * np.conj(np.einsum("knmi,knmi->n", ga, b.reshape(shape)))


def chain_inner_Hkp(u, v, k, once=False):
    """(u, v)_{H^k_p} from derivative chains, one component at a time.

    A chain holds every derivative of one order of its component, stacked
    with entry p = d_x^(order - p) d_y^p; the next order is d/dx of every
    entry and d/dy of the last. Entry p weighs the multinomial C(order, p),
    the number of orderings of its derivatives in the full derivative
    tensor, or 1 with once, the form the package used before it weighed the
    full tensor. Each order's disk inner products are weighted by
    ell * beta_n^(2i) for i = 0..k - order. This is how the package
    evaluated the inner product before the derivative words were
    precomposed with the Gram factors.
    """
    from jetstokes.discretization import tables_for
    from jetstokes.fields import VectorField, _dxy

    cfg = u.config
    t = tables_for(cfg)
    n = np.arange(-cfg.n_z, cfg.n_z + 1)
    beta_sq = (2.0 * math.pi * n / cfg.ell) ** 2
    order_sums = np.zeros((k + 1, n.size), dtype=complex)
    parts = (lambda f: list(f.coeffs) if isinstance(f, VectorField) else [f.coeffs])
    for ua, va in zip(parts(u), parts(v)):
        chains = [ua[None], va[None]]
        order_sums[0] += _disk_inner_per_n(t, chains[0], chains[1])
        for order in range(1, k + 1):
            pairs = [_dxy(t, c) for c in chains]
            chains = [np.concatenate([dx, dy[-1:]]) for dx, dy in pairs]
            weights = [1.0 if once else math.comb(order, p) for p in range(order + 1)]
            weighted = np.asarray(weights)[:, None, None, None] * chains[0]
            order_sums[order] += _disk_inner_per_n(t, weighted, chains[1])
    total = 0.0 + 0.0j
    for mm in range(k + 1):
        for order in range(k + 1 - mm):
            total += (cfg.ell * beta_sq**mm * order_sums[order]).sum()
    return complex(total)


def word_stacks_all(t, band, k):
    """All 2^j derivative words of the orders 0..k on channels -band..band.

    The package kept these before it folded the commuting words: order j
    holds every word w in {U, D}^j, letter i of word w D when bit i of w is
    set (letter 0 applied first), each followed by 2^(-j/2) times the
    factor L^T of its output channel's parity Gram. The sum of squares of
    an order's outputs is the disk norm of the full derivative tensor
    grad^j a on any nodal data, pole-regular or not. Shaped like
    RadialTables.sobolev_words, with 2^j words per order.
    """
    nm = 2 * band + 1
    orders = []
    for j in range(k + 1):
        st = t.stacks(-band - j, band + j)
        lt = st.factor[2 * j : 2 * j + nm] * 2.0 ** (-j / 2)
        stack = np.empty((2**j, nm, t.n_r, t.n_r))
        for w in range(2**j):
            # at: the index in st of the channel that input -band has reached
            prod, at = np.eye(t.n_r), j
            for i in range(j):
                step = 1 - 2 * ((w >> i) & 1)
                prod = (st.raising if step > 0 else st.lowering)[at : at + nm] @ prod
                at += step
            stack[w] = lt @ prod
        orders.append(stack)
    return tuple(orders)


def inner_product_Hkp_per_order(u, v, k, words=None):
    """(u, v)_{H^k_p} as the package formed it before it moved each field channels first once.

    Every transversal order scaled and transposed each field afresh, one
    multiply that wrote the channels-first copy (_scaled_columns), then
    applied the word stacks and took one dot product of their outputs, as
    the package does. words defaults to the package's own
    (RadialTables.sobolev_words); word_stacks_all gives the 2^j-word form.
    """
    from jetstokes.discretization import tables_for
    from jetstokes.fields import _order_scales

    def scaled_columns(a, s):
        x = np.empty(a.shape[-2:] + a.shape[:-2], dtype=complex)
        np.multiply(np.moveaxis(a, (-2, -1), (0, 1)), s, out=x)
        return x.reshape(x.shape[:2] + (-1,)).view(float)

    cfg = u.config
    real = u.real_flag and v.real_flag
    h = cfg.n_z if real else 0
    if words is None:
        words = tables_for(cfg).sobolev_words(cfg.n_theta, k)
    fields = (u,) if u is v else (u, v)
    total = 0.0
    for stack, s in zip(words, _order_scales(cfg.ell, cfg.n_z, k, real)):
        ys = [stack @ scaled_columns(f.coeffs[..., h:, :, :], s) for f in fields]
        if u is v:
            total += np.vdot(ys[0], ys[0])
        else:
            total += np.vdot(ys[1].view(complex), ys[0].view(complex))
    return complex(total.real if real else total)


# time stepping recurrences (scalar model problems)

def implicit_euler_decay(lam, dt, steps):
    """y_K for y' = -lam y, y0 = 1, implicit Euler."""
    return (1.0 + dt * lam) ** (-steps)


def crank_nicolson_decay(lam, dt, steps):
    """y_K for y' = -lam y, y0 = 1, the trapezoidal rule."""
    return ((1.0 - 0.5 * dt * lam) / (1.0 + 0.5 * dt * lam)) ** steps


def duhamel_sine(w, r, omega, t):
    """Exact c(t) of c' = -w c + r sin(omega t), c(0) = 0, per coordinate.

    The Duhamel integral of the forcing against e^{-w (t - s)}:
    c(t) = r (w sin(omega t) - omega cos(omega t) + omega e^{-w t}) / (w^2 + omega^2).
    w and r broadcast; w >= 0 keeps every term bounded.
    """
    w = np.asarray(w, dtype=float)
    wave = w * math.sin(omega * t) - omega * math.cos(omega * t) + omega * np.exp(-w * t)
    return r * wave / (w * w + omega * omega)


# reference kernels: the earlier per-channel and per-step implementations


def apply_stack_per_channel(stack, arr):
    """One mat-vec per channel, the stack cast to the dtype of arr."""
    return np.matmul(stack, arr[..., None])[..., 0]


def _shifted(t, arr, raising):
    b = (arr.shape[-2] - 1) // 2
    st = t.stacks(-b, b)
    out = np.zeros(arr.shape[:-2] + (arr.shape[-2] + 2, arr.shape[-1]), dtype=complex)
    if raising:
        out[..., 2:, :] = apply_stack_per_channel(st.raising, arr)
    else:
        out[..., :-2, :] = apply_stack_per_channel(st.lowering, arr)
    return out


def dx_four(t, arr):
    """d/dx from its own raising and lowering applications."""
    return 0.5 * (_shifted(t, arr, True) + _shifted(t, arr, False))


def dy_four(t, arr):
    """d/dy from its own raising and lowering applications."""
    return -0.5j * (_shifted(t, arr, True) - _shifted(t, arr, False))


def div_four(t, varr, beta):
    """Divergence as d/dx v1 + d/dy v2 + i beta v3: four stack applications."""
    s = dx_four(t, varr[..., 0, :, :]) + dy_four(t, varr[..., 1, :, :])
    s[..., 1:-1, :] += 1j * beta * varr[..., 2, :, :]
    return s


def q_slice_four(ws, n, varr, out_band, farr=None):
    """Surface pressure of one axial slice from the four-application kernels.

    Strain entries and the forcing's divergence come from dx_four, dy_four
    and div_four; the coordinate products and the Dirichlet solve are the
    package's.
    """
    from jetstokes.fields import _mul_x, _mul_y, _pad, _truncate
    from jetstokes.modesolve import laplace_solve_channels

    t, cfg = ws.tables, ws.config
    v1 = varr[..., 0, :, :]
    v2 = varr[..., 1, :, :]
    e11 = 2.0 * dx_four(t, v1)
    e12 = dy_four(t, v1) + dx_four(t, v2)
    e22 = 2.0 * dy_four(t, v2)
    data = _mul_x(t, _mul_x(t, e11)) + 2.0 * _mul_x(t, _mul_y(t, e12))
    data += _mul_y(t, _mul_y(t, e22))
    data *= cfg.mu / cfg.kappa**2
    rhs = np.zeros_like(data) if farr is None else _pad(div_four(t, farr, cfg.beta(n)), 2)
    return _truncate(laplace_solve_channels(ws, n, rhs, data[..., :, 0]), out_band)


def operator_Q_per_slice(ws, v, f=None):
    """Q v (plus the zero-trace potential of f) from q_slice_four, slice by slice."""
    cfg = ws.config
    out = np.zeros((cfg.n_modes_z, cfg.n_modes_theta, cfg.n_r), dtype=complex)
    for i_n in range(cfg.n_modes_z):
        farr = None if f is None else f.coeffs[:, i_n]
        out[i_n] = q_slice_four(ws, i_n - cfg.n_z, v.coeffs[:, i_n], cfg.n_theta, farr)
    return out


def project_P_per_slice(ws, u):
    """Helmholtz projection with one divergence, solve and gradient per axial slice.

    Returns (solenoidal coefficients, potential coefficients, residual).
    """
    from jetstokes.fields import (
        ScalarField,
        VectorField,
        _div_slice,
        _dxy,
        _truncate,
        grad,
        norm_L2,
    )
    from jetstokes.modesolve import laplace_solve_channels

    t, cfg = ws.tables, ws.config
    sol = np.zeros_like(u.coeffs)
    pot = np.zeros(u.coeffs.shape[1:], dtype=complex)
    for i_n in range(cfg.n_modes_z):
        n = i_n - cfg.n_z
        varr = u.coeffs[:, i_n]
        beta = cfg.beta(n)
        q = laplace_solve_channels(ws, n, _div_slice(t, varr, beta))
        gx, gy = _dxy(t, q)
        sol[0, i_n] = varr[0] - _truncate(gx, cfg.n_theta)
        sol[1, i_n] = varr[1] - _truncate(gy, cfg.n_theta)
        sol[2, i_n] = varr[2] - 1j * beta * _truncate(q, cfg.n_theta)
        pot[i_n] = _truncate(q, cfg.n_theta)
    unorm = norm_L2(u)
    defect = u - VectorField(cfg, sol, False) - grad(ScalarField(cfg, pot, False))
    residual = 0.0 if unorm == 0.0 else norm_L2(defect) / unorm
    return sol, pot, residual


def evolve_per_step(ws, evo, measured=False):
    """The evolution loop with one reduction and expansion per mode and step.

    Same arguments and result type as jetstokes.evolve; the warnings are
    abbreviated and the argument checks left out. Fields meet coordinates
    through PerSectorMaps only, one mode at a time. The residual column is
    the bound ||eps_M dc/dt|| + ||eps_G c_eval|| per mode from each
    sector's recorded defects, or, with measured, the residual
    M dc/dt + G c_eval - f itself against the blocks sector_parts rebuilds;
    either is divided by the scale ||dc/dt|| + ||w c_eval|| + ||f||, all
    summed over modes in squares.
    """
    from jetstokes.evolution import EnergyTrace, EvolutionResult
    from jetstokes.fields import norm_L2, zeros_vector
    from jetstokes.helmholtz import project_P

    cfg = ws.config
    steps = max(int(round(evo.t_final / evo.dt)), 1)
    dt = evo.dt
    warnings = []
    if abs(steps * dt - evo.t_final) > 1e-9 * max(evo.t_final, 1.0):
        warnings.append(
            "horizon adjusted to %d steps of dt=%g (t_final=%g)" % (steps, dt, evo.t_final)
        )
    modes = list(range(-cfg.n_z, cfg.n_z + 1))
    maps = {n: PerSectorMaps(ws, n) for n in modes}
    eig = {n: m.op.w for n, m in maps.items()}
    eps = {}
    for n, m in maps.items():
        eps[n] = np.zeros((2, m.op.w.size))
        for part, index, _, _, _ in m.parts:
            eps[n][:, index] = [[part.info["eps_M"]], [part.info["eps_G"]]]

    def field_from_coords(coords):
        out = zeros_vector(cfg)
        for n, y in coords.items():
            out.coeffs[:, cfg.n_z + n] = maps[n].expand(y)
        out.real_flag = False
        return out

    def reduce_field(f):
        return {n: maps[n].reduce(f.coeffs[:, cfg.n_z + n]) for n in modes}

    if evo.initial is None:
        c = {n: np.zeros(eig[n].size, dtype=complex) for n in modes}
    else:
        vnorm = norm_L2(evo.initial)
        c = reduce_field(evo.initial)
        proj = field_from_coords(c)
        if vnorm > 0.0 and norm_L2(evo.initial - proj) / vnorm > 1e-8:
            warnings.append("initial state lies outside the constrained subspace")

    def reduced_forcing(t):
        return None if evo.forcing is None else reduce_field(evo.forcing(t))

    if evo.forcing is not None:
        f0 = evo.forcing(0.0)
        n0 = norm_L2(f0)
        if n0 > 0.0 and norm_L2(project_P(ws, f0).solenoidal) / n0 > 1e-8:
            warnings.append("forcing has a solenoidal part at t = 0")

    def energies(cur):
        l2 = sum(float(np.sum(np.abs(cur[n]) ** 2)) for n in modes)
        diss = sum(float(np.sum(eig[n] * np.abs(cur[n]) ** 2)) for n in modes)
        return l2, diss

    theta = 1.0 if evo.scheme == "implicit-euler" else 0.5
    cn = evo.scheme == "crank-nicolson"
    l2_arr = np.zeros(steps + 1)
    diss_arr = np.zeros(steps + 1)
    res_arr = np.zeros(steps + 1)
    ident_res = np.zeros(steps) if cn else None
    ident_scale = np.zeros(steps) if cn else None
    l2_arr[0], diss_arr[0] = energies(c)
    fields = [field_from_coords(c)] if evo.store_trajectory else []
    r_prev = reduced_forcing(0.0)
    for k in range(steps):
        r_next = reduced_forcing(dt * (k + 1))
        c_new = {}
        defect_sq = scale_sq = fp_mid = diss_mid = 0.0
        for n in modes:
            w = eig[n]
            maps_n = maps[n]
            b = (1.0 - (1.0 - theta) * dt * w) * c[n]
            if r_next is not None:
                r_eval = theta * r_next[n] + (1.0 - theta) * r_prev[n]
                b += dt * r_eval
            c_new[n] = b / (1.0 + theta * dt * w)
            c_eval = theta * c_new[n] + (1.0 - theta) * c[n]
            dc = (c_new[n] - c[n]) / dt
            s = np.linalg.norm(dc) + np.linalg.norm(w * c_eval)
            if measured:
                d = maps_n.apply("M", dc) + maps_n.apply("G", c_eval)
                if r_next is not None:
                    d -= r_eval
                defect = np.linalg.norm(d)
            else:
                defect = np.linalg.norm(eps[n][0] * dc) + np.linalg.norm(eps[n][1] * c_eval)
            if r_next is not None:
                s += np.linalg.norm(r_eval)
                fp_mid += float(np.real(np.vdot(c_eval, r_eval)))
            defect_sq += float(defect**2)
            scale_sq += float(s * s)
            diss_mid += float(np.sum(w * np.abs(c_eval) ** 2))
        l2_new, diss_new = energies(c_new)
        l2_arr[k + 1] = l2_new
        diss_arr[k + 1] = diss_new
        res_arr[k + 1] = math.sqrt(defect_sq) / math.sqrt(scale_sq) if scale_sq > 0.0 else 0.0
        if cn:
            lhs = (l2_new - l2_arr[k]) / dt
            rhs = -2.0 * diss_mid + 2.0 * fp_mid
            ident_res[k] = abs(lhs - rhs)
            ident_scale[k] = abs(lhs) + 2.0 * abs(diss_mid) + 2.0 * abs(fp_mid) + 1e-300
        c = c_new
        r_prev = r_next
        if evo.store_trajectory:
            fields.append(field_from_coords(c))
    final = fields[-1] if fields else field_from_coords(c)
    trace = EnergyTrace(
        t=dt * np.arange(steps + 1),
        l2_norm_sq=l2_arr,
        dissipation=diss_arr,
        residual=res_arr,
        warnings=warnings,
        identity_residual=ident_res,
        identity_scale=ident_scale,
    )
    return EvolutionResult(fields=fields, trace=trace, final=final, coords=field_coords(ws, c))


def estimate_terms_per_field(fields, pressures, forcings, dt):
    """The five surrogate terms of estimate_report, formed field by field.

    The loop the package ran before it read the increments and the
    pressure gradients from word outputs: per snapshot k >= 1,
    inner_product_Hkp(v, v, 2), norm_L2(v_k - v_(k-1)), norm_L2(grad(q)),
    the trace norm of q and norm_L2 of the forcing (none when forcings is
    None), each squared and summed with weight dt.
    """
    from jetstokes.fields import grad, inner_product_Hkp, norm_L2, trace_norm_L2, trace_SF

    s_h2 = s_dv = s_gq = s_qt = s_f = 0.0
    for k in range(1, len(fields)):
        v = fields[k]
        q = pressures[k]
        s_h2 += dt * inner_product_Hkp(v, v, 2).real
        s_dv += dt * (norm_L2(v - fields[k - 1]) / dt) ** 2
        s_gq += dt * norm_L2(grad(q)) ** 2
        s_qt += dt * trace_norm_L2(trace_SF(q)) ** 2
        if forcings is not None:
            s_f += dt * norm_L2(forcings[k]) ** 2
    return {
        "l2t_h2p_velocity": math.sqrt(max(s_h2, 0.0)),
        "l2t_l2_velocity_increment": math.sqrt(s_dv),
        "l2t_l2_grad_pressure": math.sqrt(s_gq),
        "l2t_l2sf_pressure_trace": math.sqrt(s_qt),
        "l2t_l2_forcing": math.sqrt(s_f),
    }


def smooth_coeffs_per_slice(config, rng, margin_m, margin_deg):
    """One component's complex smooth coefficients, drawn slice by slice.

    The loop the package ran before it drew each component in one call:
    per axial slice n and per m ascending, depth real normals, then depth
    imaginary ones, damped by 0.5^i and mapped through smooth_basis(|m|).
    """
    from jetstokes.discretization import tables_for

    t = tables_for(config)
    coeffs = np.zeros((config.n_modes_z, config.n_modes_theta, config.n_r), dtype=complex)
    mb = max(config.n_theta - margin_m, 0)
    for i_n in range(config.n_modes_z):
        for m in range(-mb, mb + 1):
            basis = t.smooth_basis(abs(m))
            depth = max(basis.shape[1] - margin_deg, 1)
            c = rng.standard_normal(depth) + 1j * rng.standard_normal(depth)
            c *= 0.5 ** np.arange(depth)
            coeffs[i_n, config.n_theta + m] = basis[:, :depth] @ c
    return coeffs
