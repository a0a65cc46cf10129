"""Traction, constrained basis, and the projected Stokes operator.

Per axial mode n the velocity space is cut down to the constrained
subspace: divergence-free fields whose tangential surface traction
vanishes and whose Cartesian channel profiles are smooth through the axis.
The traction is read in polar form at r = kappa
(helmholtz._surface_stresses): tau_rtheta and tau_rz, from the helical
traces U = e^{-i theta} (v1 + i v2) and W = e^{i theta} (v1 - i v2).
Every constraint commutes with rotations about the axis, so the subspace
is an exact direct sum of angular-momentum sectors j: sector j holds
u+ = u_x + i u_y at m = j + 1, u- = u_x - i u_y at m = j - 1 and u_z at
m = j. Each piece's unknowns are its coefficients on the Zernike profiles
of its |m| (RadialTables.zernike), so every sector field is smooth
through the axis by construction, and the coefficients are
L^2-orthonormal coordinates (_piece_map). The z piece carries the
phase i, which cancels the i of d/dz = i beta: every constraint row is
then a unit phase times a real row, so each sector is built in real
arithmetic. Every piece of sector j reaches the divergence and the
surface traces at m = j only, so its constraint rows r0 + beta r1 are the
Galerkin divergence rows, one per Zernike(|j|) profile, and exactly two
traction rows, tau_rtheta and tau_rz at m = j. They are formed once per
sector per workspace, rotated to their real form, and have full row
rank, so the sector's part of the subspace is the nullspace Z of the
known dimension K_j, from a small real SVD with no cutoff
(build_constrained_basis). A sector is carried on its own
channel window m in [j - 1, j + 1]: its fields and eigenvectors live
there, and every kernel widens the window by its own band growth only.

Z's columns are L^2-orthonormal, so on each sector the Galerkin pencil is
real symmetric with M = Z^T M_u Z = I to roundoff (M_u the block-diagonal
Gram of the unit fields), and its eigenbasis is that of the dissipation
form G = F^T F, G[i, j] = (mu/2) sum_ij Re (E(b_j), E(b_i)),
where F holds the strain of the columns b = units Z in the helical frame
of the sector's pieces (_dissipation_factor). A sector's coordinates are
three real radial profiles: a = u+ at m = j + 1, b = u- at m = j - 1 and
c = i u_z at m = j. With the raising and lowering stacks U and D
(d/dx +- i d/dy) and h = 1/sqrt(2), its strain has six distinct helical
entries, each a real profile on one channel:

  U a (m = j + 2),  D b (m = j - 2),  D a + U b and beta c (m = j),
  beta a + h U c (m = j + 1),  beta b + h D c (m = j - 1),

up to constants. F stacks these six blocks through the factor L^T of
their channel's radial Gram (L L^T = Gram, RadialTables), scaled by
sqrt(pi mu ell) and the square root of each entry's multiplicity, so
|F y|^2 is the dissipation of coordinates y. G is one real syrk, so it
is exactly symmetric.

Each mode is stored as its built sectors j >= 0, each in the
orthonormal eigenbasis V of its pencil: the real coordinates z = Z V of
its eigenvector fields on its unit fields. There the pencil is M = I and
G = diag(w), so no block is stored, only each sector's defects
eps_M = ||V^T M V - I|| and eps_G = ||V^T G V - diag(w)|| (assemble_A).
The sectors are packed into zero-padded real stacks (ModeOperator), and
a mode's coordinates are that packed layout itself: one entry per (stack
entry, column, [sector j, mirror -j]), zero on the padding, where the
packed eigenvalues are 0 too. Set-up builds and checks each mode on its
own. Every mode has the same packed layout, and one slot table per
workspace (_slot_tables), so on their first field-level use the modes
0..n_z are stacked into one whole-field operator (FieldOperator, cached
on the Workspace): its stacks are the only copy, and each cached
ModeOperator's stacks are views of them. A field's coordinates are one
array (n_z + 1, dim, 2, ...): |n|, the packed layout and the sign of n
(side 1 is mode -|n|, padding at |n| = 0). Reducing and expanding a
field, or a stack of fields, take one pass for every mode and both signs
of n: one 3x3 piece transform, one take through the slot table (or its
inverse) and one batched real product over (mode, side); none does
index work on the coordinates. Every synthesis, the dense basis
included, is that one pass (_synthesize). In these coordinates the L^2
projection, the resolvent and both time steppers are diagonal scalings;
eps_M and eps_G bound their residuals against the blocks set-up formed
(FieldOperator, read-only).
The strong operator

  A v = -mu P laplacian(v) + grad(Q v)

commutes with rotations about the axis, so it maps each sector into
itself. Its per-sector blocks A[i, c] = (A b_c, b_i) are a pure function
of the stacks (strong_blocks), computed on each sector's reach (its window
plus the two channels A adds on each side) when a check or the block
export asks, together with the part of A b that leaves the sector (an
exact zero, measured in roundoff); criterion checks compare them with w.

Mode n = 0 receives special treatment: the kernel fields e1 + i e2
(sector 1), e1 - i e2 (sector -1), e3 and the rigid rotation (sector 0)
are installed as exact leading columns of their sectors with unit L^2
norm, each times the unit phase that makes its coordinates real (1 for
e1 +- i e2), and the remaining columns are projected against them. The
sector eigh sees only the non-kernel rows and columns, so the kernel
columns are eigenvectors as they stand. Every eigenvalue, the kernel ones
included, is measured as the Rayleigh quotient |F v_c|^2 / M_cc of its
eigenvector v_c: nonnegative by construction, and accurate relative to its
own size rather than to eps * lam_max.

Negative modes are never assembled, and negative sectors are never built.
Coefficients of mode -n are conjugate m-reversals of mode +n quantities:
reduce_slice / expand_slice flip the mode -n slices (fields._conj_flip)
onto side 1 of the field coordinates and back (_sided_slices). A real
field's side 1 equals its side 0, so its coordinates may hold side 0
only, width 1 on the side axis: reduce_slice(..., real=True) reads the
slices n >= 0, and expand_slice writes mode -n as the mirror of mode n.
The side-1 pencil is the conjugate of the mode-|n| one, with the same
real eigenvalues, so beyond them only the resolvent shift
(spectral._pencil_solve) sees the sign. Within a mode, the mirror
theta -> -theta with u_y -> -u_y sends channel m to -m and swaps the u+
and u- pieces (_mirror_piece); it commutes with every constraint and with
both forms and maps sector j onto sector -j. The band |m| <= n_theta holds
all three pieces of sector j only for |j| < n_theta, so only these
complete sectors j = 0..n_theta-1 are built, as stack entries j, and
sector -j is side 1 of entry j: the slot table reads its pieces at the
mirrored entries, and every block of entry j stands for both sectors.
"""

import dataclasses
import math
import weakref

import numpy as np

from .discretization import apply_stack
from .fields import (
    VectorField,
    _axial_factors,
    _conj_flip,
    _div_slice,
    _dxy,
    _field,
    _mirror_modes,
    _normalized,
    _require_config,
    _stacks,
    constant_vector,
    random_smooth_vector,
    rigid_rotation,
)
from .helmholtz import _q_slice, _surface_stresses

# columns u+ = (h, -i h, 0), u- = (h, i h, 0) and i e_z, h = 1/sqrt(2): the
# Cartesian vectors of the three sector pieces, a unitary matrix
_H = math.sqrt(0.5)
_PIECE_VECTORS = np.array([[_H, _H, 0.0], [-1j * _H, 1j * _H, 0.0], [0.0, 0.0, 1j]])
# its inverse V^H, which reads a slice's pieces off its Cartesian components
_PIECES_OF = np.ascontiguousarray(_PIECE_VECTORS.conj().T)


@dataclasses.dataclass(frozen=True)
class ModeOperator:
    """One axial mode in the eigenbasis of its pencil, as packed real stacks.

    The S = n_theta built sectors j are packed, as entries j, into
    zero-padded real stacks: Z (S, K_max, 3 n_r) holds each sector's
    coordinates z on its unit fields transposed, and ZW the same with the
    unit Gram folded in ((M_u z)^T). info holds each entry's record
    (build_constrained_basis: K_j its "dim" and the constraint rows'
    "row_conditioning"; and assemble_A's pencil defects). Sector -j is
    entry j read on the mirrored pieces, so an entry j > 0 stands for two
    sectors (sector_norm).

    The mode's coordinates are packed alike: (dim, ...) with
    dim = S * K_max * 2 in (stack entry, column, [sector j, mirror -j])
    order, zero on the padding (columns past K_j and the mirror half of
    sector 0); a field holds one such vector per mode, with mode -n on the
    mode-n layout (see reduce_slice). w (dim,) holds their eigenvalues, 0
    on the padding, and order the packed index of each eigenvalue in
    ascending order, ties in order of j = -J..J. eigen is
    (w[order], residual), with each pair's pencil residual
    ||G e_i - w_i M e_i|| / sqrt(M_ii) in the same order.

    Slices meet the stacks through their piece array (reduce_slice) and
    the workspace's slot table (_slot_tables), which every mode shares.
    Once the workspace stacks its modes (field_operator), the cached
    operator's Z and ZW are views of the whole-field stacks.

    ws is a weak reference to the owning Workspace, so the cache holds no
    reference cycle. Nothing is written to an operator once assemble_A
    returns. basis, M_block, G_block and A_block are dense views in
    ascending order for checks and export, which no solve reads: M_block
    and G_block are exactly I and diag(eigen[0]), basis is _synthesize of
    the unit coordinates, A_block is strong_blocks' stack on both sides of
    each entry, and both need that workspace alive.
    """

    n: int
    info: tuple
    eigen: tuple
    Z: np.ndarray
    ZW: np.ndarray
    w: np.ndarray
    order: np.ndarray
    ws: object = dataclasses.field(repr=False, compare=False)

    def sector_norm(self, stack):
        """Frobenius norm of a packed stack (S, ...) over all sectors: entry j > 0 counts twice."""
        sq = np.linalg.norm(stack.reshape(len(self.info), -1), axis=1) ** 2
        return math.sqrt(sq[0] + 2.0 * sq[1:].sum())

    @property
    def M_block(self):
        return np.eye(self.order.size, dtype=complex)

    @property
    def G_block(self):
        return np.diag(self.eigen[0].astype(complex))

    @property
    def A_block(self):
        a = strong_blocks(self)[0]
        out = np.zeros((self.w.size, self.w.size), dtype=complex)
        # entry i's block acts on the columns of its sector and of its mirror
        packed = np.arange(self.w.size).reshape(a.shape[:2] + (2,))
        for side in (0, 1):
            at = packed[..., side]
            out[at[:, :, None], at[:, None, :]] = a
        return out[self.order][:, self.order]

    @property
    def basis(self):
        """Eigenvector fields as Cartesian columns in (component, m, r) order."""
        unit = np.zeros((self.w.size, self.order.size))
        unit[self.order, np.arange(self.order.size)] = 1.0
        return _synthesize(self.ws(), self.Z, unit)


# ---------------------------------------------------------------------------
# surface traction


def tangential_traction(ws, v):
    """Tangential surface traction (tau_rtheta, tau_rz) of a velocity field.

    The pressure contribution q n is purely normal and drops out, so no
    pressure argument is needed. This is the field-level check of the
    stress-free surface condition; the traces are the polar ones of
    helmholtz._surface_stresses, read at r = kappa.

    Returns:
        complex array (2, 2*n_z+1, 2*(n_theta+1)+1): tau_rtheta, then
        tau_rz, each on azimuthal band n_theta + 1.

    Raises:
        ValueError if v is not on ws.config.
    """
    _require_config(ws, v, "tangential_traction: field")
    cfg = ws.config
    varr = np.moveaxis(v.coeffs, 0, 1)
    stresses = _surface_stresses(ws.tables, cfg.mu, varr, _axial_factors(cfg).imag)
    return np.moveaxis(stresses[:, 1:], 1, 0)


# ---------------------------------------------------------------------------
# constrained basis


def _apply_weight(t, ell, arr, lo=None):
    """Apply the L^2 weight (2*pi*ell times the per-channel Gram) to arr.

    lo is the channel of arr's index 0 (fields._stacks).
    """
    return 2.0 * math.pi * ell * apply_stack(_stacks(t, arr, lo).gram, arr)


def _sector_window(cfg, j):
    """The channel window (j - 1, j + 1) of sector j; ValueError unless the band holds it."""
    if abs(j) >= cfg.n_theta:
        raise ValueError("sector j = %d is not complete in the band |m| <= %d" % (j, cfg.n_theta))
    return j - 1, j + 1


def _window_rows(cfg, lo, hi):
    """Flat Cartesian-slice rows of the channels lo..hi, in (component, m, r) order."""
    full = np.arange(3 * cfg.n_modes_theta * cfg.n_r).reshape(3, cfg.n_modes_theta, cfg.n_r)
    return full[:, cfg.n_theta + lo : cfg.n_theta + hi + 1].reshape(-1)


def _sector_pieces(j):
    """(kind, m, Cartesian vector) of each piece of sector j.

    u+ = u_x + i u_y at m = j + 1 (kind 0), u- = u_x - i u_y at m = j - 1
    (kind 1) and u_z at m = j (kind 2). The vectors are the columns of the
    unitary _PIECE_VECTORS, so the embedding is unitary, and the z piece
    carries the phase i, which cancels the i of d/dz = i beta (see
    _sector_units).
    """
    return [(p, m, _PIECE_VECTORS[:, p]) for p, m in ((0, j + 1), (1, j - 1), (2, j))]


def _mirror_piece(kind, m):
    """The piece that theta -> -theta, u_y -> -u_y maps piece kind at channel m to.

    The mirror sends channel m to -m and swaps u+ and u-; it maps sector j
    onto sector -j, so sector -j is sector j read on the mirrored pieces.
    """
    return (1, 0, 2)[kind], -m


def _piece_slots(cfg, j, mirrored=False):
    """Piece-array entries (reduce_slice) of the rows of sector j's z, or of their mirror images."""
    out = []
    for kind, m, _ in _sector_pieces(j):
        if mirrored:
            kind, m = _mirror_piece(kind, m)
        start = (kind * cfg.n_modes_theta + cfg.n_theta + m) * cfg.n_r
        out.append(np.arange(start, start + cfg.n_r))
    return np.concatenate(out)


def _slot_tables(ws):
    """(slots, inverse): the packed layout's slot table and its inverse, built once per workspace.

    The piece array of a slice (reduce_slice) holds its coefficients on
    u+, u- and i e_z at every channel, in (piece, m, r) order, plus one
    zero entry. slots (S, 3 n_r, 2) name the piece entry each row of a
    stack entry reads, for its sector j ([..., 0]) and for the mirror
    image -j ([..., 1]); padding reads the zero entry. inverse
    (3 n_m n_r,) is the entry of a product (S, 3 n_r, 2) that writes each
    piece, or the zero entry past its end for a piece no sector holds.
    Both depend on the config only, so every mode shares them; they are
    cached read-only on Workspace.slots.
    """
    if ws.slots is None:
        cfg = ws.config
        pad = 3 * cfg.n_modes_theta * cfg.n_r
        slots = np.full((cfg.n_theta, 3 * cfg.n_r, 2), pad)
        for j in range(cfg.n_theta):
            slots[j, :, 0] = _piece_slots(cfg, j)
            if j > 0:
                slots[j, :, 1] = _piece_slots(cfg, j, True)
        inverse = np.full(pad + 1, slots.size)
        inverse[slots.reshape(-1)] = np.arange(slots.size)
        inverse = inverse[:-1]
        slots.flags.writeable = inverse.flags.writeable = False
        ws.slots = slots, inverse
    return ws.slots


def _synthesize(ws, z, y):
    """Flat Cartesian slices (..., 3 n_m n_r, L) of packed coordinates y (..., dim, L).

    z is a packed real stack (..., S, K_max, 3 n_r) that broadcasts
    against y's leading axes. y is read as its interleaved real view
    (..., S, K_max, 4 L): a sector's and its mirror's entries side by side,
    each complex entry as two reals, so one batched real product Z^T y
    serves them all. One take through the inverse slot table (_slot_tables)
    puts the products in the piece array, the zero entry past their end
    filling every piece no sector holds, and one 3x3 transform maps the
    pieces to Cartesian components.
    """
    inverse = _slot_tables(ws)[1]
    s, k, rows = z.shape[-3:]
    lead, num = y.shape[:-2], y.shape[-1]
    x = np.ascontiguousarray(y, dtype=complex).reshape(lead + (s, k, -1)).view(float)
    prod = np.empty(lead + (s * rows * 2 + 1, num), dtype=complex)
    prod[..., -1, :] = 0.0
    out = prod[..., :-1, :].reshape(lead + (s, rows, -1)).view(float)
    np.matmul(z.swapaxes(-1, -2), x, out=out)
    del x
    p = np.take(prod, inverse, axis=-2)
    del prod
    return np.matmul(_PIECE_VECTORS, p.reshape(lead + (3, -1))).reshape(p.shape)


def _sector_fields(cfg, j, z):
    """Window fields (K, 3, 3, n_r) of the sector-j coordinates z (k, K).

    Row p * n_r + i of z is the coefficient of the unit field at node i of
    piece p of _sector_pieces, on the three channels of _sector_window.
    """
    lo = _sector_window(cfg, j)[0]
    nr = cfg.n_r
    out = np.zeros((z.shape[1], 3, 3, nr), dtype=complex)
    for p, (_, m, vec) in enumerate(_sector_pieces(j)):
        c = np.flatnonzero(vec)
        out[:, c, m - lo] = vec[c, None] * z[p * nr : (p + 1) * nr].T[:, None]
    return out


def _sector_units(cfg, j):
    """Unit fields of angular-momentum sector j on its channel window.

    Sector j holds u+ = u_x + i u_y at m = j + 1, u- = u_x - i u_y at
    m = j - 1 and i u_z at m = j (_sector_pieces). With the z piece
    multiplied by i, every constraint row on these units is a unit phase
    times a real row, as for the helical components of polar spectral
    bases (Matsushima & Marcus, JCP 120, 1995): the nullspace has a real
    basis, and the Gram M_u and the dissipation form on the units are
    real. So the sector's pencil is real symmetric. Returns the k = 3 n_r
    units (k, 3, 3, n_r) on the channels of _sector_window(cfg, j).
    """
    return _sector_fields(cfg, j, np.eye(3 * cfg.n_r))


def _unit_weight(t, cfg, j, z):
    """M_u z: the L^2 Gram of sector j's unit fields applied to real coordinates z (k, K).

    The embedding is unitary and its pieces sit on distinct channels, so
    M_u is block diagonal: 2 pi ell times the radial Gram of each piece's
    parity. It is real, and no sample is needed.
    """
    nr = cfg.n_r
    out = np.empty(z.shape)
    for p, (_, m, _) in enumerate(_sector_pieces(j)):
        out[p * nr : (p + 1) * nr] = t.gram(1 if m % 2 == 0 else -1) @ z[p * nr : (p + 1) * nr]
    return 2.0 * math.pi * cfg.ell * out


def _piece_map(t, cfg, j):
    """Sector j's coefficient map E (3 n_r, k): each piece's zernike table over sqrt(2 pi ell).

    E is block diagonal over the pieces of _sector_pieces and spans exactly
    their pole-regular profiles, with E^T M_u E = I (_unit_weight).
    """
    tabs = [t.zernike(abs(m)) / math.sqrt(2.0 * math.pi * cfg.ell) for _, m, _ in _sector_pieces(j)]
    cols = np.cumsum([0] + [z.shape[1] for z in tabs])
    e = np.zeros((3 * cfg.n_r, cols[-1]))
    for p, z in enumerate(tabs):
        e[p * cfg.n_r : (p + 1) * cfg.n_r, cols[p] : cols[p + 1]] = z
    return e


def _constraint_rows(t, cfg, j, units, beta):
    """Complex constraint rows of sector j at axial wavenumber beta.

    The sector's fields units (k, 3, 3, n_r) on its window reach the
    divergence and the surface traces at m = j only. The nodal divergence
    there, projected onto the Zernike(|j|) profiles in the parity Gram
    (Z_j^T Gram div_j), gives n_r - |j| // 2 Galerkin rows; then come the
    polar tangential traces tau_rtheta and tau_rz at r = kappa
    (helmholtz._surface_stresses): the stress-free condition has rank 2
    per sector, known in advance.
    """
    # index 2 is channel j: both outputs are one channel wider than the window
    div = _div_slice(t, units, beta, j - 1)[:, 2]
    galerkin = t.zernike(abs(j)).T @ t.gram(1 if j % 2 == 0 else -1) @ div.T
    tangential = _surface_stresses(t, cfg.mu, units, beta, j - 1)[:, 1:, 2]
    return np.concatenate([galerkin, tangential.T])


def _sector_rows(ws, j):
    """Real constraint rows (r0, r1) of sector j: the rows at beta are r0 + beta r1.

    The rows act on the coefficients of _piece_map, in the order of
    _constraint_rows: the Galerkin divergence rows, then the two traction
    rows. Built once per workspace. beta enters the rows only through the
    i beta u_z term of the divergence and the i beta u_r term of tau_rz,
    terms that no other term touches, so the rows at beta = 0 and their
    change at beta = 1 split them exactly. Each row is a unit phase times a
    real row (_sector_units): it is rotated by the phase of its largest
    entry and kept real.

    Raises:
        RuntimeError if a rotated row keeps an imaginary part above 1e-12
        of its norm.
    """
    got = ws.sector_rows.get(j)
    if got is None:
        cfg, t = ws.config, ws.tables
        units = _sector_fields(cfg, j, _piece_map(t, cfg, j))
        c0 = _constraint_rows(t, cfg, j, units, 0.0)
        c = np.concatenate([c0, _constraint_rows(t, cfg, j, units, 1.0) - c0], axis=1)
        big = c[np.arange(c.shape[0]), np.argmax(np.abs(c), axis=1)]
        c *= (np.conj(big) / np.abs(big))[:, None]
        worst = np.max(np.linalg.norm(c.imag, axis=1) / np.linalg.norm(c, axis=1))
        if worst > 1e-12:
            raise RuntimeError(
                "sector %d constraint rows are not real up to a phase: relative "
                "imaginary residue %.3e" % (j, worst)
            )
        k = units.shape[0]
        got = ws.sector_rows[j] = (c.real[:, :k].copy(), c.real[:, k:].copy())
    return got


def _kernel_fields(cfg, j):
    """Mode-0 kernel fields of sector j, flattened on its channel window.

    e1 + i e2 lies in sector 1, e1 - i e2 in sector -1, and e3 and the
    rigid rotation in sector 0; every other sector has none.
    """
    if j == 0:
        fields = [constant_vector(cfg, (0.0, 0.0, 1.0)), rigid_rotation(cfg)]
    elif abs(j) == 1:
        fields = [constant_vector(cfg, (1.0, 1j * j, 0.0))]
    else:
        fields = []
    lo = cfg.n_theta + _sector_window(cfg, j)[0]
    return [f.coeffs[:, cfg.n_z, lo : lo + 3].reshape(-1) for f in fields]


def build_constrained_basis(ws, n, j):
    """Spanning set of sector j of the constrained subspace of mode n.

    Everything is computed on the sector's Zernike coefficients
    (_piece_map), never on the whole band, so every column is smooth
    through the axis. The constraint rows are the real rows r0 + beta r1
    of _sector_rows, less the top Zernike(j) divergence row at n = 0 and
    odd j: at beta = 0, D a + U b reaches degree 2 n_r - 3 and misses that
    profile, of degree 2 n_r - 1, so the row is rounding. The rest have
    full row rank, so K_j = 2 n_r - 2 - |j + 1| // 2 - |j - 1| // 2 (plus
    j mod 2 at n = 0): the nullspace is the trailing rows of the full V^T
    of the normalized rows' real SVD, orthonormal coefficients, so the
    columns are L^2-orthonormal. At mode 0 the rest of the sector is the
    complement of the kernel's nullspace coordinates in a complete QR.
    Works for any sign of j; assemble_A calls it for j >= 0 only.

    Args:
        ws: Workspace.
        n: axial mode (any sign).
        j: angular-momentum sector, complete in the band: |j| < n_theta.

    Returns:
        (basis, info): basis is (k, K_j) real, the columns' coordinates on
        the sector's k = 3 n_r unit fields (_sector_fields maps them to
        window fields); info records the sector j, sizes, the normalized
        rows' s_min / s_max ("row_conditioning") and the indices of the
        leading kernel columns ("kernel_columns"): for n = 0 the sector's
        kernel fields (see _kernel_fields), each times the unit phase that
        makes its coordinates real, lead the basis with unit L^2 norm, and
        the rest is L^2-orthogonal to them.

    Raises:
        ValueError if |j| >= n_theta (_sector_window).
        RuntimeError if the rows' s_min / s_max is below 1e-8, or if the
        known kernel fields fail the constraints or leave the nullspace.
    """
    cfg = ws.config
    r0, r1 = _sector_rows(ws, j)
    e = _piece_map(ws.tables, cfg, j)
    cmat = r0 + cfg.beta(n) * r1
    if n == 0 and j % 2:
        # the top Zernike(j) divergence row, just before the traction rows
        cmat = np.delete(cmat, cmat.shape[0] - 3, axis=0)
    cmat /= np.linalg.norm(cmat, axis=1)[:, None]
    _, s, vh = np.linalg.svd(cmat)
    cond = float(s[-1] / s[0])
    if not cond >= 1e-8:
        raise RuntimeError(
            "mode %d sector %d constraint rows lost rank: s_min/s_max = %.3e" % (n, j, cond)
        )
    null = vh[s.size :].T
    info = {
        "n": int(n),
        "j": int(j),
        "rows_kept": int(cmat.shape[0]),
        "dim": int(null.shape[1]),
        "row_conditioning": cond,
        "kernel_columns": (),
    }
    kern = _kernel_fields(cfg, j) if n == 0 else []
    if not kern:
        return e @ null, info

    # mode 0: install the sector's known kernel as exact leading columns;
    # each field's nodal coordinates are a unit phase times real ones, and
    # E^T M_u reads its coefficients
    nk = len(kern)
    units = _sector_units(cfg, j).reshape(e.shape[0], -1)
    kc = np.conj(units) @ np.array(kern).T
    big = kc[np.argmax(np.abs(kc), axis=0), np.arange(nk)]
    kc = e.T @ _unit_weight(ws.tables, cfg, j, (kc * (np.conj(big) / np.abs(big))).real)
    kc /= np.linalg.norm(kc, axis=0)
    worst = np.max(np.linalg.norm(cmat @ kc, axis=0))
    if worst > 1e-8:
        raise RuntimeError("known kernel fields violate the mode-0 constraints by %.3e" % worst)
    # each kernel field lies in the nullspace span, and the complement of
    # their coordinates there, projected against the kernel, spans the
    # rest; within a sector the kernel fields have disjoint supports, so
    # they are orthogonal and need only be normalized
    coef = null.T @ kc
    dist = np.linalg.norm(kc - null @ coef, axis=0) ** 2
    if not np.all(dist < 1e-8):
        raise RuntimeError(
            "mode-0 kernel deflation expected exactly %d null directions in "
            "sector %d, got squared relative distances %s of the kernel fields "
            "from the nullspace" % (nk, j, dist)
        )
    comp = null @ np.linalg.qr(coef, mode="complete")[0][:, nk:]
    info["kernel_columns"] = tuple(range(nk))
    return e @ np.concatenate([kc, comp - kc @ (kc.T @ comp)], axis=1), info


# ---------------------------------------------------------------------------
# strong application and assembly


def _apply_A_slice(ws, n, varr, lo=None):
    """Strong operator A = -mu P laplacian + grad Q on one axial slice.

    varr (..., 3, n_m, n_r) on the channels lo..hi, the symmetric band by
    default -> same shape, truncated to those channels.
    """
    t = ws.tables
    cfg = ws.config
    beta = cfg.beta(n)
    lap = apply_stack(_stacks(t, varr, lo).lap, varr) - beta * beta * varr
    # -mu P lap v = -mu lap v + mu grad(phi) with laplacian(phi) = div lap v,
    # so one solve with forcing mu lap v yields the whole pressure Q v + mu phi,
    # one channel wider on each side, and its gradient two
    qb = _q_slice(ws, n, varr, cfg.mu * lap, lo)
    out = -cfg.mu * lap
    gx, gy = _dxy(t, qb, None if lo is None else lo - 1)
    out[..., 0, :, :] += gx[..., 2:-2, :]
    out[..., 1, :, :] += gy[..., 2:-2, :]
    out[..., 2, :, :] += 1j * beta * qb[..., 1:-1, :]
    return out


def strong_blocks(op):
    """Strong blocks and leaks of a mode's built sectors: (A, leak).

    A (S, K_max, K_max) is a packed real stack of blocks: entry j
    holds (A b_c, b_i) over sector j's columns, zero on the padding, and
    stands for its mirror -j too. A is applied to each sector's window
    fields on its reach, the window [lo - 2, hi + 2] clipped to the band,
    which holds all of A b: the block is b^H (W A b) on the window. leak
    (S,) is the relative Euclidean norm of A b outside the sector's unit
    embedding, which bounds every off-sector entry of (A b_c, b_i). Nothing
    is cached here (verify keeps each mode's result in Workspace.strong);
    the owning workspace must be alive.

    Raises:
        RuntimeError if a block's imaginary part exceeds 1e-12 of its norm.
    """
    ws = op.ws()
    cfg = ws.config
    a = np.zeros(op.Z.shape[:2] + op.Z.shape[1:2])
    leak = np.zeros(len(op.info))
    # widest reach first, so each cached stack is built once on its band
    for j in reversed(range(len(op.info))):
        (lo, hi), k = _sector_window(cfg, j), op.info[j]["dim"]
        rlo, rhi = max(lo - 2, -cfg.n_theta), min(hi + 2, cfg.n_theta)
        win = slice(lo - rlo, hi - rlo + 1)
        fields = _sector_fields(cfg, j, op.Z[j, :k].T)
        barr = np.zeros((k, 3, rhi - rlo + 1, cfg.n_r), dtype=complex)
        barr[:, :, win] = fields
        ab = _apply_A_slice(ws, op.n, barr, rlo)
        wab = _apply_weight(ws.tables, cfg.ell, ab, rlo)[:, :, win]
        block = fields.reshape(k, -1).conj() @ wab.reshape(k, -1).T
        if np.linalg.norm(block.imag) > 1e-12 * np.linalg.norm(block):
            raise RuntimeError(
                "mode %d sector %d strong block is not real: relative imaginary part %.3e"
                % (op.n, j, np.linalg.norm(block.imag) / np.linalg.norm(block))
            )
        a[j, :k, :k] = block.real
        total = np.linalg.norm(ab)
        # the unit embedding lives on the sector's window
        units = _sector_units(cfg, j).reshape(-1, fields[0].size)
        abw = ab[:, :, win].reshape(k, -1)
        ab[:, :, win] = (abw - (abw @ units.conj().T) @ units).reshape(fields.shape)
        leak[j] = np.linalg.norm(ab) / total
    return a, leak


def _dissipation_factor(t, cfg, j, z, beta):
    """F^T for sector j's coordinates z (k, K): (K, 6 n_r) reals, |F y|^2 the dissipation of z y.

    The rows of z are the sector's real radial profiles a (u+ at
    m = j + 1), b (u- at m = j - 1) and c (i u_z at m = j): the field
    v_x + i v_y = sqrt(2) a, v_x - i v_y = sqrt(2) b, v_z = i c. Its
    strain E_ij = D_j v_i + D_i v_j, read in the helical frame of the
    unitary Q = _PIECE_VECTORS (columns q+, q-, q_z) as E' = Q^H E conj(Q),
    keeps its Frobenius norm and its symmetry. With d/dx + i d/dy = U
    (raising), d/dx - i d/dy = D (lowering), d/dz = i beta and
    h = 1/sqrt(2), e.g. E'_++ = q-^T E q- = h^2 (E_xx + 2i E_xy - E_yy)
    = U (v_x + i v_y), and the six distinct entries are real profiles:
      E'_++ = sqrt(2) U_{j+1} a                on m = j + 2,
      E'_-- = sqrt(2) D_{j-1} b                on m = j - 2,
      E'_+- = E'_-+ = h (D_{j+1} a + U_{j-1} b)  on m = j,
      E'_zz = 2 beta c                         on m = j,
      E'_+z = E'_z+ = beta a + h U_j c          on m = j + 1,
      E'_-z = E'_z- = beta b + h D_j c          on m = j - 1.
    The dissipation (mu/2) 2 pi ell sum |E'|^2 is then six real blocks:
    each profile through the factor L^T of its channel's Gram (L L^T = Gram),
    times sigma = sqrt(pi mu ell) and the square root of its multiplicity
    (2 for the off-diagonal pairs), all read off t.stacks(j - 2, j + 2).
    """
    nr = cfg.n_r
    a, b, c = z[:nr].T, z[nr : 2 * nr].T, z[2 * nr :].T
    st = t.stacks(j - 2, j + 2)
    lt, up, down = st.factor, st.raising, st.lowering
    # index i of the stacks is channel j - 2 + i; a block is its profile
    # rows times (L^T X)^T, X the raising or lowering stack (if any) that
    # carries them into the block's channel
    s = math.sqrt(math.pi * cfg.mu * cfg.ell)
    s2 = math.sqrt(2.0) * s
    return np.concatenate(
        [
            s2 * (a @ (lt[4] @ up[3]).T),
            s2 * (b @ (lt[0] @ down[1]).T),
            s * (a @ (lt[2] @ down[3]).T + b @ (lt[2] @ up[1]).T),
            2.0 * s * beta * (c @ lt[2].T),
            s2 * (beta * (a @ lt[3].T) + _H * (c @ (lt[3] @ up[2]).T)),
            s2 * (beta * (b @ lt[1].T) + _H * (c @ (lt[1] @ down[2]).T)),
        ],
        axis=1,
    )


def assemble_A(ws, n):
    """Assemble mode n sector by sector, in the eigenbasis of its pencil.

    Only the complete sectors j = 0..n_theta-1 are built, each on its
    channel window: its constrained basis Z (build_constrained_basis), real
    coordinates on its unit fields with L^2-orthonormal columns, so M = I
    to roundoff, and G = F^T F from the six helical strain blocks of its
    profiles (_dissipation_factor). The pencil is one plain symmetric eigh
    of G on the non-kernel columns, and each eigenvalue is taken as the
    Rayleigh quotient of its eigenvector on the same F. Each record gains
    the Frobenius norms eps_M and eps_G of V^T M V - I and
    V^T G V - diag(w), and kernel_coupling, that norm of G's kernel rows
    over G's (0 without kernel columns). The sectors are packed into the
    real stacks of ModeOperator. The mirror sector -j is sector j read on
    the mirrored pieces (_mirror_piece): the other half of its stack entry,
    with sector j's arrays and eigenvalues. order ranks the eigenvalues of
    all sectors in ascending order.
    Returns a ModeOperator; use mode_operator for the cached accessor.

    Raises:
        RuntimeError at n = 0 if the mirrored sector -1 does not lead with
        its kernel field e1 - i e2.
    """
    cfg = ws.config
    t = ws.tables
    beta = cfg.beta(n)
    built = []
    for j in range(cfg.n_theta):
        z, info = build_constrained_basis(ws, n, j)
        f = _dissipation_factor(t, cfg, j, z, beta)
        # the installed kernel columns lead the sector and are deflated; the
        # columns are L^2-orthonormal, so the pencil is G's own eigh, and
        # numpy runs each f @ f.T as one syrk, so G = F^T F is exactly symmetric
        nk = len(info["kernel_columns"])
        v = np.eye(z.shape[1])
        _, v[nk:, nk:] = np.linalg.eigh(f[nk:] @ f[nk:].T)
        z, fv = z @ v, v.T @ f
        zw = _unit_weight(t, cfg, j, z)
        m, g = z.T @ zw, fv @ fv.T
        m = 0.5 * (m + m.T)
        # every eigenvalue as its Rayleigh quotient |F v_c|^2 / M_cc:
        # nonnegative, and accurate to its own size, not to eps lam_max
        w = np.diag(g) / np.diag(m)
        # Frobenius norms bound the spectral norms, at no eigensolve's cost
        info["eps_M"] = float(np.linalg.norm(m - np.eye(w.size)))
        info["eps_G"] = float(np.linalg.norm(g - np.diag(w)))
        info["kernel_coupling"] = float(np.linalg.norm(g[:nk]) / np.linalg.norm(g))
        res = np.linalg.norm(g - m * w, axis=0) / np.sqrt(np.diag(m))
        built.append((info, z, zw, w, res))

    # the packed real stacks; a sector and its mirror -j share a stack
    # entry, sides 0 and 1 of the packed coordinates and of _slot_tables
    k_max = max(w.size for *_, w, _ in built)
    zs = np.zeros((len(built), k_max, 3 * cfg.n_r))
    zws = np.zeros_like(zs)
    mirrored, own = [], []
    for j, (info, z, zw, w, res) in enumerate(built):
        k = z.shape[1]
        zs[j, :k], zws[j, :k] = z.T, zw.T
        index = 2 * (j * k_max + np.arange(k))
        own.append((index, w, res))
        if j > 0:
            mirrored.insert(0, (index + 1, w, res))
    index, w, res = (np.concatenate(a) for a in zip(*(mirrored + own)))
    # ascending order, ties in the order of sectors (j = -J..J)
    rank = np.argsort(w, kind="stable")
    packed = np.zeros(zs.shape[0] * k_max * 2)
    packed[index] = w
    op = ModeOperator(
        n=int(n),
        info=tuple(info for info, *_ in built),
        eigen=(w[rank], res[rank]),
        Z=zs,
        ZW=zws,
        w=packed,
        order=index[rank],
        ws=weakref.ref(ws),
    )
    if n == 0:
        _check_mirrored_kernel(op)
    return op


def _check_mirrored_kernel(op):
    """Raise RuntimeError unless sector -1 of mode 0, the mirror of entry 1, leads with e1 - i e2.

    Its first column, synthesized by _synthesize as every request reads
    it, must equal the kernel field of _kernel_fields(cfg, -1) at
    unit L^2 norm to 1e-12 on the sector's window, so the kernel check
    still covers every sector and the mirror that serves it.
    """
    ws = op.ws()
    cfg = ws.config
    lo, hi = _sector_window(cfg, -1)
    kern = _kernel_fields(cfg, -1)[0]
    wkern = _apply_weight(ws.tables, cfg.ell, kern.reshape(1, 3, -1, cfg.n_r), lo)
    kern = kern / np.sqrt(np.vdot(kern, wkern.reshape(-1)).real)
    unit = np.zeros((op.w.size, 1))
    unit[2 * op.Z.shape[1] + 1] = 1.0
    col = _synthesize(ws, op.Z, unit)[_window_rows(cfg, lo, hi), 0]
    err = np.max(np.abs(col - kern)) / np.max(np.abs(kern))
    if not err <= 1e-12:
        raise RuntimeError(
            "mirrored sector -1 of mode 0 does not lead with e1 - i e2: relative "
            "deviation %.3e" % err
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


# ---------------------------------------------------------------------------
# reduction to and expansion from field coordinates


@dataclasses.dataclass(frozen=True)
class FieldOperator:
    """The modes n = 0..n_z of a workspace as one whole-field operator.

    Every mode has the same packed layout, so their stacks stack: Z and ZW
    (n_z + 1, S, K_max, 3 n_r) hold each mode's Z and ZW at index n, and
    the cached ModeOperators' Z and ZW are views of them, the only copy.
    w (n_z + 1, dim, 2) holds the eigenvalues of the field coordinates, 0
    on the padding, side 1 of |n| = 0 included, stored side-major, as
    reduce_slice stores coordinates. eps_M and eps_G (n_z + 1, dim, 1)
    give each coordinate, on either side, its sector's record
    (assemble_A); the padding, where coordinates are zero, carries its
    stack entry's. spectrum (n_z + 1, dim) holds each mode's eigenvalues at
    their packed indices, +inf on the padding, and scale (n_z + 1,) each
    mode's max(max |w|, 1), the resolvent's gap check
    (spectral._pencil_solve). Every array is read-only.
    """

    Z: np.ndarray
    ZW: np.ndarray
    w: np.ndarray
    eps_M: np.ndarray
    eps_G: np.ndarray
    spectrum: np.ndarray
    scale: np.ndarray


def _stack_modes(ws):
    """Stack the ModeOperators of modes 0..n_z into a FieldOperator.

    Each mode is built by mode_operator if it is not yet. Once every mode
    is checked, each is copied into the stacks and replaced in the cache
    by the same operator on views of them, one mode at a time, so its own
    arrays are freed as it goes.

    Raises:
        RuntimeError naming the first mode whose stacks differ in shape
        from mode 0's.
    """
    n_z = ws.config.n_z
    op = mode_operator(ws, 0)
    dim = op.w.size
    z = np.empty((n_z + 1,) + op.Z.shape)
    for a in range(1, n_z + 1):
        op = mode_operator(ws, a)
        if op.Z.shape != z.shape[1:]:
            raise RuntimeError(
                "mode %d does not share mode 0's packed layout: stacks %s against %s"
                % (a, op.Z.shape, z.shape[1:])
            )
    zw = np.empty_like(z)
    w = np.zeros((n_z + 1, 2, dim))
    eps = np.zeros((2, n_z + 1, dim, 1))
    spectrum = np.full((n_z + 1, dim), np.inf)
    for a in range(n_z + 1):
        op = ws.mode_ops[a]
        z[a], zw[a] = op.Z, op.ZW
        ws.mode_ops[a] = dataclasses.replace(op, Z=z[a], ZW=zw[a])
        # side 1 of |n| = 0 is padding
        w[a, : 1 + (a > 0)] = op.w
        spectrum[a, op.order] = op.eigen[0]
        rec = [[info["eps_M"], info["eps_G"]] for info in op.info]
        eps[:, a, :, 0] = np.repeat(rec, dim // len(op.info), axis=0).T
    scale = np.maximum(np.max(np.abs(w), axis=(1, 2)), 1.0)
    w = w.transpose(0, 2, 1)
    fop = FieldOperator(z, zw, w, eps[0], eps[1], spectrum, scale)
    for a in vars(fop).values():
        a.flags.writeable = False
    return fop


def field_operator(ws):
    """The cached FieldOperator of ws, stacked on its first field-level use."""
    if ws.field_op is None:
        ws.field_op = _stack_modes(ws)
    return ws.field_op


def _sided_slices(flat, n_z, width):
    """The slices (n_z + 1, width, 3, n_m, n_r, L) of fields flat (L, 3, n_modes_z, n_m, n_r).

    Side 0 of |n| is mode +|n|; side 1 is mode -|n|, conjugated and
    m-reversed, and zero at |n| = 0. The stack axis comes last.
    """
    g = np.empty((n_z + 1, width, 3) + flat.shape[3:] + flat.shape[:1], dtype=complex)
    gt = g.transpose(1, 5, 2, 0, 3, 4)
    gt[0] = flat[:, :, n_z:]
    if width == 2:
        gt[1, :, :, 0] = 0.0
        _conj_flip(flat[:, :, :n_z][:, :, ::-1], out=gt[1, :, :, 1:])
    return g


def reduce_slice(ws, arr, real=False):
    """Functional values r_i = (g, b_i) of a field g, or of a stack of fields.

    arr is (..., 3, n_modes_z, n_m, n_r); the result is the field
    coordinate array (n_z + 1, dim, 2, ...), stack axes trailing.
    [|n|, :, 0] holds mode +|n| and [|n|, :, 1] mode -|n|, conjugated and
    m-reversed first, in the packed layout of ModeOperator; the padding,
    side 1 of |n| = 0 included, is zero. r = (M_u z)^T P on the slots of
    the piece array P is one pass for every mode and both signs of n: one
    3x3 piece transform, one take through the slot table (_slot_tables)
    and one batched real product over (mode, side) (field_operator). The
    result is stored as the product leaves it, (n_z + 1, 2, dim, ...) in
    memory. The basis is M-orthonormal: these are also the L^2 projection
    coordinates.

    With real, the fields are real: only the slices n >= 0 are read, and
    the result holds side 0 only, (n_z + 1, dim, 1, ...), bitwise side 0
    of the two-sided result; side 1 would repeat it.
    """
    fop = field_operator(ws)
    slots, inverse = _slot_tables(ws)
    n_z = ws.config.n_z
    lead = arr.shape[:-4]
    flat = arr.reshape((-1,) + arr.shape[-4:])
    width = 1 if real else 2
    g = _sided_slices(flat, n_z, width)
    # the piece array of each slice, and the zero entry that padding reads;
    # each intermediate is freed before the next is taken
    size = inverse.size
    p = np.empty(g.shape[:2] + (size + 1, flat.shape[0]), dtype=complex)
    p[:, :, size] = 0.0
    cols = g.shape[:3] + (-1,)
    np.matmul(_PIECES_OF, g.reshape(cols), out=p[:, :, :size].reshape(cols))
    del g
    x = np.take(p, slots, axis=2)
    del p
    # (mode, side, sector) batch the products: each is (K, 3 n_r) by (3 n_r, 4 L)
    x = x.reshape(x.shape[:4] + (-1,)).view(float)
    y = np.matmul(fop.ZW[:, None], x).view(complex)
    del x
    return np.moveaxis(y.reshape(y.shape[:2] + (-1,) + lead), 1, 2)


def expand_slice(ws, y):
    """Fields (..., 3, n_modes_z, n_m, n_r) of field coordinates y (inverse of reduce_slice).

    y is (n_z + 1, dim, 2, ...); its padding, side 1 of |n| = 0 included,
    does not contribute, and side 1 is conjugated and m-reversed back onto
    mode -|n|. Every mode and side is one pass of _synthesize: one batched
    real product Z^T y, one take through the inverse slot table and one
    3x3 transform from the pieces. A y of width 1 on the side axis holds
    real fields (reduce_slice with real): only modes n >= 0 are
    synthesized, and mode -n is mirrored from mode n.
    """
    fop = field_operator(ws)
    cfg = ws.config
    n_z = cfg.n_z
    lead = y.shape[3:]
    num = math.prod(lead)
    # the coordinates as the products read them, (n_z + 1, width, dim, L)
    x = np.moveaxis(y.reshape(y.shape[:3] + (num,)), 2, 1)
    v = _synthesize(ws, fop.Z[:, None], x)
    # side 0 onto the modes +|n|, side 1 flipped back onto -|n|, |n| > 0
    v = v.reshape(v.shape[:2] + (3, cfg.n_modes_theta, cfg.n_r, num)).transpose(1, 5, 2, 0, 3, 4)
    out = np.empty((num, 3, cfg.n_modes_z, cfg.n_modes_theta, cfg.n_r), dtype=complex)
    out[:, :, n_z:] = v[0]
    if y.shape[2] == 1:
        _mirror_modes(out)
    else:
        _conj_flip(v[1, :, :, :0:-1], out=out[:, :, :n_z])
    return out.reshape(lead + out.shape[1:])


def project_constrained(ws, v):
    """L^2-orthogonal projection of a field onto the constrained subspace.

    Returns (projected VectorField, its field coordinates): the basis is
    M-orthonormal, so these are the reduced functionals (reduce_slice),
    both sides of every mode, or side 0 only, (n_z + 1, dim, 1), when v is
    flagged real, as the projection then is. v must be on ws.config
    (ValueError otherwise).
    """
    _require_config(ws, v, "project_constrained: field")
    y = reduce_slice(ws, v.coeffs, real=v.real_flag)
    return _field(VectorField, ws.config, expand_slice(ws, y), v.real_flag), y


def random_constrained_vector(ws, rng):
    """Random unit-norm member of the constrained subspace."""
    f = random_smooth_vector(ws.config, rng, real=False)
    return _normalized(project_constrained(ws, f)[0])
