"""Coefficient-space fields on the periodic cylinder.

A scalar field u(r, theta, z) is stored as complex coefficients
u[n, m, :] of exp(2*pi*i*n*z/ell) * exp(i*m*theta), with radial profiles on
the half Chebyshev-Lobatto grid of discretization.RadialTables. Axial index
0 corresponds to n = -n_z, azimuthal index 0 to m = -n_theta. Velocity
fields keep three Cartesian components; Cartesian components stay smooth
through the axis r = 0, unlike cylindrical ones.

ScalarField and VectorField share one dataclass body (_Field): the
shape check, copy and the arithmetic + - * and unary -, each of which
keeps the kind. They differ only in their leading axes, none for a
scalar and (3,) for a vector, and in the vector's x/y/z component views.
The random generators share one draw, which symmetrizes to the real
part when asked, and one unit-L^2 normalization (_normalized, also used
by stokesop.random_constrained_vector).

real_flag is a contract: a field flagged real has Hermitian-symmetric
coefficients, c[..., -n, -m, :] = conj(c[..., n, m, :]) to roundoff. It is
checked where realness enters: a caller passing real_flag=True to a
constructor (ValueError naming the defect), fieldio.read_field and
scalar_from_profile. Everything that derives a field from checked ones
(arithmetic, grad, div, laplacian, the constants and random generators,
which symmetrize exactly, and the solvers of helmholtz, stokesop and
evolution) sets the flag through _field, which does not check again. The
mode -n slices of a real field repeat the mode n ones (_conj_flip), so
inner_product_Hkp of two real fields and grad of a real one compute the
slices n >= 0 only, weigh each n > 0 twice where they sum, and mirror
(_mirror_modes) where they return a field. The complex path is the same
code over all slices.

Derivatives in x and y couple azimuthal neighbors through the raising and
lowering combinations (d/dr -+ m/r); multiplication by x or y couples them
through r/2 shifts. The internal helpers therefore return arrays on a
widened azimuthal band, and public operations truncate back to the stored
band. Truncation is exact whenever the input keeps band margins, which the
random field generators guarantee via their margin arguments.

The helpers act on raw arrays with any leading axes, so one call serves an
axial slice (..., 3, n_m, n_r) or a stack of them, and each stack product
runs as one batched GEMM (discretization.apply_stack). _dxy is the one
derivative kernel: with up and down the raising and lowering applications,
d/dx = (up + down)/2 and d/dy = -i (up - down)/2, so every caller gets both
derivatives from two stack applications. _div_slice is the one divergence
kernel, built on the same identity: d/dx v1 + d/dy v2 = up(v1 - i v2)/2 +
down(v1 + i v2)/2, again two applications; div, the Helmholtz projection
and the constraint rows of stokesop all call it. The Sobolev inner product
weighs each transversal order by the full derivative tensor, |grad^j u|^2,
which is invariant under rotations about the axis. It differentiates
nothing at request time: RadialTables.sobolev_words holds, per order j,
all 2^j words of raising and lowering applications already multiplied by
2^(-j/2) times the factor of the disk Gram, so one order of a
field, all components at once, costs one batched real GEMM and one sum of
squares of its outputs. The GEMM outputs of each order (_word_outputs)
and their form (_form) are separate steps, so a caller can read more than
the form from one pass: the order-0 outputs are the field's
values, whose differences give L^2 distances (_norms_and_increments), and a
scalar's order-0 and order-1 outputs give the norm of its gradient on
the stored band (_grad_norm_sq). The field-level div and laplacian are
reference operators that the tests check closed forms and solves
against.

An array's channels need not be the symmetric band: the stack kernels
(_up_down, _dxy, _div_slice) take lo, the azimuthal mode of channel index
0, and read the stacks of the contiguous range lo..hi (_stacks). Fields
leave it unset and get -b..b; an angular-momentum sector of stokesop passes
its own window, so its kernels never touch a channel outside it. Padding
and band widening act on both ends alike, so they serve either kind.
"""

import dataclasses
import functools
import math

import numpy as np

from .discretization import _channels_first, _channels_last, apply_stack, tables_for

# Highest Sobolev order the inner product supports.
MAX_SOBOLEV_ORDER = 4

# relative Hermitian defect a field may carry when a caller flags it real
REAL_TOL = 1e-12


def _as_order(k):
    if not isinstance(k, int) or not 0 <= k <= MAX_SOBOLEV_ORDER:
        raise ValueError(
            "Sobolev order must lie in 0..%d, got %r" % (MAX_SOBOLEV_ORDER, k)
        )
    return k


@dataclasses.dataclass
class _Field:
    """The body ScalarField and VectorField share.

    Attributes:
        config: DomainConfig the coefficients refer to.
        coeffs: complex array _lead + (2*n_z+1, 2*n_theta+1, n_r).
        real_flag: whether the field is real valued: its coefficients
            satisfy c[..., -n, -m, :] = conj(c[..., n, m, :]) to roundoff
            (relative defect at most REAL_TOL). Passing True checks it
            (ValueError otherwise); the default is False, which holds for
            any coefficients.

    Arithmetic (+, -, unary -, multiplication by a scalar) keeps the kind;
    a result is real when its operands are and the scalar has no
    imaginary part. Mixing kinds or configs raises ValueError.
    """

    config: object
    coeffs: np.ndarray
    real_flag: bool = False

    def __post_init__(self):
        self._check_shape()
        if self.real_flag:
            _check_hermitian(self.coeffs, type(self).__name__)

    def _check_shape(self):
        cfg = self.config
        want = self._lead + (cfg.n_modes_z, cfg.n_modes_theta, cfg.n_r)
        if self.coeffs.shape != want:
            raise ValueError(
                "%s coefficient shape %s does not match config %s"
                % (type(self).__name__, self.coeffs.shape, want)
            )

    def copy(self):
        return _field(type(self), self.config, self.coeffs.copy(), self.real_flag)

    def _binary(self, other, op):
        if type(other) is not type(self) or other.config != self.config:
            raise ValueError("field mismatch in arithmetic")
        return _field(
            type(self),
            self.config,
            op(self.coeffs, other.coeffs),
            self.real_flag and other.real_flag,
        )

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, scalar):
        out_real = self.real_flag and getattr(scalar, "imag", 0.0) == 0.0
        return _field(type(self), self.config, self.coeffs * scalar, out_real)

    __rmul__ = __mul__

    def __neg__(self):
        return _field(type(self), self.config, -self.coeffs, self.real_flag)


def _field(kind, config, coeffs, real_flag):
    """kind(config, coeffs, real_flag) without the symmetry check.

    For results whose realness follows from inputs that were checked:
    arithmetic, derivatives, the generators and the solvers. The shape is
    still checked.
    """
    f = object.__new__(kind)
    f.config, f.coeffs, f.real_flag = config, coeffs, bool(real_flag)
    f._check_shape()
    return f


def _conj_flip(arr, out=None):
    """The conjugate m-reversal of slices (..., n_m, n_r), written to out when given.

    For a real field, mode -n is the conjugate m-reversal of mode n; the
    one mirror between the two signs of n.
    """
    return np.conjugate(arr[..., ::-1, :], out=out)


def _mirror_modes(arr):
    """Write the slices n < 0 of arr (..., 2 n_z + 1, n_m, n_r) from those n > 0, in place.

    This makes arr the coefficients of a real field whose slices n >= 0
    it holds. Returns arr.
    """
    n_z = arr.shape[-3] // 2
    _conj_flip(arr[..., : n_z : -1, :, :], out=arr[..., :n_z, :, :])
    return arr


def _whole(half):
    """The slices (..., 2 h - 1, n_m, n_r) of a real field from its slices n >= 0 (..., h, ...)."""
    h = half.shape[-3]
    out = np.empty(half.shape[:-3] + (2 * h - 1,) + half.shape[-2:], dtype=complex)
    out[..., h - 1 :, :, :] = half
    return _mirror_modes(out)


def _check_hermitian(coeffs, what):
    """Raise ValueError unless coeffs are Hermitian symmetric to REAL_TOL (relative)."""
    defect = np.linalg.norm(coeffs - _conj_flip(coeffs[..., ::-1, :, :]))
    scale = np.linalg.norm(coeffs)
    if not defect <= REAL_TOL * scale:
        raise ValueError(
            "%s is flagged real, but its coefficients are not Hermitian symmetric: "
            "c[-n, -m] differs from conj(c[n, m]) by %.3e relative to the field"
            % (what, defect / scale)
        )


class ScalarField(_Field):
    """Scalar field in coefficient space, coeffs (2*n_z+1, 2*n_theta+1, n_r)."""

    _lead = ()


def _component(c):
    """Property: component c of a VectorField as a ScalarField view (shares memory)."""
    return property(lambda self: _field(ScalarField, self.config, self.coeffs[c], self.real_flag))


class VectorField(_Field):
    """Velocity field with Cartesian components stacked on the first axis."""

    _lead = (3,)
    x, y, z = map(_component, range(3))


@dataclasses.dataclass
class TraceField:
    """Boundary values on the free surface r = kappa.

    coeffs[n, m] multiplies exp(2*pi*i*n*z/ell) * exp(i*m*theta); the
    azimuthal band may exceed the field band, e.g. for traction traces.
    """

    config: object
    coeffs: np.ndarray
    band: int

    def __post_init__(self):
        want = (self.config.n_modes_z, 2 * self.band + 1)
        if self.coeffs.shape != want:
            raise ValueError(
                "trace coefficient shape %s does not match band %d"
                % (self.coeffs.shape, self.band)
            )


def _require_config(ws, field, role):
    """Raise ValueError unless field (or trace) lives on the workspace's config."""
    if field.config != ws.config:
        raise ValueError(
            "%s is on %r, but the workspace is on %r" % (role, field.config, ws.config)
        )


# ---------------------------------------------------------------------------
# constructors


def zeros_scalar(config):
    return ScalarField(
        config,
        np.zeros((config.n_modes_z, config.n_modes_theta, config.n_r), dtype=complex),
    )


def zeros_vector(config):
    return VectorField(
        config,
        np.zeros(
            (3, config.n_modes_z, config.n_modes_theta, config.n_r), dtype=complex
        ),
    )


def constant_scalar(config, value):
    f = zeros_scalar(config)
    f.coeffs[config.n_z, config.n_theta, :] = value
    f.real_flag = getattr(value, "imag", 0.0) == 0.0
    return f


def constant_vector(config, values):
    f = zeros_vector(config)
    for c in range(3):
        f.coeffs[c, config.n_z, config.n_theta, :] = values[c]
    f.real_flag = all(getattr(v, "imag", 0.0) == 0.0 for v in values)
    return f


def scalar_from_profile(config, n, m, profile, real_flag=False):
    """Single-mode scalar field with the given radial profile.

    real_flag=True needs (n, m) = (0, 0) and a real profile, the only
    single-mode fields that are real (ValueError otherwise).
    """
    if real_flag:
        if (n, m) != (0, 0):
            raise ValueError(
                "scalar_from_profile: a field at the single mode (n, m) = (%d, %d) "
                "is not real; only (0, 0) is" % (n, m)
            )
        if np.any(np.imag(profile) != 0.0):
            raise ValueError("scalar_from_profile: a real field needs a real profile")
    f = zeros_scalar(config)
    f.coeffs[config.n_z + n, config.n_theta + m, :] = profile
    f.real_flag = bool(real_flag)
    return f


def rigid_rotation(config):
    """The rigid rotation field (-y, x, 0)."""
    t = tables_for(config)
    one = np.zeros((config.n_modes_theta, config.n_r), dtype=complex)
    one[config.n_theta, :] = 1.0
    f = zeros_vector(config)
    f.coeffs[0, config.n_z] = _truncate(-_mul_y(t, one), config.n_theta)
    f.coeffs[1, config.n_z] = _truncate(_mul_x(t, one), config.n_theta)
    f.real_flag = True
    return f


# ---------------------------------------------------------------------------
# band-aware raw-array helpers (leading axes pass through)


def _band(arr):
    return (arr.shape[-2] - 1) // 2


def _truncate(arr, band_out):
    b = _band(arr)
    if band_out > b:
        return _pad(arr, band_out - b)
    cut = b - band_out
    if cut == 0:
        return arr
    return arr[..., cut:-cut, :]


def _widened(arr, extra=1):
    """Zeros shaped like arr on band + extra."""
    shape = arr.shape[:-2] + (arr.shape[-2] + 2 * extra, arr.shape[-1])
    return np.zeros(shape, dtype=complex)


def _pad(arr, extra):
    if extra == 0:
        return arr
    out = _widened(arr, extra)
    out[..., extra:-extra, :] = arr
    return out


def _stacks(t, arr, lo=None):
    """Stacks of the channels arr carries on its next-to-last axis.

    Channel index 0 is m = lo; by default arr holds the symmetric band
    m = -b..b of a field. A sector passes the low end of its window.
    """
    n = arr.shape[-2]
    if lo is None:
        lo = -((n - 1) // 2)
    return t.stacks(lo, lo + n - 1)


def _up_down(t, a, b=None, lo=None):
    """The raising application to a and the lowering one to b (default a).

    up = (d/dr - m/r) moves channel m to m+1 and down = (d/dr + m/r) moves
    it to m-1. Both products write straight into widened channel-major
    buffers (n_m + 2, n_r, 2k) of floats, the interleaved real view of
    complex values on channels lo - 1..hi + 1, so either becomes a field
    array through _channels_last without a copy. lo is the channel of
    index 0 (see _stacks).
    """
    st = _stacks(t, a, lo)
    ra = _channels_first(a, complex).view(float)
    rb = ra if b is None else _channels_first(b, complex).view(float)
    up = np.empty((ra.shape[0] + 2,) + ra.shape[1:])
    down = np.empty_like(up)
    up[:2] = 0.0
    down[-2:] = 0.0
    np.matmul(st.raising, ra, out=up[2:])
    np.matmul(st.lowering, rb, out=down[:-2])
    return up, down


def _dxy(t, arr, lo=None):
    """The derivative pair (d/dx, d/dy) of arr, both one channel wider each side.

    d/dx = (up + down)/2 and d/dy = -i (up - down)/2 (see _up_down), so one
    raising and one lowering application give both derivatives. lo is the
    channel of index 0 (see _stacks).
    """
    up, down = _up_down(t, arr, lo=lo)
    dx = up + down
    dx *= 0.5
    up -= down
    del down
    dy = up.view(complex)
    dy *= -0.5j
    lead = arr.shape[:-2]
    return _channels_last(dx.view(complex), lead), _channels_last(dy, lead)


def _mul_x(t, arr):
    out = _widened(arr)
    half_r = 0.5 * t.r * arr
    out[..., 2:, :] += half_r
    out[..., :-2, :] += half_r
    return out


def _mul_y(t, arr):
    out = _widened(arr)
    half_r = 0.5 * t.r * arr
    out[..., 2:, :] += -1j * half_r
    out[..., :-2, :] += 1j * half_r
    return out


def _lap2d(t, arr):
    return apply_stack(_stacks(t, arr).lap, arr)


def _axial_factors(config):
    """The factors i*beta_n = 2*pi*i*n/ell, shaped (n_modes_z, 1, 1)."""
    n = np.arange(-config.n_z, config.n_z + 1)
    return (2j * math.pi / config.ell * n)[:, None, None]


# ---------------------------------------------------------------------------
# differential operators


def grad(u):
    """Gradient of a scalar field as a VectorField (slices n >= 0 and a mirror when u is real)."""
    cfg = u.config
    t = tables_for(cfg)
    h = cfg.n_z if u.real_flag else 0
    arr = u.coeffs[h:]
    dx, dy = _dxy(t, arr)
    out = np.empty((3,) + arr.shape, dtype=complex)
    out[0] = _truncate(dx, cfg.n_theta)
    out[1] = _truncate(dy, cfg.n_theta)
    out[2] = _axial_factors(cfg)[h:] * arr
    return _field(VectorField, cfg, _whole(out) if h else out, u.real_flag)


def _div_slice(t, varr, beta, lo=None):
    """Divergence of one or many axial slices varr (..., 3, n_m, n_r).

    The result is one channel wider on each side. beta is the axial
    wavenumber, a scalar or an array broadcasting with the slice axes; lo
    is the channel of index 0 (see _stacks). d/dx v1 + d/dy v2 =
    up(v1 - i v2)/2 + down(v1 + i v2)/2 (see _dxy), so the transversal part
    costs one raising and one lowering application.
    """
    v1 = varr[..., 0, :, :]
    v2 = varr[..., 1, :, :]
    up, down = _up_down(t, v1 - 1j * v2, v1 + 1j * v2, lo)
    up += down
    up *= 0.5
    s = _channels_last(up.view(complex), v1.shape[:-2])
    s[..., 1:-1, :] += 1j * beta * varr[..., 2, :, :]
    return s


def div(v):
    """Divergence of a VectorField as a ScalarField."""
    t = tables_for(v.config)
    beta = _axial_factors(v.config).imag
    s = _div_slice(t, np.moveaxis(v.coeffs, 0, 1), beta)
    return _field(ScalarField, v.config, _truncate(s, v.config.n_theta), v.real_flag)


def _lap3d_arr(t, config, arr):
    return _lap2d(t, arr) + _axial_factors(config) ** 2 * arr


def laplacian(field):
    """Laplacian of a ScalarField or a VectorField (componentwise)."""
    t = tables_for(field.config)
    return _field(
        type(field), field.config, _lap3d_arr(t, field.config, field.coeffs), field.real_flag
    )


# ---------------------------------------------------------------------------
# inner products, norms, traces


@functools.lru_cache(maxsize=None)
def _order_scales(ell, n_z, k, real=False):
    """sqrt(w_j(n)) for the orders j = 0..k, shaped (k + 1, 2*n_z + 1).

    w_j(n) = ell * 2*pi * sum_{i <= k-j} beta_n^(2i) weighs the disk inner
    products of transversal order j in (u, v)_{H^k_p}. With real, only
    n = 0..n_z are held, shaped (k + 1, n_z + 1), and w_j(n) is doubled
    for n > 0, which then stands for -n too.
    """
    n = np.arange(0 if real else -n_z, n_z + 1)
    beta_sq = (2.0 * math.pi * n / ell) ** 2
    sums = np.cumsum(beta_sq ** np.arange(k + 1)[:, None], axis=0)[::-1]
    if real:
        sums[:, 1:] *= 2.0
    out = np.sqrt(2.0 * math.pi * ell * sums)
    out.flags.writeable = False
    return out


def _word_outputs(f, k, real):
    """Each order's derivative words applied to a field: ys for j = 0..k, lazily.

    f's channels are moved first once, so every component and axial slice
    is a pair of interleaved real columns (n_m, n_r, 2 * columns); with
    real, only the slices n >= 0 are read. ys is one real batched GEMM of
    order j's word stack (RadialTables.sobolev_words) with those columns,
    slice n scaled by sqrt(w_j(n)) of H^k_p (_order_scales), shaped
    (2^j, n_m, n_r, 2 * columns). The outputs are linear in f, and the
    sum of squares of order j's is its term of (f, f)_{H^k_p}.
    """
    cfg = f.config
    h = cfg.n_z if real else 0
    words = tables_for(cfg).sobolev_words(cfg.n_theta, k)
    # channels moved first once: (n_m, n_r, component, slice)
    x = _channels_first(f.coeffs[..., h:, :, :])
    x = x.reshape((cfg.n_modes_theta, cfg.n_r, -1, cfg.n_modes_z - h))
    # the last order, the largest product, scales the copy in place and
    # takes no temporary; x is f's own memory when f is a channels-last view
    own = not np.may_share_memory(x, f.coeffs)
    for j, (stack, s) in enumerate(zip(words, _order_scales(cfg.ell, cfg.n_z, k, real))):
        cols = np.multiply(x, s, out=x if own and j == k else None)
        ys = stack @ cols.reshape(x.shape[:2] + (-1,)).view(float)
        del cols
        yield ys


def _form(outputs, total=0.0):
    """total plus (u, u) of every order in outputs, the word outputs ys of _word_outputs.

    Each order is one sum of squares. The outputs of the last order are
    dropped on return, not held by a caller's loop variable into its next
    pass.
    """
    for ys in outputs:
        total += np.vdot(ys, ys)
    return total


def inner_product_Hkp(u, v, k=0):
    """Periodic Sobolev inner product (u, v)_{H^k_p}.

    Sums ell * beta_n^(2i) times the disk inner products (grad^j u,
    grad^j v) of the full transversal derivative tensor of every order
    j <= k - i: order j weighs d_x^(j-p) d_y^p by the multinomial C(j, p).
    This form is invariant under rotations about the axis, and it does not
    couple angular-momentum sectors.

    Each transversal order j is a sum over the precomposed derivative
    words of RadialTables.sobolev_words, 2^-j sum_w (w u, w v): the columns
    of each field are scaled by sqrt(w_j(n)), w_j(n) = ell * 2*pi *
    sum_{i <= k-j} beta_n^(2i), one real batched GEMM applies every word's
    stack to them at once (_word_outputs), and the order adds one dot
    product of the two outputs (one sum of squares when u is v, _form).

    When both fields are real, the slices n < 0 contribute the conjugates
    of the slices n > 0: only n >= 0 are read, each n > 0 weighs twice
    (_order_scales), and the value is the real part.

    Args:
        u, v: fields of the same kind on the same config.
        k: integer order, at most MAX_SOBOLEV_ORDER.

    Returns:
        complex inner product value (real when u is v or both are real).
    """
    kk = _as_order(k)
    if type(u) is not type(v) or u.config != v.config:
        raise ValueError("inner product requires matching fields")
    real = u.real_flag and v.real_flag
    if u is v:
        total = _form(_word_outputs(u, kk, real))
    else:
        total = 0.0
        for yu, yv in zip(_word_outputs(u, kk, real), _word_outputs(v, kk, real)):
            total += np.vdot(yv.view(complex), yu.view(complex))
    return complex(total.real if real else total)


def _slice_sums(y, n_slices):
    """Sums of squares (n_slices,) of word outputs y (..., 2 * columns) per axial slice."""
    y = y.reshape(-1, y.shape[-1])
    return np.einsum("ij,ij->j", y, y).reshape(-1, n_slices, 2).sum(axis=(0, 2))


def _norms_and_increments(fields, k):
    """(f, f)_{H^k_p} and ||f - f_prev||^2_{L^2} for each field after the first, lazily.

    One word pass per field: its form, as inner_product_Hkp forms it, and
    its order-0 outputs, which are the field's values with slice n scaled
    by sqrt(w_0(n)) of H^k_p. The increment is the difference of two
    fields' order-0 outputs, each slice's sum of squares reweighted from
    w_0(n) of H^k_p to that of L^2, so no difference field is formed. The
    passes read the slices n >= 0 only when every field is flagged real,
    so all outputs share their weights; the forms are then bitwise those
    of inner_product_Hkp(f, f, k).
    """
    real = all(f.real_flag for f in fields)
    cfg = fields[0].config
    l2 = _order_scales(cfg.ell, cfg.n_z, 0, real)[0]
    reweight = (l2 / _order_scales(cfg.ell, cfg.n_z, k, real)[0]) ** 2
    prev = next(_word_outputs(fields[0], k, real))
    for f in fields[1:]:
        outputs = _word_outputs(f, k, real)
        values = next(outputs)
        # taken before the higher orders, so the previous outputs are freed first
        increment = float(reweight @ _slice_sums(values - prev, l2.size))
        prev = values
        yield float(_form(outputs, np.vdot(values, values))), increment


def _grad_norm_sq(q):
    """||grad q||^2_{L^2} of a scalar field from its H^1_p word outputs; equals norm_L2(grad(q))**2.

    The order-1 outputs are U q and D q, each already weighed by 2^(-1/2)
    (RadialTables.sobolev_words), and on output channel m, |d/dx q|^2 +
    |d/dy q|^2 = (|U q_(m-1)|^2 + |D q_(m+1)|^2)/2 in the disk norm. grad
    keeps the stored band, so U's top input channel and D's bottom one
    drop out. The order-1 words carry the L^2 weight of each slice; the
    axial part beta_n^2 |q_n|^2 reweighs the order-0 outputs from
    1 + beta_n^2 to beta_n^2.
    """
    y0, y1 = _word_outputs(q, 1, q.real_flag)
    beta_sq = _axial_factors(q.config)[q.config.n_z if q.real_flag else 0 :, 0, 0].imag ** 2
    up, down = y1[0, :-1], y1[1, 1:]
    transversal = np.vdot(up, up) + np.vdot(down, down)
    return float(transversal + (beta_sq / (1.0 + beta_sq)) @ _slice_sums(y0, beta_sq.size))


def norm_Hkp(u, k=0):
    """H^k_p norm of a field."""
    val = inner_product_Hkp(u, u, k).real
    return math.sqrt(max(val, 0.0))


def norm_L2(u):
    return norm_Hkp(u, 0)


def trace_SF(field):
    """Boundary values at r = kappa.

    Scalar fields yield a TraceField; vector fields a tuple of three.
    """
    if isinstance(field, VectorField):
        return tuple(trace_SF(getattr(field, c)) for c in "xyz")
    return TraceField(field.config, field.coeffs[..., 0].copy(), field.config.n_theta)


def trace_norm_L2(tr):
    """L^2(S_F) norm of a TraceField (surface measure kappa dtheta dz)."""
    cfg = tr.config
    val = cfg.kappa * cfg.ell * 2.0 * math.pi * np.sum(np.abs(tr.coeffs) ** 2)
    return math.sqrt(val)


# ---------------------------------------------------------------------------
# random smooth fields


def _draw_smooth_coeffs(config, rng, margin_m, margin_deg, real):
    """One component's smooth coefficients, those of their real part when real."""
    t = tables_for(config)
    coeffs = np.zeros(
        (config.n_modes_z, config.n_modes_theta, config.n_r), dtype=complex
    )
    mb = max(config.n_theta - margin_m, 0)
    for i_n in range(config.n_modes_z):
        for m in range(-mb, mb + 1):
            basis = t.smooth_basis(abs(m))
            depth = max(basis.shape[1] - margin_deg, 1)
            c = rng.standard_normal(depth) + 1j * rng.standard_normal(depth)
            c *= 0.5 ** np.arange(depth)
            coeffs[i_n, config.n_theta + m] = basis[:, :depth] @ c
    if real:
        coeffs = 0.5 * (coeffs + _conj_flip(coeffs[::-1]))
    return coeffs


def _normalized(f):
    """f scaled in place to unit L^2 norm (left alone when zero); returns f."""
    nrm = norm_L2(f)
    if nrm > 0.0:
        f.coeffs /= nrm
    return f


def random_smooth_scalar(config, rng, margin_m=2, margin_deg=2, real=True):
    """Random pole-regular scalar field with band margins.

    The field leaves `margin_m` azimuthal bands and `margin_deg` top radial
    degrees empty, so derivative and coordinate-multiplication chains of
    that combined order remain exactly representable after truncation.
    Draw order is deterministic (n ascending, then m ascending). The result
    is normalized to unit L^2 norm.
    """
    coeffs = _draw_smooth_coeffs(config, rng, margin_m, margin_deg, real)
    return _normalized(_field(ScalarField, config, coeffs, real))


def random_smooth_vector(config, rng, margin_m=2, margin_deg=2, real=True):
    """Random pole-regular vector field, components drawn in x, y, z order."""
    parts = [_draw_smooth_coeffs(config, rng, margin_m, margin_deg, real) for _ in range(3)]
    return _normalized(_field(VectorField, config, np.stack(parts), real))


def random_zero_trace_potential(config, rng, margin_m=2, margin_deg=2, real=True):
    """Random pole-regular scalar field vanishing on the free surface.

    Within each (n, m) channel the boundary value is removed inside the
    smooth span and the boundary node is then zeroed exactly, so gradients
    of these fields are pure potential flows with surface-vanishing
    potential.
    """
    t = tables_for(config)
    coeffs = _draw_smooth_coeffs(config, rng, margin_m, margin_deg, real)
    mb = max(config.n_theta - margin_m, 0)
    for m in range(-mb, mb + 1):
        basis = t.smooth_basis(abs(m))
        depth = max(basis.shape[1] - margin_deg, 1)
        w = basis[0, :depth]
        correction = basis[:, :depth] @ w / (w @ w)
        im = config.n_theta + m
        coeffs[:, im, :] -= np.outer(coeffs[:, im, 0], correction)
        coeffs[:, im, 0] = 0.0
    return _normalized(_field(ScalarField, config, coeffs, real))
