"""Radial collocation tables.

Fields are resolved in Fourier modes exp(i*m*theta) * exp(2*pi*i*n*z/ell)
with radial profiles collocated on a Chebyshev-Lobatto grid. The grid spans
the full diameter [-kappa, kappa], but a profile of azimuthal order m
continues to the negative half axis with parity (-1)^m, so only the n_r
nodes with r > 0 are stored and every differentiation matrix is folded to
half size per parity class. The folded grid contains no node at r = 0;
smoothness through the axis is imposed separately via pole_rows, the
complement of the pole-regular radial span r^|m| * (even polynomial).

Node 0 of a stored profile sits exactly at r = kappa, so boundary traces and
boundary condition rows always address index 0.
"""

import collections
import functools

import numpy as np


def chebyshev_lobatto(n_half, kappa):
    """Chebyshev-Lobatto nodes and derivative matrices on [-kappa, kappa].

    Args:
        n_half: half the node count; the full grid has 2*n_half points and
            no node at zero.
        kappa: half-width of the interval.

    Returns:
        (x, d1, d2): nodes descending from kappa to -kappa, first and second
        derivative matrices. Diagonals use the negative-sum trick so that
        constants differentiate to exactly zero.
    """
    m = 2 * n_half
    i = np.arange(m)
    x = kappa * np.cos(i * np.pi / (m - 1))
    c = np.ones(m)
    c[0] = 2.0
    c[-1] = 2.0
    c *= (-1.0) ** i
    dx = x[:, None] - x[None, :]
    np.fill_diagonal(dx, 1.0)
    d1 = np.outer(c, 1.0 / c) / dx
    np.fill_diagonal(d1, 0.0)
    np.fill_diagonal(d1, -d1.sum(axis=1))
    d2 = d1 @ d1
    np.fill_diagonal(d2, 0.0)
    np.fill_diagonal(d2, -d2.sum(axis=1))
    return x, d1, d2


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


def _channels_first(arr, dtype=None):
    """arr (..., n_channels, q) as one contiguous (n_channels, q, k) array.

    k is the size of the flattened leading axes; the copy is skipped when
    arr already is a _channels_last view.
    """
    lead = tuple(range(arr.ndim - 2))
    b = np.ascontiguousarray(arr.transpose((arr.ndim - 2, arr.ndim - 1) + lead), dtype=dtype)
    return b.reshape(arr.shape[-2:] + (-1,))


def _channels_last(y, lead):
    """The (..., n_channels, p) view of a (n_channels, p, k) array, k = prod(lead)."""
    return y.transpose(2, 0, 1).reshape(lead + y.shape[:2])


def apply_stack(stack, arr):
    """Apply a per-channel matrix stack to the trailing radial axis.

    stack has shape (n_channels, p, q) and arr (..., n_channels, q); the
    result is (..., n_channels, p). Channels lead and the flattened leading
    axes of arr trail, so the whole product is one batched GEMM over
    (n_channels, q, k). A real stack meets a complex arr on its interleaved
    real view (n_channels, q, 2k), so the stack is never cast to complex.
    """
    b = _channels_first(arr)
    if arr.dtype.kind == "c" and stack.dtype.kind != "c":
        y = (stack @ b.view(float)).view(complex)
    else:
        y = stack @ b
    return _channels_last(y, arr.shape[:-2])


def band_views(cached, lo, hi, build):
    """Channels lo..hi of a stack kept on the widest symmetric band asked for.

    cached is None or (band, arrays), where build(band) made the arrays on
    the channels -band..band, one channel per leading index. A range outside
    the cached band builds a wider stack in its place.

    Returns (cached, views): the pair to keep and the arrays' channels lo..hi.
    """
    band = max(-lo, hi)
    if cached is None or cached[0] < band:
        cached = (band, build(band))
    cut = slice(lo + cached[0], hi + cached[0] + 1)
    return cached, tuple(a[cut] for a in cached[1])


# per-channel operator stacks for the azimuthal modes m = lo..hi
_ChannelStacks = collections.namedtuple("_ChannelStacks", "ms raising lowering lap resample gram")


class RadialTables:
    """Folded differentiation, quadrature and resampling tables.

    All quadrature uses quad_order = 2*n_r Gauss-Legendre points on
    (0, kappa), exact for the products of two profiles the grid carries.
    Shared instances come from tables_for / tables_for_key, which cache
    one per (kappa, n_r).

    Args:
        kappa: surface radius.
        n_r: stored radial nodes per profile.
    """

    def __init__(self, kappa, n_r):
        self.kappa = float(kappa)
        self.n_r = int(n_r)
        self.quad_order = 2 * self.n_r

        x, d1, d2 = chebyshev_lobatto(self.n_r, self.kappa)
        self.r = x[: self.n_r]
        self.inv_r = 1.0 / self.r
        mirror = np.arange(2 * self.n_r - 1, self.n_r - 1, -1)

        def fold(mat, parity):
            return mat[: self.n_r, : self.n_r] + parity * mat[: self.n_r, mirror]

        self._d1 = {1: fold(d1, 1.0), -1: fold(d1, -1.0)}
        self._d2 = {1: fold(d2, 1.0), -1: fold(d2, -1.0)}

        t, w = np.polynomial.legendre.leggauss(self.quad_order)
        self.r_quad = 0.5 * self.kappa * (t + 1.0)
        # quadrature weight includes the area measure factor r
        self.w_quad = 0.5 * self.kappa * w * self.r_quad

        b = lagrange_eval_matrix(x, self.r_quad, self.kappa)
        self._resample = {
            1: b[:, : self.n_r] + b[:, mirror],
            -1: b[:, : self.n_r] - b[:, mirror],
        }
        self._gram = {}
        for p in (1, -1):
            g = self._resample[p].T @ (self.w_quad[:, None] * self._resample[p])
            self._gram[p] = 0.5 * (g + g.T)
        self._full, self._stacks = None, {}

    def ddr(self, parity):
        return self._d1[parity]

    def gram(self, parity):
        return self._gram[parity]

    @functools.lru_cache(maxsize=None)
    def lap2d(self, m_abs):
        """Disk Laplacian restricted to azimuthal order m_abs."""
        p = 1 if m_abs % 2 == 0 else -1
        lap = self._d2[p] + self.inv_r[:, None] * self._d1[p]
        if m_abs > 0:
            lap = lap - np.diag((m_abs / self.r) ** 2)
        return lap

    @functools.lru_cache(maxsize=None)
    def smooth_basis(self, m_abs):
        """Columns spanning pole-regular profiles of azimuthal order m_abs.

        The span is (r/kappa)^m_abs times even Chebyshev polynomials in
        r/kappa, cut to the polynomial degrees the diameter grid resolves.
        """
        depth = self.n_r - m_abs // 2
        s = self.r / self.kappa
        v = np.polynomial.chebyshev.chebvander(2.0 * s * s - 1.0, depth - 1)
        return s[:, None] ** m_abs * v

    @functools.lru_cache(maxsize=None)
    def pole_rows(self, m_abs):
        """Rows annihilating exactly the pole-regular span of order m_abs.

        Returns an (m_abs // 2, n_r) array; empty for m_abs < 2. A nodal
        profile of the right parity is smooth through the axis iff these
        rows evaluate to zero on it.
        """
        n_pole = m_abs // 2
        if n_pole == 0:
            return np.zeros((0, self.n_r))
        q, _ = np.linalg.qr(self.smooth_basis(m_abs), mode="complete")
        return q[:, self.n_r - n_pole :].T.copy()

    def stacks(self, lo, hi):
        """Operator stacks for the contiguous channels m = lo..hi (cached).

        A field on the symmetric band b asks for (-b, b); an angular-momentum
        sector asks for its own channel window. Every range is a view of one
        set of stacks (see band_views).
        """
        got = self._stacks.get((lo, hi))
        if got is None:
            full, views = band_views(self._full, lo, hi, self._band_stacks)
            if full is not self._full:
                # views already handed out stay valid; only the new ones are kept
                self._full, self._stacks = full, {}
            got = self._stacks[(lo, hi)] = _ChannelStacks(*views)
        return got

    def _band_stacks(self, band):
        ms = np.arange(-band, band + 1)
        nr = self.n_r
        nm = ms.size
        raising = np.empty((nm, nr, nr))
        lowering = np.empty((nm, nr, nr))
        lap = np.empty((nm, nr, nr))
        resample = np.empty((nm, self.quad_order, nr))
        gram = np.empty((nm, nr, nr))
        for im, m in enumerate(ms):
            p = 1 if m % 2 == 0 else -1
            d = self._d1[p]
            mr = np.diag(m * self.inv_r)
            raising[im] = d - mr
            lowering[im] = d + mr
            lap[im] = self.lap2d(abs(int(m)))
            resample[im] = self._resample[p]
            gram[im] = self._gram[p]
        return ms, raising, lowering, lap, resample, gram


@functools.lru_cache(maxsize=None)
def tables_for_key(kappa, n_r):
    return RadialTables(kappa, n_r)


def tables_for(config):
    """Shared RadialTables instance for a DomainConfig."""
    return tables_for_key(config.kappa, config.n_r)
