"""Radial collocation tables.

Fields are resolved in Fourier modes exp(i*m*theta) * exp(2*pi*i*n*z/ell)
with radial profiles collocated on a Chebyshev-Lobatto grid. The grid spans
the full diameter [-kappa, kappa], but a profile of azimuthal order m
continues to the negative half axis with parity (-1)^m, so only the n_r
nodes with r > 0 are stored and every differentiation matrix is folded to
half size per parity class. The folded grid contains no node at r = 0;
a profile is smooth through the axis iff it lies in the pole-regular span
r^|m| * (even polynomial), which zernike spans orthonormally (pole_rows,
its complement, is the tests' nodal reference).

Node 0 of a stored profile sits exactly at r = kappa, so boundary traces and
boundary condition rows always address index 0.
"""

import collections
import functools
import math

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
_ChannelStacks = collections.namedtuple("_ChannelStacks", "ms raising lowering lap factor gram")


class RadialTables:
    """Folded differentiation tables, disk Grams and their factors.

    A parity's nodal space is exactly the span of the n_r Zernike profiles
    of |m| = 0 (even) or |m| = 1 (odd), whose disk norms are known in closed
    form (_profiles). With Z their nodal values at unit norm, the factor
    L^T = Z^-1 maps a profile to its orthonormal Zernike coefficients, so
    |L^T a|^2 = (a, a), and the Gram is L L^T: no quadrature is needed.
    Shared instances come from tables_for / tables_for_key, which cache one
    per (kappa, n_r).

    Args:
        kappa: surface radius.
        n_r: stored radial nodes per profile.
    """

    def __init__(self, kappa, n_r):
        self.kappa = float(kappa)
        self.n_r = int(n_r)

        x, d1, d2 = chebyshev_lobatto(self.n_r, self.kappa)
        self.r = x[: self.n_r]
        self.inv_r = 1.0 / self.r
        mirror = np.arange(2 * self.n_r - 1, self.n_r - 1, -1)

        def fold(mat, parity):
            return mat[: self.n_r, : self.n_r] + parity * mat[: self.n_r, mirror]

        self._d1 = {1: fold(d1, 1.0), -1: fold(d1, -1.0)}
        self._d2 = {1: fold(d2, 1.0), -1: fold(d2, -1.0)}

        # the factor L^T of each parity inverts its unit-norm Zernike
        # profiles of |m| = 0 or 1, and the Gram is L L^T
        self._gram, self._factor = {}, {}
        for p, m_abs in ((1, 0), (-1, 1)):
            f = self._factor[p] = np.linalg.inv(self._profiles(m_abs, self.n_r))
            self._gram[p] = f.T @ f
        self._full, self._stacks, self._dirichlet = None, {}, None
        self._orders, self._zernike = {}, {}

    def _profiles(self, m_abs, count):
        """Columns k < count: s^m_abs P_k^(0, m_abs)(2 s^2 - 1) at unit disk norm.

        s = r / kappa at the stored nodes, from the Jacobi three-term
        recurrence (Boyd & Yu, JCP 230, 2011). The integral of the square
        over (0, kappa) times r dr is kappa^2 / (2 (2k + m_abs + 1)), so
        column k is scaled by sqrt(2 (2k + m_abs + 1)) / kappa.
        """
        s, b = self.r / self.kappa, float(m_abs)
        x = 2.0 * s * s - 1.0
        p = [np.ones_like(s), 1.0 + 0.5 * (b + 2.0) * (x - 1.0)]
        for k in range(1, count - 1):
            c = 2 * k + b
            lead = (c + 1.0) * (c * (c + 2.0) * x - b * b) * p[k]
            back = 2.0 * k * (k + b) * (c + 2.0) * p[k - 1]
            p.append((lead - back) / (2.0 * (k + 1) * (k + b + 1.0) * c))
        scale = np.sqrt(2.0 * (2 * np.arange(count) + b + 1.0)) / self.kappa
        return s[:, None] ** m_abs * np.stack(p[:count], axis=1) * scale

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
        rows evaluate to zero on it. Set-up takes zernike coefficients
        instead; these rows are the tests' independent reference.
        """
        n_pole = m_abs // 2
        if n_pole == 0:
            return np.zeros((0, self.n_r))
        q, _ = np.linalg.qr(self.smooth_basis(m_abs), mode="complete")
        return q[:, self.n_r - n_pole :].T.copy()

    def zernike(self, m_abs):
        """Disk-orthonormal pole-regular profiles of azimuthal order m_abs (cached).

        Column k < n_r - m_abs // 2 is s^m_abs P_k^(0, m_abs)(2 s^2 - 1),
        s = r / kappa, at unit disk norm (_profiles): the span of
        smooth_basis. One Cholesky pass in the parity Gram takes their
        roundoff out of orthonormality, which the pencils' eigh assumes.
        """
        got = self._zernike.get(m_abs)
        if got is None:
            z = self._profiles(m_abs, self.n_r - m_abs // 2)
            gram = self._gram[1 if m_abs % 2 == 0 else -1]
            # z^T gram z = L L^T, so z L^-T is orthonormal
            got = self._zernike[m_abs] = np.linalg.solve(np.linalg.cholesky(z.T @ gram @ z), z.T).T
        return got

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

    def dirichlet(self, lo, hi):
        """Eigen tables (S, S^-1, lam) of the Dirichlet Laplacians of channels m = lo..hi.

        Per channel S diag(lam) S^-1 = -lap2d(|m|) on the interior nodes
        1..n_r - 1 (node 0 is the surface). Built on the first call, every
        range a view of one band (see band_views); RuntimeError unless every
        lam is real and positive.
        """
        self._dirichlet, views = band_views(self._dirichlet, lo, hi, self._band_dirichlet)
        return views

    def _band_dirichlet(self, band):
        # channels m and -m share lap2d(|m|): decompose m = 0..band once
        lam, s = np.linalg.eig(-self.stacks(-band, band).lap[band:, 1:, 1:])
        if lam.dtype.kind == "c" or not np.all(lam > 0.0):
            msg = "discretization: Dirichlet Laplacian spectrum on band %d is not real and positive"
            raise RuntimeError(msg % band)
        mirror = np.abs(np.arange(-band, band + 1))
        return s[mirror], np.linalg.inv(s)[mirror], lam[mirror]

    def sobolev_words(self, band, k):
        """Precomposed derivative words of the orders 0..k on channels -band..band (cached).

        With U and D the raising and lowering applications (see stacks),
        d/dx = (U + D)/2 and d/dy = -i (U - D)/2, a unitary map to
        (U, D)/sqrt(2), so |grad^j a|^2 = 2^-j sum_w |w a|^2 over the 2^j
        words w in {U, D}^j. U and D commute on pole-regular profiles (the
        span of zernike), so this is sum_i C(j, i) 2^-j |U^(j-i) D^i a|^2:
        word i applies D i times, then U j - i times, and moves channel m
        to m + j - 2i. Its stack holds, per input channel, the letters'
        product followed by sqrt(C(j, i) 2^-j) times the factor L^T of the
        output channel's parity Gram (L L^T = Gram). The sum of squares of
        an order's outputs is the disk norm of grad^j a on pole-regular
        profiles; on nodal data off that span it is this j + 1-word form.

        Returns the tuple of one stack (j + 1, 2*band + 1, n_r, n_r), real,
        per order j = 0..k; word 0 is U^j, so order 1 is (U, D). Each order
        is built once per band on this instance and shared by every k.
        """
        for j in range(k + 1):
            if (band, j) not in self._orders:
                self._orders[(band, j)] = self._word_order(band, j)
        return tuple(self._orders[(band, j)] for j in range(k + 1))

    def _word_order(self, band, j):
        nm = 2 * band + 1
        st = self.stacks(-band - j, band + j)
        # the output channel m + j - 2i of input m has the parity of m + j:
        # its factor sits at index 2 j + (m + band) of st
        lt = st.factor[2 * j : 2 * j + nm] * 2.0 ** (-j / 2)
        stack = np.empty((j + 1, nm, self.n_r, self.n_r))
        for i in range(j + 1):
            # at: the index in st of the channel that input -band has reached
            prod, at = np.eye(self.n_r), j
            for step in (-1,) * i + (1,) * (j - i):
                prod = (st.raising if step > 0 else st.lowering)[at : at + nm] @ prod
                at += step
            stack[i] = math.sqrt(math.comb(j, i)) * lt @ prod
        return stack

    def _band_stacks(self, band):
        ms = np.arange(-band, band + 1)
        nr = self.n_r
        nm = ms.size
        raising = np.empty((nm, nr, nr))
        lowering = np.empty((nm, nr, nr))
        lap = np.empty((nm, nr, nr))
        factor = np.empty((nm, nr, nr))
        gram = np.empty((nm, nr, nr))
        for im, m in enumerate(ms):
            p = 1 if m % 2 == 0 else -1
            d = self._d1[p]
            mr = np.diag(m * self.inv_r)
            raising[im] = d - mr
            lowering[im] = d + mr
            lap[im] = self.lap2d(abs(int(m)))
            factor[im] = self._factor[p]
            gram[im] = self._gram[p]
        return ms, raising, lowering, lap, factor, gram


@functools.lru_cache(maxsize=None)
def tables_for_key(kappa, n_r):
    return RadialTables(kappa, n_r)


def tables_for(config):
    """Shared RadialTables instance for a DomainConfig."""
    return tables_for_key(config.kappa, config.n_r)
