"""The first-hit generating functions as truncated power series.

A :class:`TruncatedSeries` is the read-only holder of the Maclaurin
coefficients c_0..c_T that the functions below return; the arithmetic
runs on plain coefficient arrays.

:func:`one_boundary_series` and :func:`two_boundary_series` solve the
coupled first-hit recurrences

    l = -z/3 + (2z/3) s + (2z/3) l q
    s =  2z/3 - (z/3)  s + (2z/3) l q
    r =  2z/3 + (2z/3) s - (z/3)  l q

where q is the next-narrower strip's r (two boundaries) or r itself (one
boundary).  Two of them are linear in s: l - s = z (s - 1) and
r = z - (1 - z) s / 2, at every width k >= 1 (the all-zero k = 0 is the
exception).  So only s is solved for.  Eliminating l q leaves the level

    s = 2z (1 - z q) / (3 + z - 2z (1 + z) q),

and with q = z - (1 - z) s' / 2, s' the narrower strip's s, the common
factor 1 - z cancels:

    s = z (2 + 2z + z s') / (3 + 4z + 2z^2 + z (1 + z) s').

Two boundaries apply it once per site of width, each a series inverse
and one product.  One boundary solves its fixed point
z s^2 + (3 + z) s - 2z = 0 by Newton iteration from s = 0, carrying the
inverse of the derivative along at the precision it holds.  Every series
inverse is itself Newton's g <- g (2 - d g).  Each pass doubles the
number of correct coefficients, so with FFT products a series of order T
costs O(T log T) (Brent and Kung, J. ACM 25, 1978).  At the orders asked
(a few thousand) the cost is numpy's fixed overhead per call, not the
transform: an ``rfft``/``irfft`` product takes 23-33 us at lengths
8-256, where ``np.convolve`` takes 3-18 us (2-vCPU x86_64, numpy 2.4).
So a product of length at most :data:`DIRECT_MAX`, and both products of
a Newton pass that reaches at most that length, are direct convolutions,
and only the longer ones go by FFT.  The cost stays O(T log T): the direct part is the same handful
of short passes at every order.

The cancelled form matters for rounding.  The uncancelled denominator
3 + z - 2z (1 + z) q vanishes at z = 1 for every k >= 2 and for one
boundary, so dividing by it turns FFT rounding in q into an error that
grows with T.  Taken that way (the r root of the one-boundary quadratic,
then l and s from the uncancelled level), l was 3e-15 to 3e-14 off the
walk at T = 3000 and 5e-14 to 1e-13 off at T = 12000, depending on the
FFT lengths.  The cancelled denominators stay away from zero on the unit
circle, and the error stays at rounding level: within 5e-16 of the
coefficient sweep at every order and width tested, up to T = 6000 and
width 12.

No branch is chosen.  The derivative 3 + z + 2z s is 3 at z = 0, so
Newton's iteration from s = 0 can only reach the one power-series root
with s(0) = 0.  No square root is taken, so the route stays independent
of the closed forms in :mod:`groverline.genfun`, which pick a branch of
sqrt(9 + 6z + 9z^2).  That is why it is the analytic oracle the closed
forms are checked against, and not the reverse.

Product rounding is safe here.  Every coefficient is real, so the long
products are ``numpy.fft.rfft``/``irfft`` pairs.  An FFT product's error
in each coefficient is about the unit roundoff times the l2 norms of its
two factors (and a slowly growing factor in log T).  A direct product's
coefficient k is off by at most about k times the unit roundoff times
sum_i |a_i| |b_(k-i)|, which is at most the l2 norms' product, with
k <= DIRECT_MAX; its rounding errors add like a random walk, so the
typical error grows like the square root of k instead.  The factors are the amplitudes
(l2 norm at most 1), the inverses (below 0.7) and short polynomials in
them (below 6), so every coefficient, large or small, is off by a few
1e-16 in practice.
Constant terms are structural zeros.  They are never formed by a product,
so they come out exactly 0.

The coefficient-by-coefficient sweep that the Newton route replaced is
the tests' oracle, in ``tests/series_oracle.py``.
"""

from __future__ import annotations

import numpy as np

from ._validate import validate_steps

__all__ = [
    "TruncatedSeries",
    "one_boundary_series",
    "two_boundary_series",
]

DEFAULT_ORDER = 1000
#: longest product taken as a direct convolution; longer ones go by FFT
DIRECT_MAX = 256


class TruncatedSeries:
    """Complex Maclaurin coefficients c_0..c_T, read-only.

    ``coeffs`` is a nonempty 1-D complex array whose write flag is off,
    and the attribute itself cannot be rebound.  The series functions
    return their results in it; it does no arithmetic.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        arr = np.array(coeffs, dtype=complex)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coeffs must be a nonempty 1-D sequence")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    @classmethod
    def zeros(cls, order: int) -> "TruncatedSeries":
        return cls(np.zeros(order + 1, dtype=complex))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __repr__(self):
        head = ", ".join(f"{c:.4g}" for c in self.coeffs[:4])
        tail = ", ..." if self.order >= 4 else ""
        return f"TruncatedSeries([{head}{tail}], order={self.order})"


def _fft_size(n: int) -> int:
    """Smallest power of two >= n."""
    return 1 << (n - 1).bit_length()


def _mul(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Coefficients 0..n-1 of the product of two real series.

    Up to length :data:`DIRECT_MAX` the product is a direct convolution,
    zero-padded when the factors are too short to fill n; past it, an
    ``rfft``/``irfft`` pair, squaring one transform when ``b`` is ``a``.
    """
    square = b is a
    a, b = a[:n], b[:n]
    if n <= DIRECT_MAX:
        c = np.convolve(a, b)[:n]
        return c if len(c) == n else np.concatenate([c, np.zeros(n - len(c))])
    from numpy.fft import irfft, rfft

    size = _fft_size(max(n, len(a) + len(b) - 1))
    a_hat = rfft(a, size)
    return irfft(a_hat * (a_hat if square else rfft(b, size)), size)[:n]


def _inverse(d: np.ndarray, n: int, g: np.ndarray | None = None) -> np.ndarray:
    """Coefficients 0..n-1 of 1/d, by Newton's g <- g (2 - d g).

    Each pass doubles the number of correct coefficients of ``g``, seeded
    with 1/d_0 or with a ``g`` that is correct through its own length m.
    A pass to a new length m2 at most :data:`DIRECT_MAX` takes its two
    products by :func:`_mul`, so as direct convolutions.  A longer pass
    takes d g cyclically at the FFT length, reusing the transform of ``g``
    for the second product: the part that wraps around lands only on
    coefficients below m, which are already known to be 1, 0, 0, ...
    """
    if g is None:
        g = np.array([1.0 / d[0]])
    while len(g) < n:
        m, m2 = len(g), min(2 * len(g), n)
        if m2 <= DIRECT_MAX:
            err = _mul(d, g, m2)[m:]
            g = np.concatenate([g, -_mul(g, err, m2 - m)])
            continue
        from numpy.fft import irfft, rfft

        size = _fft_size(m2)
        g_hat = rfft(g, size)
        err = irfft(rfft(d[:m2], size) * g_hat, size)[m:m2]
        g = np.concatenate([g, -irfft(g_hat * rfft(err, size), size)[: m2 - m]])
    return g


def _affine(const, slope, x: np.ndarray, n: int) -> np.ndarray:
    """Coefficients 0..n-1 of const + slope * x, for short polynomials const, slope."""
    out = np.zeros(n)
    for k, c in enumerate(const[:n]):
        out[k] += c
    for k, c in enumerate(slope):
        m = min(len(x), n - k)
        if c and m > 0:
            out[k : k + m] += c * x[:m]
    return out


def _one_boundary_s(n: int) -> np.ndarray:
    """s through n coefficients: the root with s(0) = 0 of z s^2 + (3 + z) s - 2z.

    Newton's s <- s - G(s)/G'(s) doubles the correct coefficients per pass.
    The inverse g of G'(s) = 3 + z + 2zs is carried along, one pass of
    :func:`_inverse` per pass of s, and is used only through the length at
    which it is correct: beyond that, G' of a truncated s is another series.
    """
    s = np.zeros(1)
    g = np.array([1.0 / 3.0])
    while len(s) < n:
        k, k2 = len(s), min(2 * len(s), n)
        if len(g) < k2 - k:
            g = _inverse(_affine((3.0, 1.0), (0.0, 2.0), s, k2 - k), k2 - k, g)
        resid = _affine((0.0, -2.0), (3.0, 1.0), s, k2)
        resid[1:] += _mul(s, s, k2 - 1)
        s = np.concatenate([s, -_mul(resid[k:], g, k2 - k)])
    return s


def _two_boundary_s(n_right: int, n: int) -> np.ndarray:
    """s through n coefficients for a right boundary n_right >= 1 sites away.

    Level 1 is 2z/(3 + z); each further level applies
    s <- z (2 + 2z + z s) / (3 + 4z + 2z^2 + z (1 + z) s): one series
    inverse and one product.
    """
    s = np.zeros(n)
    s[1:] = 2.0 * _inverse(np.array([3.0, 1.0]), n - 1)
    for _ in range(n_right - 1):
        num = _affine((2.0, 2.0), (0.0, 1.0), s, n - 1)
        den = _affine((3.0, 4.0, 2.0), (0.0, 1.0, 1.0), s, n - 1)
        s[1:] = _mul(num, _inverse(den, n - 1), n - 1)
    return s


def _from_s(s: np.ndarray) -> tuple[TruncatedSeries, TruncatedSeries, TruncatedSeries]:
    """(l, s, r) from s by l = (1 + z) s - z and r = z - (1 - z) s / 2."""
    n = len(s)
    l = _affine((0.0, -1.0), (1.0, 1.0), s, n)
    r = _affine((0.0, 1.0), (-0.5, 0.5), s, n)
    return TruncatedSeries(l), TruncatedSeries(s), TruncatedSeries(r)


def one_boundary_series(
    order: int = DEFAULT_ORDER,
) -> tuple[TruncatedSeries, TruncatedSeries, TruncatedSeries]:
    """First-hit generating functions (l, s, r) for a single left boundary.

    Coefficient t of l (resp. s, r) is the amplitude of first arrival at
    the boundary site on step t when the walk starts in coin state L
    (resp. S, R) one site to the boundary's right.  ``order`` must be an
    integer >= 1; anything else raises :class:`ValueError`.
    """
    validate_steps(order, 1, "order")
    return _from_s(_one_boundary_s(int(order) + 1))


def two_boundary_series(
    n_right: int, order: int = DEFAULT_ORDER
) -> tuple[TruncatedSeries, TruncatedSeries, TruncatedSeries]:
    """First-hit generating functions with the right boundary n_right away.

    Iterates the widening recursion from the all-zero k = 0 functions up
    to k = n_right, one level per site of width.  ``n_right`` must be an
    integer >= 0 and ``order`` an integer >= 1; anything else raises
    :class:`ValueError`.
    """
    validate_steps(n_right, 0, "n_right")
    validate_steps(order, 1, "order")
    if n_right == 0:
        zero = TruncatedSeries.zeros(order)
        return zero, zero, zero
    return _from_s(_two_boundary_s(int(n_right), int(order) + 1))
