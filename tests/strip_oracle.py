"""Reference constructions of the exact strip blocks, for tests only.

``dense_absorption_matrices(m, n)`` builds the strip contraction from
``np.kron`` products and runs one SVD of A - I and *two* Stein solves,
one per side, with no cache, no per-width sharing and no mirror.  It is
the construction ``absorption_matrices`` used before it went per width,
kept so the production blocks (and the mirror that supplies X_right)
are checked against a direct solve rather than against themselves.  It
shares no algorithm with production or with ``exact_oracle``: its flat
band is the numerical kernel of the SVD, not the closed-form band, and
its Stein solves are scipy's ``solve_discrete_lyapunov`` on the full
complement.

``longdouble_strip_blocks(width)`` is the 80-bit reference for the strips
where the dense oracle's own rounding reaches the test bound (its SVD
puts it 2.3e-13 from the 80-bit blocks at width 60).  It calls no LAPACK
routine at all.

``mirror_strip_blocks(width)`` is a float solve: the closed-form band,
the site-and-coin mirror split and a doubling sum over the mirror-odd half
(:func:`mirror_doubling`).  It solves any width in milliseconds,
so the tests hold the clamp against it on strips far wider than the
80-bit reference reaches.
"""

import functools
import math

import numpy as np
import scipy.linalg as sla

from groverline.walk import grover_coin


def dense_absorption_matrices(m: int, n: int):
    """``(X_left, X_right, P_trapped)`` start-site blocks, each side solved directly."""
    coin = grover_coin()
    width = m + n - 1
    size = 3 * width
    # site-major amplitudes (index 3 * site + coin); L moves one site left,
    # S stays, R moves one site right
    a = sum(
        np.kron(np.eye(width, k=shift), np.outer(np.eye(3)[c], coin[c]))
        for c, shift in ((0, 1), (1, 0), (2, -1))
    )
    c_left, c_right = np.zeros(size), np.zeros(size)
    c_left[:3], c_right[-3:] = coin[0], coin[2]
    _, sv, vt = sla.svd(a - np.eye(size))
    rank = int(np.sum(sv > sv[0] * size * np.finfo(float).eps))
    rest, kernel = vt[:rank].T, vt[rank:].T
    a_rest = rest.T @ a @ rest
    start = slice(3 * (m - 1), 3 * m)
    blocks = []
    for c in (c_left, c_right):
        c_rest = c @ rest
        x = sla.solve_discrete_lyapunov(a_rest.T, np.outer(c_rest, c_rest))
        blocks.append(rest[start] @ x @ rest[start].T)
    blocks.append(kernel[start] @ kernel[start].T)
    return tuple(0.5 * (b + b.T) for b in blocks)


_LD = np.longdouble


def _longdouble_kernel_and_rest(width: int):
    """Orthonormal flat band and complement, from ``[band | I]`` in longdouble.

    The band is the closed form: one state per pair of adjacent interior
    sites, (1, 1/2, 0) on the first and (0, 1/2, 1) on the second.
    Modified Gram-Schmidt, each column swept twice against the basis so
    far, keeps the W - 2 band columns and the identity columns that are
    not already in the span; the latter are the complement.
    """
    sites = width - 1
    size = 3 * sites
    band = np.zeros((sites, 3, width - 2), dtype=_LD)
    for j in range(width - 2):
        band[j, :, j] = (1, _LD(1) / 2, 0)
        band[j + 1, :, j] = (0, _LD(1) / 2, 1)
    columns = np.hstack((band.reshape(size, width - 2), np.eye(size, dtype=_LD)))
    basis = []
    for v in columns.T:
        v = v.copy()
        for _ in range(2):
            for u in basis:
                v -= (u @ v) * u
        norm = np.sqrt(v @ v)
        if norm > 1e-6:
            basis.append(v / norm)
    assert len(basis) == size, (len(basis), size)
    q = np.array(basis).T
    return q[:, : width - 2], q[:, width - 2 :]


@functools.lru_cache(maxsize=None)
def longdouble_strip_blocks(width: int) -> np.ndarray:
    """80-bit ``(X_left, X_right, P_trapped)`` start-site blocks of every start site.

    The same ``(3, W - 1, 3, 3)`` layout as :func:`mirror_strip_blocks`, in
    ``np.longdouble``, with no LAPACK call anywhere: the flat band is the
    closed form, its complement comes from Gram-Schmidt
    (:func:`_longdouble_kernel_and_rest`), and both Stein equations are
    summed directly, each side with its own absorbing row (no mirror), by
    Smith's doubling until an increment is below longdouble resolution.
    numpy's longdouble products run in its own loops, not in BLAS.
    Cached, and read-only, since the widest strips take a second or two.
    """
    sites = width - 1
    size = 3 * sites
    coin = 2 * np.ones((3, 3), dtype=_LD) / 3 - np.eye(3, dtype=_LD)
    a = np.zeros((sites, 3, sites, 3), dtype=_LD)
    for c, shift in ((0, 1), (1, 0), (2, -1)):
        for s in range(max(0, -shift), sites - max(0, shift)):
            a[s, c, s + shift] = coin[c]
    a = a.reshape(size, size)
    kernel, rest = _longdouble_kernel_and_rest(width)
    a_rest = rest.T @ a @ rest
    rows = np.stack((coin[0] @ rest[:3], coin[2] @ rest[-3:]))
    x = rows[:, :, None] * rows[:, None, :]
    b = a_rest
    eps = np.finfo(_LD).eps
    for _ in range(80):
        step = b.T @ x @ b
        x = x + step
        if abs(step).max() <= eps * abs(x).max():
            break
        b = b @ b
    else:
        raise RuntimeError("longdouble Stein doubling did not converge")
    rest_sites = rest.reshape(sites, 3, size - (width - 2))
    kernel_sites = kernel.reshape(sites, 3, width - 2)
    sides = [(rest_sites @ xs) @ rest_sites.transpose(0, 2, 1) for xs in x]
    trapped = kernel_sites @ kernel_sites.transpose(0, 2, 1)
    blocks = np.stack((*sides, trapped))
    blocks.flags.writeable = False
    return blocks


#: Doublings before :func:`mirror_doubling` gives up.  Its sum covers
#: 2^k steps after k doublings; widths 2-28 stop after 5-17.
STEIN_MAX_DOUBLINGS = 64
_SQRT_EPS = math.sqrt(np.finfo(float).eps)
_SQRT_HALF = math.sqrt(0.5)


def mirror_doubling(b_even: np.ndarray, b_odd: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Y = sum_t (B_e^T)^t Q B_o^t, the solution of Y = B_e^T Y B_o + Q, by doubling.

    Smith's doubling across two sectors: Y <- Y + B_e^T Y B_o with
    B_e = b_even^(2^k) and B_o = b_odd^(2^k) adds the next 2^k terms of
    the sum, and both powers are squared in one stacked product (the
    smaller sector padded with zeros).  Stops once both powers are below
    sqrt(eps) in every entry: that bounds the rest of the sum by rounding
    and certifies that both b_even and b_odd are strictly stable, which
    an increment alone cannot (it vanishes when one sector decays, however
    the other behaves).  Raises :class:`RuntimeError` on a non-finite power
    or sum, or after :data:`STEIN_MAX_DOUBLINGS` doublings.
    """
    n_odd = len(b_odd)
    powers = np.zeros((2, len(b_even), len(b_even)))
    powers[0] = b_even
    powers[1, :n_odd, :n_odd] = b_odd
    y = q
    # an overflow is reported below as a non-finite increment
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(STEIN_MAX_DOUBLINGS):
            y = y + powers[0].T @ y @ powers[1, :n_odd, :n_odd]
            powers = powers @ powers
            largest = abs(powers).max()  # NaN and inf propagate
            if not (math.isfinite(largest) and largest > _SQRT_EPS):
                break
        else:
            raise RuntimeError(
                f"Stein doubling did not converge in {STEIN_MAX_DOUBLINGS} doublings"
            )
    if not (math.isfinite(largest) and np.isfinite(y).all()):
        raise RuntimeError("Stein doubling diverged: non-finite increment")
    return y


def mirror_strip_blocks(width: int) -> np.ndarray:
    """Start-site blocks of ``(X_left, X_right, P_trapped)`` for every start site.

    The strip between boundaries at -m and +n has W - 1 interior sites
    (W = m + n) and its one-step contraction A depends on W alone; the
    start site picks the block.  Returns one read-only ``(3, W - 1, 3, 3)``
    array whose ``[k, s]`` is the symmetric 3x3 diagonal block of X_left,
    X_right or P_trapped (k = 0, 1, 2) at the start site of geometry
    (s + 1, W - 1 - s).  It solves any width, so it holds the clamp on
    strips wider than the committed table reaches.

    The solve rests on the site-and-coin mirror J, the reversal of the
    whole site-major amplitude vector (site s -> W - 2 - s, coin
    c -> 2 - c).  J maps A to itself, the flat band to itself and the left
    loss row to the right one, so X_right = J X_left J: its blocks are
    X_left's reversed on all three axes.  The ledger X_left + X_right + P
    = I then fixes the mirror-even half of X_left, (X_left + J X_left J)/2
    = (I - P)/2, and only the mirror-odd half is summed: with E_e and E_o
    orthonormal bases of J's even and odd subspaces, A - P (the band moved
    to eigenvalue 0) is the direct sum of B_e = E_e^T (A - P) E_e and
    B_o = E_o^T (A - P) E_o, and X_left = (I - P)/2 + D + D^T with
    D = E_e Y E_o^T and Y = sum_t (B_e^T)^t c_e^T c_o B_o^t
    (:func:`mirror_doubling`, whose stop certifies that both halves are
    strictly stable, which is what makes (I - P)/2 exact).  Everything is
    sliced, not multiplied: E_e pairs index i with its mirror 3W - 4 - i
    at weight 1/sqrt(2) (a middle index is its own mirror, weight 1),
    E_o at weights +-1/sqrt(2).  P = B (B^T B)^-1 B^T comes from the
    closed-form band B with one small solve, so no QR, SVD or
    eigendecomposition runs.
    """
    coin = grover_coin()
    sites = width - 1
    size = 3 * sites
    # site-major amplitudes (index 3 * site + coin); L moves one site left,
    # S stays, R moves one site right
    a = np.zeros((size, size))
    bands = a.reshape(sites, 3, sites, 3)
    for c, shift in ((0, 1), (1, 0), (2, -1)):
        target = np.arange(max(0, -shift), sites - max(0, shift))
        bands[target, c, target + shift] = coin[c]
    # ker(A - I) is the flat band, known in closed form: one state per pair
    # of adjacent interior sites, (1, 1/2, 0) on the first and (0, 1/2, 1)
    # on the second; its Gram matrix is tridiag(1/4, 5/2, 1/4)
    flat = width - 2
    band = np.zeros((sites, 3, flat))
    pair = np.arange(flat)
    band[pair, :, pair] = (1.0, 0.5, 0.0)
    band[pair + 1, :, pair] = (0.0, 0.5, 1.0)
    band = band.reshape(size, flat)
    p = band @ np.linalg.solve(band.T @ band, band.T)
    # fold A - P and the left loss row c (the coin's L row at the leftmost
    # site) into the mirror sectors; A - P commutes with J, so its top rows
    # carry both halves
    n_odd = size // 2
    n_even = size - n_odd  # one more when size is odd: the middle index
    c = np.zeros(size)
    c[:3] = coin[0]
    rows = a[:n_even] - p[:n_even]
    near, far = rows[:, :n_even], rows[:, ::-1][:, :n_even]
    b_even, b_odd = near + far, (near - far)[:n_odd, :n_odd]
    c_even = (c[:n_even] + c[::-1][:n_even]) * _SQRT_HALF
    c_odd = (c[:n_odd] - c[::-1][:n_odd]) * _SQRT_HALF
    if n_even > n_odd:
        b_even[-1] *= _SQRT_HALF
        b_even[:, -1] *= _SQRT_HALF
        c_even[-1] *= _SQRT_HALF
    y = mirror_doubling(b_even, b_odd, np.outer(c_even, c_odd))
    # site blocks of D = E_e Y E_o^T: index i reads Y at its sector index
    # min(i, size - 1 - i), weighted 1/2 (1/sqrt(2) on the middle row) and
    # signed +1 on the left half of the columns, -1 on the right, 0 in the
    # middle
    y = 0.5 * y
    if n_even > n_odd:
        y[-1] *= math.sqrt(2.0)
    index = np.arange(size).reshape(sites, 3)
    sector = np.minimum(index, size - 1 - index)
    sign = np.sign(size - 1 - 2 * index)
    d = y[sector[:, :, None], np.minimum(sector, n_odd - 1)[:, None, :]] * sign[:, None, :]
    site = np.arange(sites)
    trapped = p.reshape(sites, 3, sites, 3)[site, :, site]
    blocks = np.empty((3, sites, 3, 3))
    blocks[2] = 0.5 * (trapped + trapped.transpose(0, 2, 1))
    blocks[0] = 0.5 * (np.eye(3) - blocks[2]) + (d + d.transpose(0, 2, 1))
    blocks[1] = blocks[0, ::-1, ::-1, ::-1]
    blocks.flags.writeable = False
    return blocks
