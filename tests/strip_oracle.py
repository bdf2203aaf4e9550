"""Reference constructions of the exact strip blocks, for tests only.

``dense_absorption_matrices(m, n)`` builds the strip contraction from
``np.kron`` products and runs one SVD of A - I and *two* Stein solves,
one per side, with no cache, no per-width sharing and no mirror.  It is
the construction ``absorption_matrices`` used before it went per width,
kept so the production blocks (and the mirror that now supplies X_right)
are checked against a direct solve rather than against themselves.  It
shares no algorithm with production: its flat band is the numerical
kernel of the SVD, not the closed-form band, and its Stein solves are
scipy's ``solve_discrete_lyapunov`` on the full complement, not a
mirror-split doubling sum.

``longdouble_strip_blocks(width)`` is the 80-bit reference for the strips
where the dense oracle's own rounding reaches the test bound (its SVD
puts it 2.3e-13 from the 80-bit blocks at width 60).  It calls no LAPACK
routine at all.
"""

import functools

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

    The same ``(3, W - 1, 3, 3)`` layout as the blocks ``absorb._strip_cache`` keeps, in
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
