"""Dense reference construction of the exact strip blocks, for tests only.

``dense_absorption_matrices(m, n)`` builds the strip contraction from
``np.kron`` products and runs one SVD and *two* Stein solves, one per
side, with no cache, no per-width sharing and no mirror.  It is the
construction ``absorption_matrices`` used before it went per width, kept
so the production blocks (and the mirror that now supplies X_right) are
checked against a direct solve rather than against themselves.  It
shares only the SVD (the same LAPACK driver) with production: its Stein
solves are scipy's ``solve_discrete_lyapunov``, production's a doubling
sum, so the comparison checks the Stein solve by a second algorithm.
"""

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
