"""Coefficient-by-coefficient first-hit series, for tests only.

``_sweep`` is the forward sweep that ``groverline.series`` used before it
moved to Newton iteration with FFT products, kept verbatim: one
interpreted iteration per coefficient, each coefficient computed from the
ones below it straight off the coupled recurrences.  The production
series are checked against it rather than against themselves.
"""

import numpy as np


def _sweep(order: int, r_prev: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forward sweep of the coupled recurrences given the inner r series.

    Solves, in coefficient form,
        l = -z/3 + (2z/3) s + (2z/3) l*q
        s =  2z/3 - (z/3)  s + (2z/3) l*q
        r =  2z/3 + (2z/3) s - (z/3)  l*q
    where q is ``r_prev`` (the next-narrower strip's r, two-boundary case)
    or, when ``r_prev`` is None, the system's own r (one-boundary case).
    Either way q has no constant or linear dependence that could reach
    index t, so the sweep over t is well founded.
    """
    l = np.zeros(order + 1, dtype=complex)
    s = np.zeros(order + 1, dtype=complex)
    r = np.zeros(order + 1, dtype=complex)
    self_coupled = r_prev is None
    for t in range(1, order + 1):
        inner = r if self_coupled else r_prev
        # (l*inner)_{t-1}; both factors start at z^1, so terms below t=3 vanish
        conv = np.dot(l[1 : t - 1], inner[1 : t - 1][::-1]) if t >= 3 else 0.0
        seed_l = -1.0 / 3.0 if t == 1 else 0.0
        seed = 2.0 / 3.0 if t == 1 else 0.0
        l[t] = seed_l + (2.0 / 3.0) * s[t - 1] + (2.0 / 3.0) * conv
        s[t] = seed - (1.0 / 3.0) * s[t - 1] + (2.0 / 3.0) * conv
        r[t] = seed + (2.0 / 3.0) * s[t - 1] - (1.0 / 3.0) * conv
    return l, s, r


def sweep_series(n_right: int | None, order: int):
    """``(l, s, r)`` coefficient arrays 0..order; ``n_right=None`` is one boundary."""
    if n_right is None:
        return _sweep(order, None)
    l = s = r = np.zeros(order + 1, dtype=complex)
    for _ in range(n_right):
        l, s, r = _sweep(order, r)
    return l, s, r
