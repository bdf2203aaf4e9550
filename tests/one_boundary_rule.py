"""The one-boundary forms F_m by a fixed 16-node Gauss-Legendre panel rule.

F_m = M_inf + (1/pi) int_q^1 R(y) y^(2m-2) dy / sqrt((y - q)(1/q - y)),
with y = -l on the inner arc (``exact_one_boundary.py`` derives it).  The
rule takes 16 Gauss-Legendre nodes per panel in s = -ln y, the first panel
[0, 1/(2m - 1)], about the width of y^(2m-2)'s peak at y = 1, each next
panel twice as wide.  The panel that reaches y = q is taken in u,
y = q + (y1 - q) u^2, which removes the 1/sqrt(y - q) at theta = 0.  It is
a quadrature cross-check of the package's committed table and series of
exact forms, and shares no code with them: it imports nothing from the
package.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.polynomial.legendre import leggauss

#: q = 5 - 2 sqrt 6 = -l(1), the near end of y = -l on the inner arc, and
#: 1/q; q is taken as 1/(5 + 2 sqrt 6), which has no cancellation
_INV_Q = 5.0 + 2.0 * math.sqrt(6.0)
_Q = 1.0 / _INV_Q
_S_END = math.log(_INV_Q)  # s = -ln y at y = q

#: a boundary farther than this is read at this distance, so that 2m - 1
#: stays a float
_FAR = 2 ** 32


@functools.cache
def _form_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rule's constants, made on first use.

    The 16-point Gauss-Legendre nodes and weights on [0, 1], and M_inf, the
    outer arc's share of every F_m (|l| = 1 there), as its upper triangle
    in (L, S, R) order, LL, LS, LR, SS, SR, RR: a + (b sqrt 2 + c theta_b)/pi
    with the rows a, b and c below; LL = 1 - theta_b/pi,
    LS = -1 + (2 sqrt 2 + theta_b)/(2pi), LR = -1 + (2 sqrt 2 + 5 theta_b)/(4pi),
    SS = (2 sqrt 2 - theta_b)/pi, SR = (5 theta_b - 6 sqrt 2)/(4pi) and
    RR = (10 sqrt 2 - 7 theta_b)/(4pi).
    """
    x, w = leggauss(16)
    m_inf = np.array([1.0, -1.0, -1.0, 0.0, 0.0, 0.0]) + (
        np.array([0.0, 1.0, 0.5, 2.0, -1.5, 2.5]) * math.sqrt(2.0)
        + np.array([-1.0, 0.5, 1.25, -1.0, 1.25, -1.75]) * math.acos(-1.0 / 3.0)
    ) / math.pi
    return 0.5 * (x + 1.0), 0.5 * w, m_inf


def rule_form(m: int) -> list[float]:
    """F_m by the panel rule, as its upper triangle LL, LS, LR, SS, SR, RR.

    R's entries are LL = y(1 - y), LS = -(1 - y)^2/2,
    LR = -(1 - y)(y^2 - 6y + 1)/(4y), SS = 2(1 - y), SR = (1 - y)^2/(2y)
    and RR = (1 - y)/y.  In the last panel y - q is never formed, which
    would put an entry 2.8e-15 off at m = 1.  That is 32 nodes at m = 1, 96
    at m = 10, 368 at m = 10^6 and 560 at ``_FAR``.
    """
    m = m if m < _FAR else _FAR
    x, w, m_inf = _form_rule()
    ys, weights = [], []
    start, width = 0.0, 1.0 / (2 * m - 1)
    while start + width < _S_END:
        y = np.exp(-(start + width * x))
        ys.append(y)
        weights.append(width * w * y / np.sqrt((y - _Q) * (_INV_Q - y)))
        start, width = start + width, 2.0 * width
    top = math.exp(-start) - _Q
    y = _Q + top * x * x
    ys.append(y)
    weights.append(2.0 * math.sqrt(top) * w / np.sqrt(_INV_Q - y))
    y = np.concatenate(ys)
    weight = np.concatenate(weights) * y ** (2 * m - 2)
    v, inv = 1.0 - y, 1.0 / y
    r = np.array([y * v, -0.5 * v * v, -0.25 * v * (y * y - 6.0 * y + 1.0) * inv,
                  2.0 * v, 0.5 * v * v * inv, v * inv])
    return (m_inf + (r @ weight) / math.pi).tolist()
