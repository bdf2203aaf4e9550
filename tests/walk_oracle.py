"""Sparse, value-semantic walk state, for tests only.

A :class:`WalkState` maps each occupied site to its :class:`CoinSpinor`;
:func:`apply_evolution` steps it by a per-site coin product and a
dictionary shift, and :func:`project_is_at` measures one site.  It shares
no stepping code with ``groverline.walk.WindowWalk`` (no window, no light
cone, no fused product, no float view), so the engine is checked against
it rather than against itself.  :func:`spinor_from_array` and
:func:`position_probability` are the two small readers the tests use on
either side.

:func:`reference_step` is the second reference: one step of the dense
amplitude array by a plain full-window complex product and copies, the
engine's arithmetic without its light cone, fused shift, float view or
flush.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from groverline.walk import BoundarySpec, CoinSpinor, WindowWalk, grover_coin


def spinor_from_array(v) -> CoinSpinor:
    """The :class:`CoinSpinor` of a length-3 sequence, in ``(L, S, R)`` order."""
    return CoinSpinor(complex(v[0]), complex(v[1]), complex(v[2]))


def position_probability(engine: WindowWalk, m: int) -> float:
    """P(m) of a window engine's current amplitudes; 0 outside its window."""
    i = engine.index(m)
    if not 0 <= i < engine.width:
        return 0.0
    return float(np.sum(np.abs(engine.amps[:, i]) ** 2))


@dataclass(frozen=True)
class WalkState:
    """Sparse walker state: position -> spinor, plus absorbed-mass ledgers.

    States inside a walk are intentionally left unnormalized after a
    no-branch projection; the removed mass lives in ``absorbed_left`` /
    ``absorbed_right`` (one entry per completed step), so that
    ``norm2 + sum(absorbed_left) + sum(absorbed_right)`` stays 1.
    """

    amplitudes: dict[int, CoinSpinor] = field(default_factory=dict)
    t: int = 0
    absorbed_left: tuple[float, ...] = ()
    absorbed_right: tuple[float, ...] = ()

    @classmethod
    def initial(cls, spinor: CoinSpinor, position: int = 0) -> "WalkState":
        return cls(amplitudes={position: spinor})

    @property
    def norm2(self) -> float:
        return sum(sp.norm2 for sp in self.amplitudes.values())

    def support(self) -> list[int]:
        return sorted(self.amplitudes)


def apply_evolution(state: WalkState, coin: np.ndarray | None = None) -> WalkState:
    """One evolution step: coin on every site, then the component shift.

    Returns a new state with ``t`` incremented; absorbed ledgers carry over
    untouched (measurement is a separate operation).
    """
    if coin is None:
        coin = grover_coin()
    acc: dict[int, np.ndarray] = {}

    def bump(m: int, idx: int, amp: complex) -> None:
        if m not in acc:
            acc[m] = np.zeros(3, dtype=complex)
        acc[m][idx] += amp

    for m, sp in state.amplitudes.items():
        phi = coin @ sp.as_array()
        bump(m - 1, 0, phi[0])
        bump(m, 1, phi[1])
        bump(m + 1, 2, phi[2])
    new_amps = {
        m: spinor_from_array(v) for m, v in acc.items() if np.any(v != 0)
    }
    return replace(state, amplitudes=new_amps, t=state.t + 1)


def project_is_at(state: WalkState, n: int) -> tuple[float, WalkState, WalkState]:
    """Measure "is the walker at site n?".

    Returns ``(prob_yes, state_yes, state_no)`` where ``prob_yes`` is the
    squared norm at ``n`` relative to the squared norm of the whole state
    (0 for a zero state).  The two branch states are raw projections, so
    their squared norms add up to the input's.
    """
    total = state.norm2
    at_n = state.amplitudes.get(n)
    yes_amps = {n: at_n} if at_n is not None else {}
    no_amps = {m: sp for m, sp in state.amplitudes.items() if m != n}
    prob_yes = (at_n.norm2 / total) if (at_n is not None and total > 0) else 0.0
    yes_state = replace(state, amplitudes=yes_amps)
    no_state = replace(state, amplitudes=no_amps)
    return prob_yes, yes_state, no_state


def position_distribution(state: WalkState) -> dict[int, float]:
    """P(m) = |aL|^2 + |aS|^2 + |aR|^2 at each occupied position."""
    return {m: sp.norm2 for m, sp in state.amplitudes.items()}


def reference_step(amps: np.ndarray, bounds: BoundarySpec) -> tuple[np.ndarray, list]:
    """One full-window step: complex coin product, shift by copies, measurements."""
    phi = grover_coin() @ amps
    out = np.zeros_like(amps)
    out[0, :-1] = phi[0, 1:]
    out[1] = phi[1]
    out[2, 1:] = phi[2, :-1]
    hits = []
    if bounds.left is not None:
        hits.append(complex(out[0, 0]))
        out[:, 0] = 0
    if bounds.right is not None:
        hits.append(complex(out[2, -1]))
        out[:, -1] = 0
    return out, hits
