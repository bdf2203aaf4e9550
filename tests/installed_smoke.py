"""Smoke checks of the installed package, run outside the checkout.

CI feeds this file to ``python -`` from a scratch directory with PYTHONPATH
unset, so neither the checkout nor ``tests/`` is on ``sys.path``: a package
module that imports a test oracle fails here.  The name has no ``test_``
prefix, so pytest does not collect it.

    env -u PYTHONPATH python - < tests/installed_smoke.py
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np

import groverline
import groverline.cli  # noqa: F401  the CLI module imports without the checkout
from groverline import (
    AbsorptionQuery,
    BoundarySpec,
    CoinSpinor,
    absorb,
    absorption_answer,
    absorption_matrices,
    absorption_profile,
    one_boundary_series,
    prob_one_boundary,
    prob_two_boundary,
    run_walk,
    two_boundary_series,
)

# the CLI's two-boundary commands run the quadrature, so the exact strip
# route is called through the API; its blocks come from the generated
# table module, which must ship with the installed package, and the first
# two-boundary query builds the rows of all K^2 clamped geometries, each a
# flat tuple of 18 floats
assert "groverline._strip_table" not in sys.modules
assert absorb._ROWS is None
a = prob_two_boundary(AbsorptionQuery((0, 0, 1), left=5, right=20))
assert a.error_estimate < 1e-12 and abs(a.total + a.trapped - 1) < 1e-12, a
table = sys.modules["groverline._strip_table"]
assert Path(table.__file__).parent == Path(groverline.__file__).parent, table.__file__
assert len(table.BLOCKS) == 12 * absorb._CLAMP ** 2
assert len(absorb._ROWS) == absorb._CLAMP ** 2
assert all(type(row) is tuple and len(row) == 18 for row in absorb._ROWS)
assert {type(x) for row in absorb._ROWS for x in row} == {float}
print(a, table.__file__)

# far walls read the clamped geometry (K, K), to the bit
x = absorption_matrices(20, 40)
assert np.abs(sum(x) - np.eye(3)).max() < 1e-12
k = absorb._CLAMP
assert [u.tobytes() for u in x] == [v.tobytes() for v in absorption_matrices(k, k)]
print(x[0])

# a profile wider than 2K (K = 14) is assembled from the clamped table
# geometries: ledger and mirror within 1e-12
xl, xr, p = absorption_profile(300)
e = max(np.abs(xl + xr + p - np.eye(3)).max(), np.abs(xr - xl[::-1, ::-1, ::-1]).max())
assert e <= 1e-12, e
print(e)

# one geometry asked twice, each answer against the forms of the blocks
ss = [(0.6, 0.8j, 0), (0.48, -0.6, 0.64j)]
aa = [prob_two_boundary(AbsorptionQuery(s, left=3, right=9)) for s in ss]
xs = absorption_matrices(3, 9)
assert all(
    abs(f - np.real(np.conj(s) @ x @ np.array(s))) <= 1e-15
    for s, a in zip(ss, aa)
    for f, x in zip((a.p_left, a.p_right, a.trapped), xs)
), aa
assert all(abs(a.p_left + a.p_right + a.trapped - 1) <= 1e-12 for a in aa), aa
print(aa)

# a 500-step strip walk, one advance call, against the series: its left
# masses within 1e-12 and its norm ledger within 1e-11
psi = (0.6, 0.8j, 0)
r = run_walk(CoinSpinor(*psi), BoundarySpec(left=1, right=4), 500)
c = np.array([f.coeffs[1:] for f in two_boundary_series(4, 500)])
e = np.abs(r.absorbed_left - np.abs(np.array(psi) @ c) ** 2).max()
assert e <= 1e-12, e
d = abs(r.residual_norm + r.cumulative_left + r.cumulative_right - 1)
assert d <= 1e-11, d
print(e, d)

# series long enough to take both direct and FFT products: exact constant
# terms, the first coefficients, and the one-boundary partial sum of |r_t|^2
# below its limit
fs = [one_boundary_series(3000), two_boundary_series(4, 1000)]
assert all(f.coeffs[0] == 0 for t in fs for f in t)
assert all(
    np.abs([f.coeffs[1] for f in t] - np.array([-1 / 3, 2 / 3, 2 / 3])).max() <= 1e-15
    for t in fs
)
p = np.sum(np.abs(fs[0][2].coeffs[1:]) ** 2)
assert p <= 0.6692653092 + 1e-12, p
print(p)

# the query and answer records are frozen dataclasses with a hand-written
# __init__ (init=False), the piece of dataclass behaviour most likely to move
# between Python versions, so every matrix leg checks it
psi = (0.48, -0.6, 0.64j)
query = AbsorptionQuery(psi, left=3, right=4)
answer = prob_two_boundary(query)
moved = dataclasses.replace(answer, p_right=0.5)
assert moved.p_right == 0.5 and moved.p_left == answer.p_left, moved
try:
    dataclasses.replace(query, left=0)
except ValueError:
    pass
else:
    raise AssertionError("replace did not validate")
assert hash(query) == hash(AbsorptionQuery(list(psi), left=3, right=4))
assert hash(answer) == hash(prob_two_boundary(query))
for record, name in ((query, "left"), (answer, "total")):
    try:
        setattr(record, name, 1)
    except dataclasses.FrozenInstanceError:
        pass
    else:
        raise AssertionError(f"{type(record).__name__}.{name} is not frozen")
for left, right in ((3, 4), (2, None)):
    got = absorption_answer(AbsorptionQuery(iter(psi), left=left, right=right))
    assert got == absorption_answer(AbsorptionQuery(psi, left=left, right=right)), got
assert prob_one_boundary(2, iter(psi)) == prob_one_boundary(2, psi)
print(query, answer)
print("installed smoke checks passed, groverline from", groverline.__file__)
