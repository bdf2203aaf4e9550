"""Acceptance gate: one test per top-level criterion, one printed line each.

Each test prints "ACCEPTANCE <n> (<title>): PASS|FAIL" directly to the
terminal (bypassing capture) so a surviving one-line verdict per
criterion is always visible, then asserts.

Criterion 3 checks the reference table with its scaled deficit entries
at N = 4 and N = 5 corrected; the published entries are kept beside them
as ``PUBLISHED_DEFICIT`` and ``PUBLISHED_LOG2`` with the reason.  The
corrected values come from the independent 30-digit walk in
``tests/test_highprec.py``, which also checks them against this table.
"""

import sys
import time

import numpy as np

from groverline.absorb import (
    AbsorptionQuery,
    QuadratureSpec,
    prob_one_boundary,
    prob_two_boundary,
    table1,
    theorem4_sequence,
)
from groverline.genfun import l_closed, r_closed, s_closed
from groverline.localize import oscillation_trace, residual_near_origin
from groverline.series import one_boundary_series, two_boundary_series
from groverline.walk import BoundarySpec, CoinSpinor, run_walk

from genfun_oracle import (
    check_contraction,
    check_prop8,
    check_prop10,
    lambda_pm,
    r_closed_uncorrected,
    two_boundary_eval,
)

BASIS = {"L": (1, 0, 0), "S": (0, 1, 0), "R": (0, 0, 1)}


def _announce(n: int, title: str, ok: bool) -> None:
    print(f"ACCEPTANCE {n} ({title}): {'PASS' if ok else 'FAIL'}", file=sys.__stdout__)


def _taylor(f, n_terms, radius=0.5, n_samples=256):
    ks = np.arange(n_samples)
    zs = radius * np.exp(2j * np.pi * ks / n_samples)
    coeffs = np.fft.fft(f(zs)) / n_samples
    return coeffs[:n_terms] / radius ** np.arange(n_terms)


def test_criterion_1_one_boundary_probabilities():
    expected = {"L": 0.4248, "S": 0.5255, "R": 0.6693}
    ok = True
    details = []
    for coin, want in expected.items():
        start = time.perf_counter()
        got = prob_one_boundary(1, BASIS[coin])
        elapsed = time.perf_counter() - start
        if abs(got - want) > 5e-4 or elapsed >= 5.0:
            ok = False
        details.append(f"{coin}: {got:.6f} (want {want} +- 5e-4, {elapsed:.2f}s)")
    _announce(1, "one-boundary probabilities", ok)
    assert ok, "; ".join(details)


def test_criterion_2_adjacent_boundary_recurrence():
    start = time.perf_counter()
    seq = theorem4_sequence(25)
    failures = []
    if abs(seq[1] - 2 / 3) > 1e-12:
        failures.append(f"p_1 = {seq[1]!r} is not 2/3")
    if abs(seq[25] - 1 / np.sqrt(2)) > 1e-9:
        failures.append(f"p_25 = {seq[25]!r} has not reached 1/sqrt(2)")
    # the trapezoid circle quadrature, a route independent of the recurrence
    spec = QuadratureSpec("trapezoid", 1e-12)
    for n in range(1, 11):
        ans = prob_two_boundary(AbsorptionQuery((0, 0, 1), left=1, right=n), spec)
        gap = abs(ans.p_left - seq[n])
        if gap >= 1e-8:
            failures.append(f"crosscheck n={n}: |quad - recurrence| = {gap:.3g}")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 10s")
    _announce(2, "recurrence vs quadrature", not failures)
    assert not failures, "; ".join(failures)


# reference table: probabilities, scaled deficits, and their log2
REF_L = [0.1529411765, 0.1616161616, 0.1619106568,
         0.1619197226, 0.1619199936, 0.1619200016]
REF_R = [0.4470588235, 0.4343434343, 0.4340077105,
         0.4339982240, 0.4339979488, 0.4339979407]
REF_S = [0.6000000000, 0.5959595960, 0.5959183673,
         0.5959179466, 0.5959179423, 0.5959179423]
REF_DEFICIT = [4040404040, 41228613, 420743, 4293.748, 43.818]
REF_LOG2 = [31.9119, 25.2971, 18.6826, 12.0680, 5.4535]
REF_DEFICIT_TOL = [1, 1, 1, 1, 2]
REF_LOG2_TOL = [0.05, 0.05, 0.05, 0.05, 0.2]

# The published deficit entries at N = 4 and N = 5, replaced above by the
# 30-digit walk of tests/test_highprec.py (4293.74805701, 43.8183186613;
# log2 12.068022, 5.4534622).  They cannot be right: the published s column
# gives s_5 - s_6 = 0 at ten digits, so 11 was not derived from it; 12.0674
# is log2(4292) and inherits its error; and their log2 falls by 8.61 on the
# last step where every other step of the table falls by 6.6146.
PUBLISHED_DEFICIT = {4: 4292, 5: 11}
PUBLISHED_LOG2 = {4: 12.0674, 5: 3.4594}


def test_criterion_3_reference_table():
    start = time.perf_counter()
    rows = table1(max_n=6)
    elapsed = time.perf_counter() - start
    failures = []
    for i, row in enumerate(rows):
        for name, got, want in (
            ("l", row.left, REF_L[i]),
            ("r", row.right, REF_R[i]),
            ("s", row.total, REF_S[i]),
        ):
            if abs(got - want) > 1e-9:
                failures.append(
                    f"N={i + 1}: {name} = {got:.12f}, reference {want:.10f}"
                )
    for i in range(5):
        tol_units = REF_DEFICIT_TOL[i]
        got = rows[i].deficit_scaled
        if abs(got - REF_DEFICIT[i]) > tol_units:
            failures.append(
                f"N={i + 1}: scaled deficit {got:.3f} vs reference "
                f"{REF_DEFICIT[i]} (allowed +-{tol_units})"
            )
        tol_log = REF_LOG2_TOL[i]
        got_log = rows[i].log2_deficit
        if abs(got_log - REF_LOG2[i]) > tol_log:
            failures.append(
                f"N={i + 1}: log2 deficit {got_log:.4f} vs reference "
                f"{REF_LOG2[i]} (allowed +-{tol_log})"
            )
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    _announce(3, "reference table reproduction", not failures)
    assert not failures, "\n".join(failures)


def test_criterion_4_oracle_tower():
    failures = []
    l1, s1, r1 = (f.coeffs for f in one_boundary_series(order=30))
    one_series = {"L": l1, "S": s1, "R": r1}

    def times_l1(c):
        return np.convolve(c, l1)[: len(l1)]

    # simulator per-step masses == squared series coefficients, t <= 30
    for coin in BASIS:
        cases = [(BoundarySpec(left=1), one_series[coin])]
        cases.append((BoundarySpec(left=2), times_l1(one_series[coin])))
        for n in range(1, 6):
            l2, s2, r2 = (f.coeffs for f in two_boundary_series(n, order=30))
            cases.append(
                (BoundarySpec(left=1, right=n), {"L": l2, "S": s2, "R": r2}[coin])
            )
        for bounds, srs in cases:
            amps = run_walk(CoinSpinor(*BASIS[coin]), bounds, 30).first_hit_left
            gap = np.max(np.abs(np.abs(amps) ** 2 - np.abs(srs[1:]) ** 2))
            if gap > 1e-12:
                failures.append(
                    f"simulator vs series {coin} {bounds}: gap {gap:.3g}"
                )

    # series coefficients == closed-form Taylor coefficients, t <= 20
    closed_one = {"L": l_closed, "S": s_closed, "R": r_closed}
    for coin in BASIS:
        pairs = [
            (closed_one[coin], one_series[coin]),
            (lambda z, c=closed_one[coin]: c(z) * l_closed(z),
             times_l1(one_series[coin])),
        ]
        for n in range(1, 6):
            idx = {"L": 0, "S": 1, "R": 2}[coin]
            srs = two_boundary_series(n, order=30)[idx].coeffs
            pairs.append(
                (lambda z, n=n, idx=idx: two_boundary_eval(n, z)[idx], srs)
            )
        for f, srs in pairs:
            got = _taylor(f, 21)
            gap = np.max(np.abs(got - srs[:21]))
            if gap > 1e-9:
                failures.append(f"closed form vs series {coin}: gap {gap:.3g}")

    # quadrature >= simulator cumulative at T=2000, gap < 2e-3
    for coin, spinor in BASIS.items():
        init = CoinSpinor(*spinor)
        for m in (1, 2):
            quad = prob_one_boundary(m, spinor)
            cum = run_walk(init, BoundarySpec(left=m), 2000).cumulative_left
            if not (cum <= quad + 1e-12 and quad - cum < 2e-3):
                failures.append(
                    f"quad vs simulator left={m} {coin}: {quad} vs {cum}"
                )
        for n in range(1, 6):
            quad = prob_two_boundary(
                AbsorptionQuery(spinor, left=1, right=n)
            ).p_left
            cum = run_walk(
                init, BoundarySpec(left=1, right=n), 2000
            ).cumulative_left
            if not (cum <= quad + 1e-12 and quad - cum < 2e-3):
                failures.append(
                    f"quad vs simulator left=1 right={n} {coin}: {quad} vs {cum}"
                )

    _announce(4, "oracle tower", not failures)
    assert not failures, "\n".join(failures)


def test_criterion_5_localization():
    start = time.perf_counter()
    failures = []
    trace = oscillation_trace(500)
    half = trace.steps >= 250
    m1 = float(trace.p_minus1[half].mean())
    m0 = float(trace.p_zero[half].mean())
    if abs(m1 - 0.202) > 0.005:
        failures.append(f"mean P(.,-1) = {m1:.4f} not within 0.202 +- 0.005")
    if abs(m0 - 0.202) > 0.005:
        failures.append(f"mean P(.,0) = {m0:.4f} not within 0.202 +- 0.005")
    if abs(m1 + m0 - 0.404) > 0.005:
        failures.append(f"sum {m1 + m0:.4f} not within 0.404 +- 0.005")
    res1 = residual_near_origin(1, steps=2000)
    if res1 >= 0.01:
        failures.append(f"boundary at -1: residual {res1:.4g} >= 0.01")
    res2 = residual_near_origin(2, steps=2000)
    if res2 <= 0.3:
        failures.append(f"boundary at -2: residual {res2:.4g} <= 0.3")
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 30s")
    _announce(5, "localization phenomenology", not failures)
    assert not failures, "; ".join(failures)


def test_criterion_6_identity_suite():
    failures = []
    rng = np.random.default_rng(2024)

    theta = rng.uniform(0.02, 2 * np.pi - 0.02, 50)
    zs = np.exp(1j * theta)
    for n in range(1, 7):
        worst = float(np.max(check_prop8(n, zs)))
        if worst >= 1e-10:
            failures.append(f"reflection identity n={n}: residual {worst:.3g}")

    seq = theorem4_sequence(10)
    for n in range(1, 11):
        re_part, pn = check_prop10(n)
        if abs(re_part) >= 1e-12:
            failures.append(f"Re r_{n}(omega) = {re_part:.3g}")
        if abs(pn - seq[n]) >= 1e-12:
            failures.append(f"omega route p_{n} off by {abs(pn - seq[n]):.3g}")

    n_samples = 10_000
    ws = np.sqrt(rng.uniform(0, 1, n_samples)) * np.exp(
        2j * np.pi * rng.uniform(0, 1, n_samples)
    ) * 0.9999
    zs2 = np.sqrt(rng.uniform(0, 1, n_samples)) * np.exp(
        2j * np.pi * rng.uniform(0, 1, n_samples)
    ) * 0.9999
    vals = np.array([check_contraction(w, z) for w, z in zip(ws, zs2)])
    if not np.all(vals < 1.0):
        failures.append(f"contraction bound violated: max {vals.max()}")

    zr = rng.uniform(-0.9, 0.9, 200) + 1j * rng.uniform(-0.9, 0.9, 200)
    lp, lm = lambda_pm(zr)
    worst = float(np.max(np.abs(lp * lm - zr * zr * (1 - zr) ** 2)))
    if worst >= 1e-12:
        failures.append(f"eigenvalue product identity: residual {worst:.3g}")

    _announce(6, "identity suite", not failures)
    assert not failures, "; ".join(failures)


def test_criterion_7_sign_regression():
    failures = []
    c_fixed = _taylor(r_closed, 2)
    if abs(c_fixed[0]) >= 1e-12:
        failures.append(f"corrected form constant term {c_fixed[0]:.3g}")
    if abs(c_fixed[1] - 2 / 3) >= 1e-12:
        failures.append(f"corrected form linear term {c_fixed[1]:.6g}")
    # the printed variant must FAIL the same check: its expansion has a
    # spurious constant term of exactly 1
    c_printed = _taylor(r_closed_uncorrected, 2)
    if not abs(c_printed[0] - 1.0) < 1e-12:
        failures.append(
            f"uncorrected variant unexpectedly passes: c0 = {c_printed[0]:.3g}"
        )
    _announce(7, "sign-correction regression", not failures)
    assert not failures, "; ".join(failures)
