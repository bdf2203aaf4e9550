"""The one-boundary rules against a 30-digit corner-split reference, and their reach.

The reference integrates (1/2pi) int |alpha l + beta s + gamma r|^2
|l|^(2(m-1)) dtheta in mpmath from the printed closed forms, sharing no
code with ``groverline``.  Delta is taken on its disk-analytic branch in
the arc form of ``genfun``'s docstring.  The factor |l|^(2(m-1)) puts
structure of width about 1/m^2 next to each branch angle theta_b =
arccos(-1/3), so the inner arc (-theta_b, theta_b) is split at 0 and at
+-(theta_b - 2^k/m^2) for k = 12..0, and each outer arc is integrated on
its own, with its corner at an end.

Measured against it, for coins L, S, R and the spinor (0.48, -0.6, 0.64i):
gauss-split is within 1.1e-13 up to m = 1100 and 1.8e-8 off at m = 1250
(coins L and R); adaptive-split is within 1.1e-12 up to m = 59 and 7.8e-6
off at m = 60 (coin L).  Each wrong answer came with an error estimate below
its abs_tol, so past its reach each rule is refused with ``ValueError``.
Both reaches were measured at abs_tol 1e-10, and a looser abs_tol is
tightened to 1e-10 for a one-boundary side.
"""

import functools

import pytest

from groverline import AbsorptionQuery, QuadratureSpec, absorption_answer, prob_one_boundary
import groverline.absorb as absorb
from groverline.cli import main

DPS = 30
SPINORS = {"L": (1, 0, 0), "S": (0, 1, 0), "R": (0, 0, 1), "mixed": (0.48, -0.6, 0.64j)}
ADAPTIVE = QuadratureSpec("adaptive-split", 1e-10)


@functools.lru_cache(maxsize=None)
def reference(m, coin):
    """The circle mean at ``DPS`` digits, split at the branch corners."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(DPS):
        a, b, g = (mpmath.mpc(complex(c)) for c in SPINORS[coin])
        corner = mpmath.acos(mpmath.mpf(-1) / 3)

        def integrand(t):
            z = mpmath.expj(t)
            w = 6 * (1 + 3 * mpmath.cos(t))
            if abs(t) < corner:
                d = mpmath.expj(t / 2) * mpmath.sqrt(w)
            else:
                d = -mpmath.expj((t + mpmath.sign(t) * mpmath.pi) / 2) * mpmath.sqrt(-w)
            l = (-3 - 4 * z - 3 * z * z + (1 + z) * d) / (2 * z)
            s = (-3 - z + d) / (2 * z)
            r = (3 - 2 * z + 3 * z * z + (z - 1) * d) / (4 * z)
            return abs(a * l + b * s + g * r) ** 2 * abs(l) ** (2 * (m - 1))

        cuts = [corner - mpmath.mpf(2) ** k / m ** 2 for k in range(12, -1, -1)]
        cuts = [c for c in cuts if c > 0]
        inner = [-corner, *(-c for c in reversed(cuts)), 0, *cuts, corner]
        total = (
            mpmath.quad(integrand, inner)
            + mpmath.quad(integrand, [corner, mpmath.pi])
            + mpmath.quad(integrand, [-mpmath.pi, -corner])
        )
        return float(total / (2 * mpmath.pi))


@pytest.mark.parametrize("coin", SPINORS)
@pytest.mark.parametrize("m", (100, 1024))
def test_gauss_split_within_its_reach(m, coin):
    # measured: at most 9.5e-14 off
    assert abs(prob_one_boundary(m, SPINORS[coin]) - reference(m, coin)) <= 1e-12


@pytest.mark.parametrize("coin", ("L", "R"))
def test_gauss_split_reach_does_not_shrink_with_max_points(coin):
    # Past the reach the two coarsest levels (orders 16 and 32) agree to
    # within abs_tol on a value that misses the corner peaks, so a smaller
    # max_points keeps the same onset.  With the finest order 256 (1024
    # points) m = 700 is still answered to 7.9e-14 and m = 1024 cannot
    # converge, while m = 1025 is refused as at the default max_points.
    spec = QuadratureSpec("gauss-split", 1e-10, 1024)
    psi = SPINORS[coin]
    assert abs(prob_one_boundary(700, psi, spec) - reference(700, coin)) <= 1e-12
    with pytest.raises(absorb.ToleranceError):
        prob_one_boundary(1024, psi, spec)
    with pytest.raises(ValueError, match="up to m = 1024, got m = 1025"):
        prob_one_boundary(1025, psi, spec)


@pytest.mark.parametrize("coin", SPINORS)
def test_adaptive_split_at_the_edge_of_its_reach(coin):
    # measured: at most 1.3e-13 off, against its abs_tol of 1e-10
    got = prob_one_boundary(59, SPINORS[coin], ADAPTIVE)
    assert abs(got - reference(59, coin)) <= ADAPTIVE.abs_tol


@pytest.mark.parametrize("tol", (1e-8, 1e-6))
@pytest.mark.parametrize("coin", SPINORS)
def test_gauss_split_keeps_its_reach_at_a_looser_tolerance(coin, tol):
    # a one-boundary side is integrated at min(abs_tol, 1e-10), where the
    # reach was measured; integrated at 1e-8 itself, m = 1024 was 2.6e-8 to
    # 5.3e-8 off with no refusal
    spec = QuadratureSpec("gauss-split", tol)
    got = prob_one_boundary(1024, SPINORS[coin], spec)
    assert got == prob_one_boundary(1024, SPINORS[coin])
    assert abs(got - reference(1024, coin)) <= 1e-12


@pytest.mark.parametrize("tol", (1e-8, 1e-6))
@pytest.mark.parametrize("coin", ("L", "mixed"))
@pytest.mark.parametrize("m", (30, 45))
def test_adaptive_split_keeps_its_reach_at_a_looser_tolerance(m, coin, tol):
    # integrated at the looser tolerance itself, coin L was 1.4e-5 off at
    # m = 45 (abs_tol 1e-8) and 3.1e-5 off at m = 30 (1e-6); measured now
    # at most 1.1e-12 off
    got = prob_one_boundary(m, SPINORS[coin], QuadratureSpec("adaptive-split", tol))
    assert abs(got - reference(m, coin)) <= ADAPTIVE.abs_tol


@pytest.mark.parametrize(
    ("m", "spec", "message"),
    [
        (1025, None, "gauss-split is accurate for one boundary up to m = 1024, got m = 1025"),
        (1025, QuadratureSpec("gauss-split", 1e-10), "up to m = 1024, got m = 1025"),
        (60, ADAPTIVE, "adaptive-split is accurate for one boundary up to m = 59, got m = 60"),
    ],
)
def test_refused_past_the_reach_before_integrating(monkeypatch, m, spec, message):
    def fail(*args):
        raise AssertionError("integrated past the reach")

    monkeypatch.setattr(absorb, "integrate_periodic", fail)
    psi = SPINORS["mixed"]
    with pytest.raises(ValueError, match=message):
        prob_one_boundary(m, psi, spec)
    # a right boundary is the mirrored left one, and is refused alike
    for query in (AbsorptionQuery(psi, left=m), AbsorptionQuery(psi, right=m)):
        with pytest.raises(ValueError, match=message):
            absorption_answer(query, spec)


def test_trapezoid_has_no_one_boundary_reach():
    # the reach belongs to the corner rules; the trapezoid rule still fails
    # on the corners by its own tolerance check
    with pytest.raises(absorb.ToleranceError):
        prob_one_boundary(2000, SPINORS["R"], QuadratureSpec("trapezoid", 1e-10, 4096))


@pytest.mark.parametrize(
    "argv", [["absorb", "--left", "60"], ["moving-boundary", "--max-m", "60"]]
)
def test_cli_exits_2_past_the_reach(monkeypatch, capsys, argv):
    # moving-boundary asks m = 1..59 before the refused 60; stub their
    # integrals, which take about 20 s and are not under test here
    monkeypatch.setattr(absorb, "integrate_periodic", lambda f, spec: (0.0, 0.0))
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "adaptive-split is accurate for one boundary up to m = 59, got m = 60" in err
