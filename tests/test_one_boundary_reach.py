"""The one-boundary routes against a 30-digit corner-split reference, and the quadrature's reach.

The reference integrates (1/2pi) int |alpha l + beta s + gamma r|^2
|l|^(2(m-1)) dtheta in mpmath from the printed closed forms, sharing no
code with ``groverline``.  Delta is taken on its disk-analytic branch in
the arc form of ``genfun``'s docstring.  The factor |l|^(2(m-1)) puts
structure of width about 1/m^2 next to each branch angle theta_b =
arccos(-1/3), so the inner arc (-theta_b, theta_b) is split at 0 and at
+-(theta_b - 2^k/m^2) for k = 12..0, and each outer arc is integrated on
its own, with its corner at an end.

Measured against it, for coins L, S, R and the spinor (0.48, -0.6, 0.64i):
the default route, the form F_m from the committed table (m <= 15) or
its exact series, is within 5.6e-17 at every m tested, 1 to 10^6, and has
no reach.  adaptive-split is within 1.1e-12 up to m = 59 and 7.8e-6 off at
m = 60 (coin L), with an error estimate below its abs_tol, so past m = 59
it is refused with ``ValueError``.  Its reach was measured at abs_tol
1e-10, and a looser abs_tol is tightened to 1e-10 for a one-boundary side.
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
@pytest.mark.parametrize("m", (1, 2, 3, 59, 60, 100, 1024, 1025, 1250, 5000, 10 ** 6))
def test_default_route_matches_the_reference(m, coin):
    # no reach: m = 60 and up are refused by adaptive-split, and the default
    # route answers them as it answers m = 1; measured: at most 5.6e-17 off
    got = prob_one_boundary(m, SPINORS[coin])
    assert abs(got - reference(m, coin)) <= absorb._ONE_BOUNDARY_ERROR


@pytest.mark.parametrize("coin", SPINORS)
def test_adaptive_split_at_the_edge_of_its_reach(coin):
    # measured: at most 1.3e-13 off, against its abs_tol of 1e-10
    got = prob_one_boundary(59, SPINORS[coin], ADAPTIVE)
    assert abs(got - reference(59, coin)) <= ADAPTIVE.abs_tol


@pytest.mark.parametrize("tol", (1e-8, 1e-6))
@pytest.mark.parametrize("coin", ("L", "mixed"))
@pytest.mark.parametrize("m", (30, 45))
def test_adaptive_split_keeps_its_reach_at_a_looser_tolerance(m, coin, tol):
    # integrated at the looser tolerance itself, coin L was 1.4e-5 off at
    # m = 45 (abs_tol 1e-8) and 3.1e-5 off at m = 30 (1e-6); measured now
    # at most 1.1e-12 off
    got = prob_one_boundary(m, SPINORS[coin], QuadratureSpec("adaptive-split", tol))
    assert abs(got - reference(m, coin)) <= ADAPTIVE.abs_tol


def test_refused_past_the_reach_before_integrating(monkeypatch):
    def fail(*args):
        raise AssertionError("integrated past the reach")

    monkeypatch.setattr(absorb, "integrate_periodic", fail)
    psi = SPINORS["mixed"]
    message = "adaptive-split is accurate for one boundary up to m = 59, got m = 60"
    with pytest.raises(ValueError, match=message):
        prob_one_boundary(60, psi, ADAPTIVE)
    # a right boundary is the mirrored left one, and is refused alike
    for query in (AbsorptionQuery(psi, left=60), AbsorptionQuery(psi, right=60)):
        with pytest.raises(ValueError, match=message):
            absorption_answer(query, ADAPTIVE)


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
