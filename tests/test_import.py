"""What importing the package loads, and what its scipy-free routes keep out.

Each check runs in a fresh interpreter, so modules imported by other tests
in this process cannot hide or fake a load.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """\
import contextlib, io, json, sys

def loaded():
    return {
        "scipy": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
        "integrate": "scipy.integrate" in sys.modules,
        "fft": "numpy.fft" in sys.modules,
    }

seen = {}
import groverline as gl
seen["import"] = loaded()
gl.one_boundary_series(70)
gl.two_boundary_series(3, 70)
seen["series"] = loaded()
gl.prob_one_boundary(3, (0, 0, 1))
seen["prob_one_boundary"] = loaded()
gl.absorption_answer(gl.AbsorptionQuery((0, 1, 0), left=2))
seen["absorption_answer_one"] = loaded()
gl.prob_two_boundary(gl.AbsorptionQuery((0, 0, 1), left=2, right=3))
seen["prob_two_boundary"] = loaded()
gl.absorption_profile(7)
seen["absorption_profile"] = loaded()
from groverline import cli
with contextlib.redirect_stdout(io.StringIO()):
    seen["theorem4_rc"] = cli.main(["theorem4", "--max-n", "5"])
seen["theorem4"] = loaded()
gl.prob_one_boundary(1, (0, 0, 1), gl.QuadratureSpec("adaptive-split", 1e-10))
seen["adaptive_split"] = loaded()
print(json.dumps(seen))
"""


def _probe() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_scipy_stays_off_the_default_routes():
    seen = _probe()
    assert seen["import"]["scipy"] == []
    # numpy.fft is imported by the series functions, not by the package
    assert not seen["import"]["fft"]
    assert seen["series"]["fft"]
    assert seen["series"]["scipy"] == []
    for step in ("prob_one_boundary", "absorption_answer_one", "prob_two_boundary",
                 "absorption_profile", "theorem4"):
        assert not seen[step]["integrate"], step
    assert seen["prob_one_boundary"]["scipy"] == []
    assert seen["absorption_answer_one"]["scipy"] == []
    assert seen["theorem4_rc"] == 0
    # the probe does see a load: the explicit cross-check route makes one
    assert seen["adaptive_split"]["integrate"]
