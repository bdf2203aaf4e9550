"""Rebuild the frozen check data in ``golden/`` from the current package.

Absorption and localization observables are Hermitian forms of the start
spinor, p(psi) = psi^H X psi, so nine queries fix X: the three basis
spinors give the diagonal, (e_i + e_j)/sqrt 2 and (e_i + i e_j)/sqrt 2 the
real and imaginary parts of X_ij.  Each form is then tested on random
spinors before it is written.  CLI goldens are the exact stdout bytes and
exit code of ``groverline.cli.main`` for each catalog command.

Run it only on a commit whose answers are trusted, from the repository
root:  python3 bench/make_golden.py
"""

from __future__ import annotations

import json
import sys

import numpy as np

import workloads as wl

PAIRS = ((0, 1), (0, 2), (1, 2))


def probe_spinors():
    eye = np.eye(3, dtype=complex)
    out = [tuple(eye[i]) for i in range(3)]
    for i, j in PAIRS:
        out.append(tuple((eye[i] + eye[j]) / np.sqrt(2)))
        out.append(tuple((eye[i] + 1j * eye[j]) / np.sqrt(2)))
    return out


def fit_forms(observe) -> dict:
    """Stored forms (9 reals each) of every observable ``observe`` returns."""
    values = [observe(psi) for psi in probe_spinors()]
    forms = {}
    for name in values[0]:
        p = [v[name] for v in values]
        diag = p[:3]
        stored = list(diag)
        for k, (i, j) in enumerate(PAIRS):
            half = (diag[i] + diag[j]) / 2
            stored += [p[3 + 2 * k] - half, half - p[4 + 2 * k]]
        forms[name] = stored
    return forms


def verify(observe, forms, tol, rng) -> None:
    for _ in range(2):
        psi = wl.draw_spinor(rng)
        got = observe(psi)
        for name, stored in forms.items():
            want = wl.form_value(wl.form_from_list(stored), psi)
            if not abs(got[name] - want) <= tol:
                raise SystemExit(f"form {name} misses a random spinor by {abs(got[name] - want):.3g}")


def main() -> None:
    import groverline as gl

    rng = np.random.default_rng(12345)
    forms = {}

    def add(op, observe, tol):
        key = wl.form_key(op)
        forms[key] = fit_forms(observe)
        verify(observe, forms[key], tol, rng)
        print(key, flush=True)

    for m in wl.ONE_BOUNDARY:
        add(wl.Op("one", (m,), None, 1),
            lambda psi, m=m: {"left": gl.prob_one_boundary(m, psi)}, wl.ONE_TOL)
    for geo in sorted(set(wl.SWEEP) | set(wl.BATCH) | set(wl.WIDE)):
        def two(psi, geo=geo):
            ans = gl.prob_two_boundary(gl.AbsorptionQuery(psi, left=geo[0], right=geo[1]))
            return {"left": ans.p_left, "right": ans.p_right}
        add(wl.Op("two", geo, None, 1), two, wl.TWO_TOL)
    for key in wl.LOCALIZE:
        op = wl.Op("localize", key, None, key[1])
        add(op, lambda psi, op=op: wl.localize_observables(
            op.key[0], wl.execute(wl.Op(op.part, op.key, psi, op.work))), wl.FORM_TOL)
    (wl.GOLDEN / "forms.json").write_text(json.dumps(forms, indent=1, sort_keys=True) + "\n")

    cli_dir = wl.GOLDEN / "cli"
    cli_dir.mkdir(parents=True, exist_ok=True)
    codes = {}
    for key, _ in wl.CLI:
        rc, out = wl.execute(wl.Op("cli_main", (key,), None, 1))
        codes[key] = rc
        (cli_dir / f"{key}.out").write_bytes(out)
    (cli_dir / "rc.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.path.insert(0, str(wl.SRC))
    main()
