"""Tests of the benchmark itself: answer checks, seeding and tracing.

Run from the repository root:  python3 -m pytest bench/tests
"""

import dataclasses
import shutil
import subprocess
import sys

import numpy as np
import pytest

import groverline
import groverline.absorb
import spans
import workloads as wl

PSI = wl.draw_spinor(np.random.default_rng(3))


@pytest.fixture(scope="module")
def refs():
    return wl.References()


def _perturbed(op, result):
    """``result`` with one reported number moved by 1e-6."""
    if op.part == "one":
        return result + 1e-6
    if op.part == "two":
        return dataclasses.replace(result, p_right=result.p_right + 1e-6)
    if op.part == "strip":
        masses = result.absorbed_left.copy()
        masses[5] += 1e-6
        return dataclasses.replace(result, absorbed_left=masses)
    if op.part == "localize":
        return result + 1e-6
    rc, out = result
    return rc, out.replace(b"0.669265309219", b"0.669265309220")


CHECKED = [
    wl.Op("one", (3,), PSI, 1),
    wl.Op("two", (1, 4), PSI, 1),
    wl.Op("strip", (3, 300), PSI, 300),
    wl.Op("localize", ("residual_near_origin", 1500), PSI, 1500),
    wl.Op("cli_main", ("moving_boundary",), None, 1),
]


@pytest.mark.parametrize("op", CHECKED, ids=lambda op: op.part)
def test_answer_moved_by_1e_6_is_counted_as_failed(op, refs, monkeypatch):
    good = wl.execute(op)
    assert wl.check(op, good, refs) is None
    assert wl.check(op, _perturbed(op, good), refs) is not None

    monkeypatch.setattr(wl, "execute", lambda op: _perturbed(op, good))
    tally = wl.Tally()
    wl.run_round(wl.PartRun(), [op, op], refs, tally)
    assert (tally.attempted, tally.failed) == (2, 2)


def _rounds(seed, part, n=3):
    return [wl.make_round(part, seed, k) for k in range(n)]


@pytest.mark.parametrize("part", wl.PARTS)
def test_same_seed_gives_same_inputs(part):
    assert _rounds(11, part) == _rounds(11, part)


@pytest.mark.parametrize("part", wl.PARTS)
def test_other_seed_changes_spinors_not_catalogs(part):
    a, b = _rounds(11, part), _rounds(12, part)
    for ra, rb in zip(a, b):
        assert sorted(op.key for op in ra) == sorted(op.key for op in rb)
        assert sum(op.work for op in ra) == sum(op.work for op in rb)
    spinors_a = [op.spinor for r in a for op in r]
    spinors_b = [op.spinor for r in b for op in r]
    if spinors_a[0] is not None:
        assert not set(spinors_a) & set(spinors_b)


def test_traced_run_completes_without_a_genfun_function(refs, monkeypatch):
    # one-boundary queries never call r_iterates, so deleting it mimics a
    # later version of the package that no longer has it
    monkeypatch.delattr(groverline.absorb, "r_iterates")
    tracer, tally = spans.Tracer(), wl.Tally()
    with spans.wrapped(tracer):
        wl.run_round(wl.PartRun(), [wl.Op("one", (1,), PSI, 1)], refs, tally, tracer)
    assert not hasattr(groverline.absorb, "r_iterates")
    assert tracer.missing == ["groverline.absorb.r_iterates"]
    assert (tally.attempted, tally.failed) == (1, 0)
    metrics = spans.layer_metrics(tracer)
    assert metrics["genfun.iterates.ns_per_node_level"] == 0
    assert metrics["absorb.one_boundary.nodes_per_query"] > 0
    assert metrics["genfun.closed.ns_per_node"] > 0


def test_extend_renumbers_parents_and_queries():
    tracer, worker = spans.Tracer(), spans.Tracer()
    for t in (tracer, worker):
        t.qid += 1
        outer = t.begin("absorb.two_boundary", 3)
        t.end(t.begin("genfun.r_iterates", 10))
        t.end(outer)
    tracer.extend(worker.state())
    assert [s[3] for s in tracer.spans] == [-1, 0, -1, 2]
    assert [s[4] for s in tracer.spans] == [0, 0, 1, 1]
    assert tracer.qid == 1


def test_warm_up_touches_no_catalog_geometry(monkeypatch):
    asked = []
    monkeypatch.setattr(wl, "WARM_UP_S", 0.01)
    monkeypatch.setattr(groverline, "prob_one_boundary", lambda m, psi: asked.append((m,)))
    monkeypatch.setattr(groverline, "prob_two_boundary",
                        lambda q: asked.append((q.left, q.right)))
    wl.warm_up()
    catalogs = {(m,) for m in wl.ONE_BOUNDARY} | set(wl.SWEEP + wl.BATCH + wl.WIDE)
    assert asked and not set(asked) & catalogs


def test_wrapping_is_undone():
    before = groverline.absorb.l_closed
    with spans.wrapped(spans.Tracer()):
        assert groverline.absorb.l_closed is not before
    assert groverline.absorb.l_closed is before


def test_exits_nonzero_without_package_source(tmp_path):
    shutil.copytree(wl.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(wl.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "absorb", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_emitted_metric_names_match_benchmark_json():
    import json

    import run

    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    layer = set(spans.layer_metrics(spans.Tracer(), [k for k, _ in wl.CLI]))
    layer |= {"import.modules_loaded", "import.scipy_integrate_loaded", "cli.interp_s",
              "trace.overhead_frac"}
    assert layer == {m["name"] for m in spec["per_layer"]}
    e2e = {"setup_s", "peak_rss_mb", "ok_frac"} | {f"part{k}_s" for k in range(1, 4)}
    assert e2e == {m["name"] for m in spec["end_to_end"]}
    assert all(len(parts) == 3 for parts in wl.WORKLOADS.values())
    assert set(run.PART_LABELS) == set(wl.ABSORB_PARTS) | set(wl.WORKLOADS["timeline"])
    assert set(wl.WORKLOADS) == {w["name"] for w in spec["workloads"]}
