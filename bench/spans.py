"""In-memory span tracer, module-attribute wrapping, and per-layer metrics.

Spans come only from the benchmark's own files: around each call the
benchmark makes into a module, and around the ``genfun`` functions that
``absorb`` looks up as module attributes at call time.  A span is
``[name, start_ns, end_ns, parent, query_id, work]``; spans are kept in a
list and written once, when the run ends.  A layer's self time is its
spans' time minus the time of their direct children.  A worker process
hands its spans over with ``Tracer.state`` and the benchmark process folds
them in with ``Tracer.extend``.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import time
from collections import Counter, defaultdict

import numpy as np

#: what ``absorb`` looks up in its own namespace, with the span each gets
ABSORB_WRAPS = (
    ("r_iterates", "genfun.r_iterates"),
    ("lsr_from_previous", "genfun.lsr_from_previous"),
    ("l_closed", "genfun.l_closed"),
    ("s_closed", "genfun.s_closed"),
    ("r_closed", "genfun.r_closed"),
    ("delta_on_circle", "genfun.delta_on_circle"),
)
CLOSED_SPANS = ("genfun.l_closed", "genfun.s_closed", "genfun.r_closed", "genfun.delta_on_circle")
ITERATE_SPANS = ("genfun.r_iterates", "genfun.lsr_from_previous")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.qid = -1
        self.counts: Counter = Counter()
        self.missing: list[str] = []

    def begin(self, name: str, work: float = 0.0) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.qid, work])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self.stack.pop()

    def state(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "missing": self.missing}

    def extend(self, state: dict) -> None:
        """Append another tracer's spans, renumbering their parents and query ids."""
        offset, qid = len(self.spans), self.qid + 1
        for name, start, end, parent, query, work in state["spans"]:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1,
                               query + qid, work])
            self.qid = max(self.qid, query + qid)
        self.counts.update(state["counts"])
        self.missing += [m for m in state["missing"] if m not in self.missing]

    def write(self, path, header: dict) -> None:
        """Write the spans column by column, gzipped JSON."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        cols = list(zip(*self.spans)) if self.spans else [()] * 6
        payload = dict(header, span_names=names, name=[index[n] for n in cols[0]],
                       start_ns=cols[1], end_ns=cols[2], parent=cols[3],
                       query_id=cols[4], work=cols[5])
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _size(x) -> int:
    return int(np.size(x))


def _work_of(attr: str):
    if attr == "r_iterates":  # (max_k, z): max_k widening levels at every node
        return lambda a: int(a[0]) * _size(a[1])
    if attr == "lsr_from_previous":  # (r_prev, z): one level
        return lambda a: _size(a[1])
    return lambda a: _size(a[0])  # closed forms and delta: (z or theta, ...)


@contextlib.contextmanager
def wrapped(tracer: Tracer):
    """Wrap module attributes for the duration of a traced pass.

    A target that no longer exists is listed in ``tracer.missing`` and
    skipped, so later versions of the package that stop calling (or
    delete) a function still trace; their metrics then read zero.
    """
    import groverline.absorb as absorb

    saved = []

    def install(module, attr, make):
        orig = getattr(module, attr, None)
        if orig is None:
            if f"{module.__name__}.{attr}" not in tracer.missing:
                tracer.missing.append(f"{module.__name__}.{attr}")
            return
        saved.append((module, attr, orig))
        setattr(module, attr, make(orig))

    def spanned(name, work_of):
        def make(orig):
            def wrapper(*args, **kwargs):
                try:
                    work = work_of(args)
                except (IndexError, TypeError, ValueError):
                    work = 0
                i = tracer.begin(name, work)
                try:
                    return orig(*args, **kwargs)
                finally:
                    tracer.end(i)
            return wrapper
        return make

    def integrate(orig):
        def wrapper(f, *args, **kwargs):
            i = tracer.begin("absorb.integrate_periodic", 0)
            nodes = [0]

            def counted(theta):
                nodes[0] += _size(theta)
                return f(theta)

            try:
                return orig(counted if callable(f) else f, *args, **kwargs)
            finally:
                tracer.spans[i][5] = nodes[0]
                tracer.end(i)
        return wrapper

    install(absorb, "integrate_periodic", integrate)
    for attr, name in ABSORB_WRAPS:
        install(absorb, attr, spanned(name, _work_of(attr)))
    try:
        yield tracer
    finally:
        for module, attr, orig in reversed(saved):
            setattr(module, attr, orig)


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(tracer: Tracer, cli_commands=()) -> dict:
    """Per-layer numbers from the spans (zero where a layer did no work)."""
    spans = tracer.spans
    dur = [s[2] - s[1] for s in spans]
    child = [0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    total = defaultdict(int)
    work = defaultdict(float)
    calls = Counter()
    layer_self = defaultdict(int)
    for i, s in enumerate(spans):
        total[s[0]] += dur[i]
        work[s[0]] += s[5]
        calls[s[0]] += 1
        layer_self[s[0].split(".")[0]] += dur[i] - child[i]

    # quadrature nodes, attributed to the kind of query that asked for them
    nodes = Counter()
    node_levels = 0.0
    for s in spans:
        if s[0] == "absorb.integrate_periodic" and s[3] >= 0:
            parent = spans[s[3]]
            nodes[parent[0]] += s[5]
            if parent[0] == "absorb.two_boundary":
                node_levels += s[5] * parent[5]

    one, two = "absorb.one_boundary", "absorb.two_boundary"
    closed = sum(total[n] for n in CLOSED_SPANS)
    iterates = sum(total[n] for n in ITERATE_SPANS)
    return {
        "absorb.one_boundary.nodes_per_query": _ratio(nodes[one], calls[one]),
        "absorb.one_boundary.us_per_node": _ratio(total[one], nodes[one], 1e-3),
        "absorb.two_boundary.nodes_per_query": _ratio(nodes[two], calls[two]),
        "absorb.two_boundary.ns_per_node_level": _ratio(total[two], node_levels),
        "absorb.self_s": layer_self["absorb"] * 1e-9,
        "absorb.tolerance_errors": tracer.counts["absorb.tolerance_errors"],
        "genfun.self_s": layer_self["genfun"] * 1e-9,
        "genfun.closed.ns_per_node": _ratio(closed, work["genfun.l_closed"]),
        "genfun.iterates.ns_per_node_level": _ratio(iterates, sum(work[n] for n in ITERATE_SPANS)),
        "series.one_boundary.us_per_coeff": _ratio(
            total["series.one_boundary"], work["series.one_boundary"], 1e-3),
        "series.two_boundary.us_per_coeff_level": _ratio(
            total["series.two_boundary"], work["series.two_boundary"], 1e-3),
        "walk.strip.ns_per_site_step": _ratio(total["walk.strip"], work["walk.strip"]),
        "walk.open.ns_per_site_step": _ratio(total["walk.open"], work["walk.open"]),
        "localize.self_s": layer_self["localize"] * 1e-9,
    } | {f"cli.main_warm_s.{cmd}": _ratio(total[f"cli.main.{cmd}"], calls[f"cli.main.{cmd}"], 1e-9)
         for cmd in cli_commands}
