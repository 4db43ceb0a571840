"""Span recording around regflow's layer boundaries, and per-layer figures.

The tracer replaces, for one traced round, the module attributes through
which each layer calls the next (for example `regflow.simulation.advance`,
which `simulation.run` looks up by name at every agent-step). Each call
records a span (name, start, end, parent) in memory; the spans are written
out when the round ends. No file of the package is changed.

A span's layer is the part of its name before the first dot. A layer's
self time is the duration of its spans minus the part of each span that
its child spans cover; children that ran in parallel threads are counted
once, as the union of their intervals.
"""

from __future__ import annotations

import importlib
import json
import threading
import time

LAYERS = ("cli", "simulation", "dynamics", "agents", "brr", "calibration", "analysis")

#: (module, attribute, span name). The module is the one whose namespace
#: the caller reads, so the wrapper is what the caller actually calls.
BOUNDARIES = (
    ("regflow.cli", "run", "simulation.run"),
    ("regflow.cli", "write_result_json", "simulation.write_json"),
    ("regflow.cli", "write_result_csv", "simulation.write_csv"),
    ("regflow.cli", "_load_json", "cli.load_json"),
    ("regflow.cli", "result_from_json_dict", "simulation.result_from_json"),
    ("regflow.cli", "metrics_report", "analysis.metrics_report"),
    ("regflow.cli", "welch_anova", "analysis.welch"),
    ("regflow.cli", "bonferroni_pairwise", "analysis.welch"),
    ("regflow.cli", "sweep", "analysis.sweep"),
    ("regflow.cli", "write_sweep_csv", "analysis.write_sweep_csv"),
    ("regflow.cli", "read_series_csv", "calibration.read_series"),
    ("regflow.cli", "fit", "calibration.fit"),
    ("regflow.simulation", "result_to_json_dict", "simulation.to_json_dict"),
    ("regflow.simulation", "advance", "dynamics.advance"),
    ("regflow.simulation", "eval_feedback", "dynamics.eval_feedback"),
    ("regflow.simulation", "rule_policy_decide", "agents.rule_decide"),
    ("regflow.simulation", "llm_policy_decide", "agents.llm_decide"),
    ("regflow.simulation", "apply_adjustments", "agents.apply_adjustments"),
    ("regflow.simulation", "compute_brr", "brr.score"),
    ("regflow.simulation", "decide", "brr.score"),
    ("regflow.simulation", "update_threshold", "brr.score"),
    ("regflow.agents", "render_prompt", "agents.render_prompt"),
    ("regflow.agents", "parse_llm_reply", "agents.parse_reply"),
    ("regflow.agents", "rule_policy_decide", "agents.rule_decide"),
    ("requests", "post", "agents.llm_round_trip"),
    ("regflow.analysis", "integrate", "dynamics.integrate"),
    ("regflow.calibration", "_integrate_raw", "dynamics.integrate_raw"),
)


class Tracer:
    """Records spans from any thread. A span opened on a thread with no open
    span of its own (a thread-pool worker) takes the innermost open span
    of the thread that installed the tracer as its parent."""

    def __init__(self):
        self.spans: list = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._saved: list = []

    def span(self, name: str, fn, *args, **kwargs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else -1
        with self._lock:
            idx = len(self.spans)
            self.spans.append(None)
        stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[idx] = (name, start, end, parent)

    def install(self) -> None:
        for module_name, attr, name in BOUNDARIES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return wrapper

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(spans: list) -> dict:
    """Per-name totals and per-layer self times from a span list.

    Returns {"by_name": {name: {"total": s, "self": s, "count": n,
    "durations": [...]}}, "self": {layer: s}, "roots": [index of each root]}.
    """
    children: dict[int, list[int]] = {}
    for i, (_, _, _, parent) in enumerate(spans):
        children.setdefault(parent, []).append(i)
    by_name: dict = {}
    self_time = {layer: 0.0 for layer in LAYERS}
    for i, (name, start, end, _) in enumerate(spans):
        kids = [(max(spans[k][1], start), min(spans[k][2], end)) for k in children.get(i, ())]
        own = (end - start) - _covered(kids)
        entry = by_name.setdefault(name, {"total": 0.0, "self": 0.0, "count": 0, "durations": []})
        entry["total"] += end - start
        entry["self"] += own
        entry["count"] += 1
        entry["durations"].append(end - start)
        layer = name.split(".", 1)[0]
        self_time[layer] = self_time.get(layer, 0.0) + own
    return {"by_name": by_name, "self": self_time, "roots": children.get(-1, [])}


def descendants_named(spans: list, root: int, name: str) -> list[int]:
    """Indices of the spans called `name` below span `root`."""
    parents = [s[3] for s in spans]
    out = []
    for i, span in enumerate(spans):
        if span[0] != name:
            continue
        p = parents[i]
        while p not in (-1, root):
            p = parents[p]
        if p == root:
            out.append(i)
    return out
