"""Spans around the program's layers, recorded from outside the program.

The tracer replaces a public function at the binding its caller looks up
(for example ``pgospa.metric.solve_assignment``, which ``pgospa()`` calls)
with a wrapper that records a span: name, start, end, parent span and
request number.  Spans stay in memory and are written out at the end.
A layer's self time is its span duration minus the time its child spans
cover.

Counters that need work (file sizes, the share of distances below c) run
in a child span named ``trace``, so that work is charged to tracing and
not to the layer it describes.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from time import perf_counter

import pgospa.assignment
import pgospa.cli
import pgospa.metric
import pgospa.montecarlo

TRACE = "trace"


def _params_c(args, kwargs):
    params = kwargs.get("params", args[2] if len(args) > 2 else None)
    return params.c


def _components(obj) -> int:
    entries = getattr(obj, "entries", None)
    if entries is not None:
        return sum(len(mb) for _, mb in entries)
    return len(obj)


class Tracer:
    """Installs span-recording wrappers and turns spans into layer metrics."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, request]
        self.counts = defaultdict(float)
        self.request = -1
        self._stack = []
        self._c_stack = []  # cut-off c of the enclosing pgospa() call
        self._saved = []
        a, c, mt, mc = pgospa.assignment, pgospa.cli, pgospa.metric, pgospa.montecarlo
        self._targets = [
            (c, "load_document", "model.parse", self._count_parse),
            (mc, "load_document", "model.parse", self._count_parse),
            (c, "mb_from_dict", "model.validate", self._count_validate),
            (c, "mbm_from_dict", "model.validate", self._count_validate),
            (mc, "mb_from_dict", "model.validate", self._count_validate),
            (mc, "mbm_from_dict", "model.validate", self._count_validate),
            (mt, "pairwise_base_distance", "distances.pairwise", self._count_pairwise),
            (mt, "solve_assignment", "assignment.solve", self._count_solve),
            (a, "linear_sum_assignment", "assignment.lsa", None),
            (c, "pgospa", "metric.pgospa", None),
            (mc, "pgospa", "metric.pgospa", None),
            (mt, "pgospa", "metric.pgospa", None),
            (c, "mbm_pgospa", "metric.mbm", None),
            (mc, "mbm_pgospa", "metric.mbm", None),
            (mt, "linear_sum_assignment", "metric.near_tie_lsa", None),
            (mc, "evaluate_run_dir", "montecarlo.evaluate", None),
            (mc, "write_rms_csv", "montecarlo.write_csv", None),
        ]

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        for module, attr, name, counter in self._targets:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, counter))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _open(self, name) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                           self.request])
        self._stack.append(idx)
        return idx

    def _wrap(self, fn, name, counter):
        spans, stack = self.spans, self._stack
        c_stack = self._c_stack
        is_metric = name == "metric.pgospa"

        def wrapper(*args, **kwargs):
            idx = self._open(name)
            if is_metric:
                c_stack.append(_params_c(args, kwargs))
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if is_metric:
                    c_stack.pop()
                span = spans[idx]
                span[1], span[2] = t0, t1
                self.counts[name + ".calls"] += 1
            if counter is not None:
                tidx = self._open(TRACE)
                t2 = perf_counter()
                counter(args, out)
                spans[tidx][1], spans[tidx][2] = t2, perf_counter()
                stack.pop()
            return out

        return wrapper

    def call(self, fn, *args):
        """Run ``fn`` under a top-level ``cli`` span (one request)."""
        self.request += 1
        idx = self._open("cli")
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans[idx][1], self.spans[idx][2] = t0, perf_counter()
            self._stack.pop()

    # -- counters -----------------------------------------------------------

    def _count_parse(self, args, out):
        self.counts["model.parse_bytes"] += os.path.getsize(args[0])

    def _count_validate(self, args, out):
        self.counts["model.components"] += _components(out)

    def _count_pairwise(self, args, out):
        n, m = out.shape
        dim = args[0][0].dim if n else 0
        self.counts["distances.pairs"] += n * m
        self.counts["distances.bytes_computed"] += n * m * dim * dim * 8
        if self._c_stack:
            self.counts["distances.within_c"] += int((out < self._c_stack[-1]).sum())

    def _count_solve(self, args, out):
        limit = getattr(pgospa.assignment, "LEX_REFINE_MAX", None)
        shape = getattr(args[0], "shape", (0, 0))
        if limit is None or max(shape) <= limit:
            self.counts["assignment.refine_eligible"] += 1

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict:
        """Total self time per span name."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(float)
        for k, (name, t0, t1, _, _) in enumerate(self.spans):
            out[name] += (t1 - t0) - child[k]
        return dict(out)

    def inclusive_times(self) -> dict:
        out = defaultdict(float)
        for name, t0, t1, _, _ in self.spans:
            out[name] += t1 - t0
        return dict(out)

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer metrics per pass over the workload's request set."""
        st, inc, n = self.self_times(), self.inclusive_times(), self.counts
        solves = n["assignment.solve.calls"]
        pairs = n["distances.pairs"]
        values = {
            "model.parse_s": st.get("model.parse", 0.0),
            "model.parse_calls": n["model.parse.calls"],
            "model.parse_bytes": n["model.parse_bytes"],
            "model.validate_s": st.get("model.validate", 0.0),
            "model.validate_calls": n["model.validate.calls"],
            "model.components": n["model.components"],
            "distances.pairwise_s": st.get("distances.pairwise", 0.0),
            "distances.pairwise_calls": n["distances.pairwise.calls"],
            "distances.pairs": pairs,
            "distances.bytes_computed": n["distances.bytes_computed"],
            "assignment.solve_s": inc.get("assignment.solve", 0.0),
            "assignment.solve_calls": solves,
            "assignment.lsa_s": inc.get("assignment.lsa", 0.0),
            "assignment.refine_s": st.get("assignment.solve", 0.0),
            "metric.pgospa_s": inc.get("metric.pgospa", 0.0),
            "metric.pgospa_calls": n["metric.pgospa.calls"],
            "metric.mbm_calls": n["metric.mbm.calls"],
            "metric.near_tie_lsa_s": inc.get("metric.near_tie_lsa", 0.0),
            "metric.near_tie_lsa_calls": n["metric.near_tie_lsa.calls"],
            "metric.self_s": st.get("metric.pgospa", 0.0) + st.get("metric.mbm", 0.0),
            "montecarlo.evaluate_s": st.get("montecarlo.evaluate", 0.0),
            "montecarlo.write_csv_s": st.get("montecarlo.write_csv", 0.0),
            "cli.self_s": st.get("cli", 0.0),
        }
        values = {k: v / passes for k, v in values.items()}
        values["distances.within_c_frac"] = n["distances.within_c"] / pairs if pairs else 0.0
        values["assignment.refine_eligible_frac"] = (
            n["assignment.refine_eligible"] / solves if solves else 0.0)
        return values

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "request"],
                       "spans": self.spans}, fh, separators=(",", ":"))
