"""Per-layer spans, recorded from outside the program.

The layers are the qsu2 modules.  `Tracer.installed()` replaces each
layer's public functions with timing wrappers at the name where they are
looked up (modules bind them with `from ... import`, so `qsu2.cli.write_csv`
is patched, not `qsu2.serialize.write_csv`), and restores them on exit.

Each span records name, layer, start, end, parent and operation id; spans
stay in memory until the run ends.  The q-number brackets are called
millions of times from inner loops, so they are counted and timed without
a span of their own; their time still counts as child time of the
enclosing span.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import os
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str  # "<layer>.<function>"
    layer: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    op: int
    child: float = 0.0  # time covered by child spans and hot calls

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child


def _count_rows(rows, counter):
    for row in rows:
        counter[0] += 1
        yield row


def _bytes_measure(tr, args, kwargs, result):
    tr.count["serialize.bytes_written"] += os.path.getsize(result)


def _json_measure(tr, args, kwargs, result):
    size = os.path.getsize(result)
    tr.count["serialize.json_bytes"] += size
    tr.count["serialize.bytes_written"] += size


def _flow_measure(tr, args, kwargs, result):
    m = len(result.m_values)
    tr.count["geometry.curve_pairs"] += m * (m - 1) // 2
    tr.count["geometry.crossings"] += len(result.crossings)


def _rep_measure(tr, args, kwargs, result):
    n = len(result[0].basis)
    tr.count["operators.basis_states"] += n
    tr.count["operators.dense_bytes"] += sum(m.entries.nbytes for m in result)


def _axioms_measure(tr, args, kwargs, result):
    n = args[1][1].entries.shape[0]
    tr.count["hopf.axioms_dim_sum"] += n
    # the largest object built: one dense n^3 x n^3 complex Kronecker product
    tr.count["hopf.kron_bytes"] += 16 * n**6


def _potential_measure(tr, args, kwargs, result):
    tr.count["schrodinger.grid_points"] += result.count


def _comm_measure(tr, args, kwargs, result):
    values, step, base = args[0], args[1], args[2]
    max_periods = kwargs.get("max_periods", args[3] if len(args) > 3 else 10)
    lo = max(1, int(round(0.5 * base / step)))
    hi = min(len(values) - 2, int(round(max_periods * base / step)))
    tr.count["schrodinger.lags"] += max(0, hi - lo + 1)


# (module, attribute, layer, span name, measure).  Every public function
# the CLI calls is wrapped so that spans under the CLI cover its compute.
TARGETS = [
    ("qsu2.cli", "main", "cli", "cli.main", None),
    ("qsu2.cli", "thresholds", "classify", "classify.thresholds", None),
    ("qsu2.cli", "classify", "classify", "classify.classify", None),
    ("qsu2.classify", "finite_orbit_candidates", "classify", "classify.orbit_candidates", None),
    ("qsu2.cli", "spectral_flow", "geometry", "geometry.spectral_flow", _flow_measure),
    ("qsu2.cli", "level_section", "geometry", "geometry.level_section", None),
    ("qsu2.cli", "topology_transition", "geometry", "geometry.transition", None),
    ("qsu2.cli", "build_rep", "operators", "operators.build_rep", _rep_measure),
    ("qsu2.cli", "verify_algebra", "operators", "operators.verify", None),
    ("qsu2.cli", "unitarity_window", "hopf", "hopf.window", None),
    ("qsu2.cli", "spectrum_2jz", "hopf", "hopf.spectrum_2jz", None),
    ("qsu2.cli", "detect_accumulation", "hopf", "hopf.detect_accumulation", None),
    ("qsu2.cli", "build_gen_rep", "hopf", "hopf.build_gen_rep", None),
    ("qsu2.cli", "hopf_axiom_report", "hopf", "hopf.axioms", _axioms_measure),
    ("qsu2.cli", "casimir_gen", "hopf", "hopf.casimir_gen", None),
    ("qsu2.cli", "realization", "schrodinger", "schrodinger.realization", None),
    ("qsu2.cli", "build_potential", "schrodinger", "schrodinger.build_potential", _potential_measure),
    ("qsu2.cli", "eigensolve", "schrodinger", "schrodinger.eigensolve", None),
    ("qsu2.schrodinger", "_cells", "schrodinger", "schrodinger.cells", None),
    ("qsu2.schrodinger", "commensurability_peak", "schrodinger", "schrodinger.commensurability",
     _comm_measure),
    ("qsu2.cli", "write_csv", "serialize", "serialize.write_csv", _bytes_measure),
    ("qsu2.cli", "write_json", "serialize", "serialize.write_json", _json_measure),
    ("qsu2.cli", "complex_pairs", "serialize", "serialize.complex_pairs", None),
    ("qsu2.cli", "write_manifest", "serialize", "serialize.manifest", _bytes_measure),
]
# bracket evaluations, counted and timed without spans
HOT = [
    ("qsu2.classify", "qnumber"),
    ("qsu2.operators", "qnumber"),
    ("qsu2.operators", "bracket_sequence"),
    ("qsu2.schrodinger", "qnumber"),
]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.count = defaultdict(int)
        self.op = -1
        self._stack: list[int] = []
        self._hot = [0, 0.0]  # calls, busy seconds
        self.hot_calls: dict[int, int] = {}  # q-number calls per operation id

    def _wrap(self, fn, name, layer, measure):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if name == "serialize.write_csv":
                rows = [0]
                args = args[:2] + (_count_rows(args[2], rows),) + args[3:]
            parent = stack[-1] if stack else None
            span = Span(name, layer, clock(), math.nan, parent, self.op)
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if parent is not None:
                    spans[parent].child += span.end - span.start
            if name == "serialize.write_csv":
                self.count["serialize.csv_rows"] += rows[0]
            if measure is not None:
                measure(self, args, kwargs, result)
            return result

        return wrapper

    def _wrap_hot(self, fn, name):
        spans, stack, acc, clock = self.spans, self._stack, self._hot, time.perf_counter
        counted = name == "qnumber"

        def wrapper(*args):
            t0 = clock()
            result = fn(*args)
            dt = clock() - t0
            acc[1] += dt
            if counted:
                acc[0] += 1
            if stack:
                spans[stack[-1]].child += dt
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for mod_name, attr, layer, name, measure in TARGETS:
                mod = importlib.import_module(mod_name)
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self._wrap(getattr(mod, attr), name, layer, measure))
            for mod_name, attr in HOT:
                mod = importlib.import_module(mod_name)
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self._wrap_hot(getattr(mod, attr), attr))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def on_call(self, op_id: int, call):
        """Run call() as operation op_id, so its spans carry that id."""
        self.op = op_id
        before = self._hot[0]
        try:
            return call()
        finally:
            self.op = -1
            self.hot_calls[op_id] = self._hot[0] - before

    # ------------------------------------------------------------------

    def totals(self, ops=None) -> dict:
        """Busy seconds per span name and layer self time, over the spans of
        the given operation ids (all when None)."""
        busy = defaultdict(float)
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for sp in self.spans:
            if ops is not None and sp.op not in ops:
                continue
            calls[sp.name] += 1
            self_s[sp.layer] += sp.self_s
            # nested calls of one function (rerun -> main) count once
            if sp.parent is None or self.spans[sp.parent].name != sp.name:
                busy[sp.name] += sp.end - sp.start
        return {"busy": busy, "calls": calls, "self": self_s}

    def covered(self, ops) -> float:
        """Seconds of the given operations covered by spans below the CLI."""
        total = 0.0
        for sp in self.spans:
            if sp.op in ops and sp.layer != "cli" and (
                sp.parent is None or self.spans[sp.parent].layer == "cli"
            ):
                total += sp.end - sp.start
        return total

    def layer_metrics(self) -> dict:
        t = self.totals()
        busy, calls = t["busy"], t["calls"]
        c = self.count
        return {
            "cli.calls": calls["cli.main"],
            "cli.self_s": t["self"]["cli"],
            "qnumbers.qnumber_calls": self._hot[0],
            "qnumbers.busy_s": self._hot[1],
            "classify.classify_calls": calls["classify.classify"],
            "classify.classify_s": busy["classify.classify"],
            "classify.orbit_candidates_calls": calls["classify.orbit_candidates"],
            "classify.orbit_candidates_s": busy["classify.orbit_candidates"],
            "geometry.spectral_flow_s": busy["geometry.spectral_flow"],
            "geometry.curve_pairs": c["geometry.curve_pairs"],
            "geometry.crossings": c["geometry.crossings"],
            "geometry.level_section_s": busy["geometry.level_section"],
            "geometry.transition_s": busy["geometry.transition"],
            "operators.build_rep_s": busy["operators.build_rep"],
            "operators.verify_s": busy["operators.verify"],
            "operators.basis_states": c["operators.basis_states"],
            "operators.dense_bytes": c["operators.dense_bytes"],
            "hopf.build_gen_rep_s": busy["hopf.build_gen_rep"],
            "hopf.axioms_s": busy["hopf.axioms"],
            "hopf.window_s": busy["hopf.window"],
            "hopf.axioms_dim_sum": c["hopf.axioms_dim_sum"],
            "hopf.kron_bytes": c["hopf.kron_bytes"],
            "schrodinger.build_potential_s": busy["schrodinger.build_potential"],
            "schrodinger.grid_points": c["schrodinger.grid_points"],
            "schrodinger.eigensolve_s": busy["schrodinger.eigensolve"],
            "schrodinger.eigensolve_calls": calls["schrodinger.eigensolve"],
            "schrodinger.commensurability_s": busy["schrodinger.commensurability"],
            "schrodinger.lags": c["schrodinger.lags"],
            "serialize.write_csv_s": busy["serialize.write_csv"],
            "serialize.csv_rows": c["serialize.csv_rows"],
            "serialize.write_json_s": busy["serialize.write_json"],
            "serialize.json_bytes": c["serialize.json_bytes"],
            "serialize.complex_pairs_s": busy["serialize.complex_pairs"],
            "serialize.manifest_s": busy["serialize.manifest"],
            "serialize.bytes_written": c["serialize.bytes_written"],
        }
