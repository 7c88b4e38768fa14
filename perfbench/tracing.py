"""Spans around the program's public functions, for the traced run.

`Tracer.install` replaces each function in `TARGETS` by a wrapper in the
namespace where the program looks it up, so calls made inside the program
are timed too.  Spans (name, round, start, end, parent) stay in memory
until `write`.  A span's self time is its duration minus that of its
direct children.
"""

from __future__ import annotations

import importlib
import json
import statistics
from collections import defaultdict
from time import perf_counter

# (module, attribute as the caller looks it up, span name)
TARGETS = (
    ("accessfix.cli", "parse_system", "dslparser.parse"),
    ("accessfix.cli", "parse_policy", "dslparser.parse"),
    ("accessfix.automata", "validate", "sysmodel.validate"),
    ("accessfix.automata", "network_path", "sysmodel.network_path"),
    ("accessfix.analysis", "spec_sets", "policy.spec_sets"),
    ("accessfix.repair", "spec_sets", "policy.spec_sets"),
    ("accessfix.analysis", "enabling_functions", "enabling.functions"),
    ("accessfix.repair", "enabling_functions", "enabling.functions"),
    ("accessfix.cli", "enabling_functions", "enabling.functions"),
    ("accessfix.analysis", "verify", "analysis.verify"),
    ("accessfix.repair", "repair_all", "repair.repair_all"),
    ("accessfix.repair", "solve_all", "repair.solve"),
    ("accessfix.repair", "build_user_automaton", "repair.recheck"),
)

# Per-layer metric -> (span name, what to sum over the round's spans)
SPAN_METRICS = {
    "dslparser.parse_s": ("dslparser.parse", "time"),
    "sysmodel.validate_calls": ("sysmodel.validate", "calls"),
    "sysmodel.validate_s": ("sysmodel.validate", "time"),
    "sysmodel.network_path_calls": ("sysmodel.network_path", "calls"),
    "sysmodel.network_path_s": ("sysmodel.network_path", "time"),
    "policy.spec_sets_s": ("policy.spec_sets", "time"),
    "enabling.functions_calls": ("enabling.functions", "calls"),
    "enabling.functions_s": ("enabling.functions", "time"),
    "analysis.verify_self_s": ("analysis.verify", "self"),
    "cli.self_s": ("cli.main", "self"),
    "repair.solve_calls": ("repair.solve", "calls"),
    "repair.solve_s": ("repair.solve", "time"),
    "repair.recheck_calls": ("repair.recheck", "calls"),
    "repair.recheck_s": ("repair.recheck", "time"),
}
# Metrics counted by the benchmark itself rather than from spans.
COUNTED_METRICS = ("repair.truncated_users", "automata.states", "automata.transitions",
                   "automata.build_s", "enabling.minterms")
UNITS = {"calls": "count", "time": "s", "self": "s"}


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, round, start, end, parent]
        self.counts: dict = defaultdict(float)  # (round, metric) -> value
        self.absent: set[str] = set()
        self.round = 0
        self._stack: list[int] = []
        self._saved: list = []

    def call(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        span = [name, self.round, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(span)
        self._stack.append(index)
        span[2] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = perf_counter()
            self._stack.pop()

    def count(self, metric: str, value) -> None:
        self.counts[(self.round, metric)] += value

    def _wrap(self, fn, name):
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if name == "repair.repair_all" and isinstance(result, dict):
                self.count("repair.truncated_users",
                           sum(bool(getattr(r, "truncated", False)) for r in result.values()))
            return result
        return traced

    def install(self) -> None:
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.add(name)  # gone in this version of the program
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def metrics(self, rounds: int, speed) -> dict:
        """Median over rounds of each per-round total.

        Times are at the reference speed of `speed` (a `speed.SpeedLog`); a
        span's self time is scaled by the span's own speed.
        """
        net = [speed.net(start, end) for _, _, start, end, _ in self.spans]
        factor = [speed.factor(start, end) for _, _, start, end, _ in self.spans]
        children = defaultdict(float)
        for index, (name, rnd, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                children[parent] += net[index]
        totals = defaultdict(float)
        for index, (name, rnd, start, end, parent) in enumerate(self.spans):
            totals[(rnd, name, "calls")] += 1
            totals[(rnd, name, "time")] += net[index] * factor[index]
            totals[(rnd, name, "self")] += (net[index] - children[index]) * factor[index]
        out = {}
        for metric, (name, kind) in SPAN_METRICS.items():
            values = [totals[(r, name, kind)] for r in range(rounds)]
            out[metric] = {"value": statistics.median(values), "unit": UNITS[kind]}
        for metric in COUNTED_METRICS:
            unit = "s" if metric.endswith("_s") else "count"
            values = [self.counts[(r, metric)] for r in range(rounds)]
            out[metric] = {"value": statistics.median(values), "unit": unit}
        return out

    def absent_metrics(self) -> list[str]:
        """Metrics whose function no longer exists; they read 0."""
        return sorted(m for m, (name, _) in SPAN_METRICS.items() if name in self.absent)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "round", "start", "end", "parent"],
                       "spans": self.spans}, fh)
