"""Per-layer spans and counters for the traced run, added from outside rlab.

``install()`` wraps rlab's public functions and methods: module-level
functions are replaced in every ``rlab`` module that holds a reference to
them, and methods are replaced on their class.  Each wrapper opens a span
(name, start, end, parent); a span's self time is its duration minus that of
its direct child spans.  Aggregates are kept in memory, together with the
first ``SPAN_LIMIT`` raw spans, and ``Tracer.write`` saves them at the end
of the run.  Nothing here is imported by an untraced run.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict

SPAN_LIMIT = 100_000

# span name -> the statistics reported for it
SPANS = {
    "cli.main": ("s", "calls"),
    "reports.emit": ("s",),
    "projections.multiplicator_norm": ("s", "self_s", "calls"),
    "projections.equivalence_constants": ("s", "self_s"),
    "projections.projection_norm": ("s", "self_s"),
    "projections.theorem_predicates": ("s", "self_s"),
    "projections.coefficients": ("s", "calls"),
    "projections.project": ("s", "calls"),
    "projections.khintchine_check": ("s", "calls"),
    "weighted.weighted_norm": ("s", "self_s", "calls"),
    **{f"spaces.norm.{family}": ("s", "self_s", "calls")
       for family in ("lp", "linfty", "lorentz", "marcinkiewicz", "orlicz", "explp")},
    "spaces.sym_kernel_report": ("s", "self_s", "calls"),
    "spaces.contains_loghalf": ("s", "calls"),
    "rearrangement.decreasing_rearrangement": ("s", "calls"),
    "dyadic.rademacher_sum": ("s", "calls"),
    "dyadic.from_runs": ("s", "calls"),
    "dyadic.algebra": ("s", "calls"),
    "counterexample.certify": ("s", "self_s"),
    "counterexample.plan": ("s",),
    "counterexample.build_explicit": ("s",),
    "counterexample.bounds": ("s",),
    "counterexample.fraction_repr": ("s",),
    "counterexample.gterm_powers": ("s",),
}

# counter name -> unit
COUNTS = {
    "reports.bytes": "bytes",
    "projections.objective_evals": "count",
    "phi.evals": "count",
    "rearrangement.runs_sorted": "count",
    "dyadic.cells": "count",
    "dyadic.runs_canonicalised": "count",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, as the traced run reports them."""
    units = {f"{span}.{stat}": "count" if stat == "calls" else "s"
             for span, stats in SPANS.items() for stat in stats}
    units.update(COUNTS)
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # open spans: [name, start, time in children]
        self.open = Counter()  # open spans per name, so recursion counts once
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.spans: list[tuple] = []
        self.dropped = 0
        self.restore: list[tuple] = []

    def run(self, name: str, fn, args, kwargs):
        parent = self.stack[-1][0] if self.stack else None
        frame = [name, time.perf_counter(), 0.0]
        self.stack.append(frame)
        self.open[name] += 1
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.open[name] -= 1
            duration = end - frame[1]
            if self.stack:
                self.stack[-1][2] += duration
            if not self.open[name]:
                self.inclusive[name] += duration
            self.self_time[name] += duration - frame[2]
            self.calls[name] += 1
            if len(self.spans) < SPAN_LIMIT:
                self.spans.append((name, parent, frame[1], end))
            else:
                self.dropped += 1

    def metrics(self, rounds: int) -> dict:
        """Per-layer metrics per round of operations."""
        source = {"s": self.inclusive, "self_s": self.self_time, "calls": self.calls}
        values = {}
        for span, stats in SPANS.items():
            for stat in stats:
                values[f"{span}.{stat}"] = source[stat][span]
        for name in COUNTS:
            values[name] = self.counts[name]
        units = metric_units()
        return {name: {"value": value / rounds, "unit": units[name]} for name, value in values.items()}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({
                "inclusive_s": self.inclusive,
                "self_s": self.self_time,
                "calls": self.calls,
                "counts": self.counts,
                "spans": self.spans,
                "spans_dropped": self.dropped,
            }, fh)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.restore):
            setattr(owner, attr, original)
        self.restore.clear()

    # -- wrappers --------------------------------------------------------

    def wrap(self, name: str, fn, before=None, after=None):
        """A traced version of fn; `before(args)` may count work and return
        replacement args, `after(args, result)` may count its output."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args = before(args)
            result = self.run(name, fn, args, kwargs)
            if after is not None:
                after(args, result)
            return result

        return traced

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def counting(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counting

    def patch_function(self, module, attr: str, wrapped_by) -> None:
        """Replace module.attr in every rlab module that refers to it."""
        original = getattr(module, attr, None)
        if original is None:  # removed by a later version: its metrics read 0
            return
        replacement = wrapped_by(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "rlab" and not mod_name.startswith("rlab."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self.restore.append((mod, key, value))
                    setattr(mod, key, replacement)

    def patch_method(self, cls, attr: str, wrapped_by) -> None:
        raw = cls.__dict__.get(attr)
        if raw is None:  # moved or removed by a later version: its metrics read 0
            return
        self.restore.append((cls, attr, raw))
        if isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(wrapped_by(raw.__func__)))
        else:
            setattr(cls, attr, wrapped_by(raw))


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def install() -> Tracer:
    """Wrap rlab's layers; returns the tracer that collects the spans."""
    from rlab import cli, counterexample, dyadic, phi, projections, rearrangement, spaces, weighted

    t = Tracer()

    def span(name, before=None, after=None):
        return lambda fn: t.wrap(name, fn, before, after)

    def count_runs(args):
        level, runs = args
        runs = list(runs)
        t.counts["dyadic.runs_canonicalised"] += len(runs)
        return level, runs

    def count_cells(args):
        t.counts["dyadic.cells"] += 2 ** len(args[0])
        if t.open["projections.multiplicator_norm"]:
            t.counts["projections.objective_evals"] += 1
        return args

    def count_sorted(args):
        t.counts["rearrangement.runs_sorted"] += len(args[0].runs)
        return args

    def count_bytes(args, _):
        out = args[1].out
        if out:
            t.counts["reports.bytes"] += os.path.getsize(out)

    t.patch_function(cli, "main", span("cli.main"))
    t.patch_function(cli, "_emit", span("reports.emit", after=count_bytes))
    for attr in ("multiplicator_norm", "equivalence_constants", "projection_norm",
                 "theorem_predicates", "coefficients", "project", "khintchine_check"):
        t.patch_function(projections, attr, span(f"projections.{attr}"))
    t.patch_function(weighted, "weighted_norm", span("weighted.weighted_norm"))
    for cls in (spaces.Lp, spaces.Linfty, spaces.Lorentz, spaces.Marcinkiewicz,
                spaces.OrliczSpace, spaces.ExpLp):
        t.patch_method(cls, "norm", span(f"spaces.norm.{cls.family}"))
    t.patch_function(spaces, "sym_kernel_report", span("spaces.sym_kernel_report"))
    t.patch_function(spaces, "contains_loghalf", span("spaces.contains_loghalf"))
    for base in (phi.PhiFn, phi.OrliczFn):
        for cls in _subclasses(base):
            if "__call__" in cls.__dict__:
                t.patch_method(cls, "__call__", lambda fn: t.counted("phi.evals", fn))
    t.patch_function(rearrangement, "decreasing_rearrangement",
                     span("rearrangement.decreasing_rearrangement", before=count_sorted))
    t.patch_function(dyadic, "rademacher_sum", span("dyadic.rademacher_sum", before=count_cells))
    t.patch_method(dyadic.StepFunction, "from_runs", span("dyadic.from_runs", before=count_runs))
    for attr in ("__add__", "__sub__", "__mul__"):
        t.patch_method(dyadic.StepFunction, attr, span("dyadic.algebra"))
    t.patch_function(counterexample, "certify", span("counterexample.certify"))
    t.patch_function(counterexample, "plan", span("counterexample.plan"))
    t.patch_function(counterexample, "build_explicit", span("counterexample.build_explicit"))
    for attr in ("bound_B", "bound_D"):
        t.patch_function(counterexample, attr, span("counterexample.bounds"))
    t.patch_function(counterexample, "_fraction_repr", span("counterexample.fraction_repr"))
    t.patch_function(counterexample, "_gterm_eighth_powers", span("counterexample.gterm_powers"))
    return t
