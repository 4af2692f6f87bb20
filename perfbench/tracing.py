"""Timing shims installed around buffon's public functions from outside.

Nothing under ``src/`` knows about tracing: :func:`installed` replaces each
function where the package looks it up (a module attribute, or a method on
``ConvexBody``) by a wrapper that records a :class:`Span`, and restores the
originals on exit.  The wrappers only read arguments and results, so a traced
call returns exactly what an untraced one does.

Spans stay in memory while the benchmark runs and are written out once at
the end.  Per-layer metrics are derived from one op's spans: busy time is
the summed duration of a layer's spans, self time subtracts the direct
children, and counts come from the attributes each wrapper records.
"""

from __future__ import annotations

import functools
import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

PHASES = ("grid", "targeted", "refine1", "refine2")


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    op: int
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "op": self.op, "start": self.start, "end": self.end,
                "attrs": self.attrs}


class Tracer:
    """In-memory span recorder; ``op`` tags every span with the current op."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[Span] = []
        # per open estimate_sup span id: (thetas, offsets, included) per phase
        self._phase_batches: dict[int, list] = {}

    def wrap(self, name, fn, before=None, after=None):
        """``before(tracer, span, args)`` and ``after(tracer, span, parent,
        result)`` record attributes; neither may change what ``fn`` sees."""
        @functools.wraps(fn)
        def shim(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans), None if parent is None else parent.id,
                        name, self.op)
            self.spans.append(span)
            if before is not None:
                before(self, span, args)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(self, span, parent, result)
            return result
        return shim


def _count_items(position: int):
    """Hook recording the element count of positional argument ``position``."""
    def before(tracer, span, args):
        span.attrs["items"] = int(np.size(args[position]))
    return before


def _evaluate_before(tracer, span, args):
    sset, thetas = args[0], args[1]
    span.attrs.update(items=int(np.size(thetas)), families=int(sset.n))


def _evaluate_after(tracer, span, parent, batch):
    included = batch.valid & ~batch.exceptional
    span.attrs.update(
        jittered=int(batch.jittered.sum()),
        useful=int(included.sum()),
        excluded=int(batch.exceptional.sum()))
    if parent is not None and parent.id in tracer._phase_batches:
        tracer._phase_batches[parent.id].append(
            (batch.theta, batch.offset, included))


def _estimate_before(tracer, span, args):
    tracer._phase_batches[span.id] = []


def _estimate_after(tracer, span, parent, report):
    phases = tracer._phase_batches.pop(span.id)
    span.attrs.update(
        samples=int(report.samples_evaluated),
        excluded=int(report.excluded_lines),
        sup=float(report.sup_estimate),
        envelope=float(report.envelope_upper),
        witness_phase=witness_phase(
            phases, report.witness_theta, report.witness_offset))


def witness_phase(phases, theta: float, offset: float) -> Optional[str]:
    """Earliest phase whose included lines hold the witness (theta, offset).

    ``phases`` lists (thetas, offsets, included) per evaluate_lines call of
    one estimate_sup, in call order: grid, targeted, then refine rounds.
    """
    for index, (thetas, offsets, included) in enumerate(phases):
        if np.any(included & (thetas == theta) & (offsets == offset)):
            return ("grid", "targeted")[index] if index < 2 else "refine"
    return None


def _targets():
    """(owner, attribute, span name, wrapper kind) for every shimmed name."""
    from buffon import counting, discrepancy, harness, steinhaus
    from buffon.geometry import ConvexBody

    return [
        (ConvexBody, "chord_batch", "geometry.chord_batch", "chord"),
        (ConvexBody, "slice_lengths", "geometry.slice_lengths", "slices"),
        (harness, "build_exact", "steinhaus.build_exact", None),
        (steinhaus, "build_exact", "steinhaus.build_exact", None),
        (steinhaus, "grid_length", "steinhaus.grid_length", None),
        (harness, "family_length_many", "steinhaus.family_length_many", None),
        (discrepancy, "evaluate_lines", "counting.evaluate_lines", "evaluate"),
        (harness, "count_line", "counting.count_line", None),
        (discrepancy, "count_line", "counting.count_line", None),
        (harness, "oracle_count", "counting.oracle_count", None),
        (harness, "z_samples", "counting.z_samples", "z"),
        (counting, "z_samples", "counting.z_samples", "z"),
        (harness, "estimate_sup", "discrepancy.estimate_sup", "estimate"),
        (discrepancy, "estimate_sup", "discrepancy.estimate_sup", "estimate"),
        (discrepancy, "decompose", "discrepancy.decompose", None),
        (discrepancy, "max_quadrature_deviation",
         "discrepancy.max_quadrature_deviation", None),
        (harness, "run_sweep", "harness.run_sweep", None),
        (harness, "run_oracle_check", "harness.run_oracle_check", None),
        (harness, "length_study", "harness.length_study", None),
        (harness, "z_tail_study", "harness.z_tail_study", None),
        (harness, "coherence_study", "harness.coherence_study", None),
    ]


_HOOKS = {
    "chord": (_count_items(1), None),
    "slices": (_count_items(2), None),
    "z": (_count_items(4), None),  # shifts: (samples, families)
    "evaluate": (_evaluate_before, _evaluate_after),
    "estimate": (_estimate_before, _estimate_after),
    None: (None, None),
}


@contextmanager
def installed(tracer: Tracer):
    """Shim every target for the duration of the block, then restore."""
    saved = []
    try:
        for owner, attr, name, kind in _targets():
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, *_HOOKS[kind]))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- per-layer metrics ---------------------------------------------------------

# (name, unit, better).  "share" is busy seconds over the op's wall seconds;
# rates are items over busy seconds.  Layers a workload never calls read 0.
LAYER_METRICS = [
    ("geometry.chord_batch.calls", "count", "lower"),
    ("geometry.chord_batch.lines", "count", "lower"),
    ("geometry.chord_batch.lines_per_s", "1/s", "higher"),
    ("geometry.chord_batch.share", "frac", "lower"),
    ("geometry.slice_lengths.calls", "count", "lower"),
    ("geometry.slice_lengths.slices", "count", "lower"),
    ("geometry.slice_lengths.slices_per_s", "1/s", "higher"),
    ("geometry.slice_lengths.share", "frac", "lower"),
    ("steinhaus.build_exact.calls", "count", "lower"),
    ("steinhaus.build_exact.retries", "count", "lower"),
    ("steinhaus.build_exact.share", "frac", "lower"),
    ("steinhaus.grid_length.calls", "count", "lower"),
    ("steinhaus.grid_length.share", "frac", "lower"),
    ("steinhaus.family_length_many.calls", "count", "lower"),
    ("steinhaus.family_length_many.share", "frac", "lower"),
    ("counting.evaluate_lines.calls", "count", "lower"),
    ("counting.evaluate_lines.lines", "count", "lower"),
    ("counting.evaluate_lines.line_families_per_s", "1/s", "higher"),
    ("counting.evaluate_lines.share", "frac", "lower"),
    ("counting.evaluate_lines.self_share", "frac", "lower"),
    ("counting.jittered_frac", "frac", "lower"),
    ("counting.useful_frac", "frac", "higher"),
    ("counting.excluded_frac", "frac", "lower"),
    ("counting.count_line.calls", "count", "lower"),
    ("counting.count_line.calls_per_s", "1/s", "higher"),
    ("counting.oracle_count.calls", "count", "lower"),
    ("counting.oracle_count.share", "frac", "lower"),
    ("counting.z_samples.calls", "count", "lower"),
    ("counting.z_samples.sample_families_per_s", "1/s", "higher"),
    ("counting.z_samples.share", "frac", "lower"),
    ("discrepancy.estimate_sup.calls", "count", "lower"),
    ("discrepancy.estimate_sup.lines_per_s", "1/s", "higher"),
    ("discrepancy.estimate_sup.share", "frac", "lower"),
    ("discrepancy.estimate_sup.self_share", "frac", "lower"),
    *[(f"discrepancy.phase.{p}.{m}", u, "lower")
      for p in PHASES + ("witness",) for m, u in (("lines", "count"),
                                                  ("share", "frac"))],
    ("discrepancy.witness_phase.grid", "count", "higher"),
    ("discrepancy.witness_phase.targeted", "count", "higher"),
    ("discrepancy.witness_phase.refine", "count", "higher"),
    ("discrepancy.sup_gmean", "1", "higher"),
    ("discrepancy.sup_over_envelope", "frac", "higher"),
    ("discrepancy.max_quadrature_deviation.share", "frac", "lower"),
    ("harness.run_sweep.self_share", "frac", "lower"),
    ("harness.run_oracle_check.share", "frac", "lower"),
    ("harness.length_study.share", "frac", "lower"),
    ("harness.z_tail_study.share", "frac", "lower"),
    ("harness.coherence_study.share", "frac", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def op_layer_metrics(spans: list[Span], wall: float) -> dict:
    """Every per-layer metric of one op except trace.overhead_s."""
    by_name: dict[str, list[Span]] = {}
    child_seconds: dict[int, float] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            child_seconds[s.parent] = child_seconds.get(s.parent, 0.0) + s.seconds

    def calls(name):
        return len(by_name.get(name, ()))

    def busy(name):
        return math.fsum(s.seconds for s in by_name.get(name, ()))

    def self_busy(name):
        return math.fsum(s.seconds - child_seconds.get(s.id, 0.0)
                         for s in by_name.get(name, ()))

    def total(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name.get(name, ()))

    m = {"trace.spans": len(spans)}
    for layer, item in (("geometry.chord_batch", "lines"),
                        ("geometry.slice_lengths", "slices")):
        m[f"{layer}.calls"] = calls(layer)
        m[f"{layer}.{item}"] = total(layer, "items")
        m[f"{layer}.{item}_per_s"] = _ratio(total(layer, "items"), busy(layer))
        m[f"{layer}.share"] = _ratio(busy(layer), wall)

    builds = by_name.get("steinhaus.build_exact", ())
    build_ids = {s.id for s in builds}
    grid_in_builds = sum(1 for s in by_name.get("steinhaus.grid_length", ())
                         if s.parent in build_ids)
    m["steinhaus.build_exact.calls"] = len(builds)
    # each attempt pads once, and padding measures the grid once
    m["steinhaus.build_exact.retries"] = grid_in_builds - len(builds)
    for layer in ("steinhaus.build_exact", "steinhaus.grid_length",
                  "steinhaus.family_length_many", "counting.oracle_count",
                  "counting.z_samples", "discrepancy.estimate_sup",
                  "discrepancy.max_quadrature_deviation",
                  "harness.run_oracle_check", "harness.length_study",
                  "harness.z_tail_study", "harness.coherence_study",
                  "counting.evaluate_lines"):
        m[f"{layer}.share"] = _ratio(busy(layer), wall)
    for layer in ("steinhaus.grid_length", "steinhaus.family_length_many",
                  "counting.evaluate_lines", "counting.count_line",
                  "counting.oracle_count", "counting.z_samples",
                  "discrepancy.estimate_sup"):
        m[f"{layer}.calls"] = calls(layer)

    ev = "counting.evaluate_lines"
    lines = total(ev, "items")
    line_families = sum(s.attrs["items"] * s.attrs["families"]
                        for s in by_name.get(ev, ()))
    m[f"{ev}.lines"] = lines
    m[f"{ev}.line_families_per_s"] = _ratio(line_families, busy(ev))
    m[f"{ev}.self_share"] = _ratio(self_busy(ev), wall)
    m["counting.jittered_frac"] = _ratio(total(ev, "jittered"), lines)
    m["counting.useful_frac"] = _ratio(total(ev, "useful"), lines)
    m["counting.count_line.calls_per_s"] = _ratio(
        calls("counting.count_line"), busy("counting.count_line"))
    m["counting.z_samples.sample_families_per_s"] = _ratio(
        total("counting.z_samples", "items"), busy("counting.z_samples"))

    est = "discrepancy.estimate_sup"
    reports = by_name.get(est, ())
    samples = total(est, "samples")
    m["counting.excluded_frac"] = _ratio(total(est, "excluded"), samples)
    m[f"{est}.lines_per_s"] = _ratio(samples, busy(est))
    m[f"{est}.self_share"] = _ratio(self_busy(est), wall)
    sups = [s.attrs["sup"] for s in reports]
    m["discrepancy.sup_gmean"] = (
        math.exp(math.fsum(math.log(v) for v in sups) / len(sups))
        if sups and min(sups) > 0 else 0.0)
    m["discrepancy.sup_over_envelope"] = (
        statistics.fmean(s.attrs["sup"] / s.attrs["envelope"] for s in reports)
        if reports else 0.0)
    for phase in ("grid", "targeted", "refine"):
        m[f"discrepancy.witness_phase.{phase}"] = sum(
            1 for s in reports if s.attrs["witness_phase"] == phase)

    est_ids = {s.id for s in reports}
    phase_spans = {p: [] for p in PHASES + ("witness",)}
    seen: dict[int, int] = {}
    for s in spans:  # spans are stored in call order
        if s.parent not in est_ids:
            continue
        if s.name == ev:
            index = seen.get(s.parent, 0)
            seen[s.parent] = index + 1
            if index < len(PHASES):
                phase_spans[PHASES[index]].append(s)
        elif s.name == "discrepancy.decompose":
            phase_spans["witness"].append(s)
    for phase, members in phase_spans.items():
        m[f"discrepancy.phase.{phase}.lines"] = (
            len(members) if phase == "witness"
            else sum(s.attrs["items"] for s in members))
        m[f"discrepancy.phase.{phase}.share"] = _ratio(
            math.fsum(s.seconds for s in members), wall)

    m["harness.run_sweep.self_share"] = _ratio(
        self_busy("harness.run_sweep"), wall)
    return m
