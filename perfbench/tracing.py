"""Boundary tracing for the benchmark's traced run.

The tracer wraps condlab functions where their callers bind them (module
globals, package re-exports and class attributes) and restores the
originals afterwards, so untraced passes in the same process run the
plain code. Nothing inside condlab changes.

* Coarse boundaries (jobs and the top-level library calls) record one
  span each: name, start, end, parent span and job.
* Every boundary, coarse or fine, adds to a count and a total and self
  time kept per (job, name, caller name), so high-frequency calls such
  as ``apply_packed`` cost a counter update, not a span.

Self time is a call's duration minus the time its wrapped children
cover. Each thread keeps its own stack and accumulators. Pool threads
time themselves in thread CPU seconds: under the interpreter lock two
busy threads each see the whole wall time, but their CPU seconds add up
to it, so a job's layer self times plus its unattributed time (the job
span's own self time) equal the job's wall time for the ``threads=2``
job too.
"""

from __future__ import annotations

import importlib
import os
import threading
import time
from dataclasses import dataclass, field

FINE, COARSE, GENERATOR = "fine", "coarse", "generator"


@dataclass(frozen=True)
class Boundary:
    """A wrapped call: its trace name, its layer, how it is recorded, the
    bindings ("module:attr.path") its callers use, and an optional
    ``extra(counters, args, result)`` that adds work counts."""

    name: str
    layer: str
    kind: str
    bindings: tuple
    extra: object = None


def _add(counters, key, amount):
    counters[key] = counters.get(key, 0) + amount


def _image_extra(c, args, result):
    _add(c, "points", len(result))


def _inner_extra(c, args, result):
    _add(c, "points", len(args[0]))
    _add(c, "wins", result[1] is not None)


def _decompose_extra(c, args, result):
    _add(c, "points", len(args[0]))
    _add(c, "cuts", len(result.slice_log))


def _spec_extra(c, args, result):
    table = args[0].table
    _add(c, "entries", len(table) if table is not None else 0)


def _scan_extra(c, args, result):
    _add(c, "points", result.checked)


def _count_item(c, args, result):
    _add(c, "items", 1)


def _bytes_arg(index):
    def extra(c, args, result):
        _add(c, "bytes", os.path.getsize(args[index]))
    return extra


BOUNDARIES = (
    Boundary("apply_packed", "perms", FINE,
             ("condlab.perms:PermutationSpec.apply_packed",)),
    Boundary("invert_packed", "perms", FINE,
             ("condlab.perms:PermutationSpec.invert_packed",)),
    Boundary("PermutationSpec", "perms", FINE,
             ("condlab.perms:PermutationSpec.__init__",), _spec_extra),
    Boundary("random_table", "perms", FINE, ("condlab:random_table",)),
    Boundary("write_table_file", "perms", FINE,
             ("condlab:write_table_file",), _bytes_arg(1)),
    Boundary("load_table_file", "perms", FINE,
             ("condlab:load_table_file",), _bytes_arg(0)),
    Boundary("verify_bijective", "perms", COARSE,
             ("condlab:verify_bijective",), _scan_extra),
    Boundary("enumerate_qboxes_range", "boxes", GENERATOR,
             ("condlab.conductance:enumerate_qboxes_range",)),
    Boundary("image_of_box", "boxes", FINE,
             ("condlab:image_of_box", "condlab.conductance:image_of_box",
              "condlab.condenser:image_of_box"), _image_extra),
    Boundary("greedy_box", "boxes", FINE, ("condlab.conductance:greedy_box",)),
    Boundary("intersection_count", "boxes", FINE,
             ("condlab.boxes:intersection_count",
              "condlab.conductance:intersection_count")),
    Boundary("exact_conductance", "conductance", COARSE,
             ("condlab:exact_conductance",)),
    Boundary("_best_box_bnb", "conductance", FINE,
             ("condlab.conductance:_best_box_bnb",), _inner_extra),
    Boundary("write_checkpoint", "conductance", FINE,
             ("condlab.conductance:write_checkpoint",), _bytes_arg(0)),
    Boundary("heuristic_lower_bound", "conductance", COARSE,
             ("condlab:heuristic_lower_bound",)),
    Boundary("decompose", "condenser", COARSE,
             ("condlab:decompose", "condlab.condenser:decompose"), _decompose_extra),
    Boundary("verify_converse_bounds", "condenser", COARSE,
             ("condlab:verify_converse_bounds",)),
    Boundary("empirical_condenser_profile", "condenser", FINE,
             ("condlab:empirical_condenser_profile",)),
)

LAYER_OF = {b.name: b.layer for b in BOUNDARIES}


@dataclass(slots=True)
class Record:
    """Aggregate of one (job, name, caller) triple."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counters: dict = field(default_factory=dict)


class _ThreadState:
    __slots__ = ("main", "clock", "stack", "records", "foreign")

    def __init__(self, main: bool):
        self.main = main
        self.clock = time.perf_counter if main else time.thread_time
        self.stack = []      # frames: [name, child seconds]
        self.records = {}    # (job, name, caller) -> Record
        self.foreign = {}    # coarse span id -> seconds of top-level frames here


def _resolve(binding):
    module_name, _, path = binding.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


_FAILED = object()
_JOB = Boundary("job", "job", COARSE, ())


class Tracer:
    """Installs wrappers on ``BOUNDARIES`` and aggregates what they see."""

    def __init__(self, boundaries=None):
        self.boundaries = BOUNDARIES if boundaries is None else boundaries
        self.job = None
        self.pass_index = None
        self.spans = []
        self.unmeasured = {}      # boundary name -> bindings not found
        self._local = threading.local()
        self._states = []
        self._states_lock = threading.Lock()
        self._open = []           # open coarse spans on the main thread: (id, name)
        self._next_id = 0
        self._patches = []

    # --- installation ------------------------------------------------------

    def install(self):
        for b in self.boundaries:
            for binding in b.bindings:
                try:
                    owner, attr, original = _resolve(binding)
                except (ImportError, AttributeError):
                    missing = self.unmeasured.setdefault(b.name, [])
                    if binding not in missing:
                        missing.append(binding)
                    continue
                if b.kind == GENERATOR:
                    wrapper = self._wrap_generator(b, original)
                else:
                    wrapper = self._wrap(b, original)
                setattr(owner, attr, wrapper)
                self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # --- recording -----------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = _ThreadState(threading.current_thread() is threading.main_thread())
        self._local.state = st
        with self._states_lock:
            self._states.append(st)
        return st

    def _wrap(self, b, original):
        tracer, local = self, self._local
        name, extra, coarse = b.name, b.extra, b.kind == COARSE

        def wrapper(*args, **kwargs):
            # one straight-line path: it runs around every apply_packed call
            try:
                st = local.state
            except AttributeError:
                st = tracer._state()
            stack = st.stack
            if stack:
                caller, outer = stack[-1][0], None
            elif tracer._open:
                outer, caller = tracer._open[-1]
            else:
                caller = outer = None
            span = tracer._open_span(name) if coarse and st.main else None
            frame = [name, 0.0]
            stack.append(frame)
            clock = st.clock
            result = _FAILED
            t0 = clock()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                dur = clock() - t0
                stack.pop()
                if span is not None:
                    frame[1] += tracer._close_span(span, t0, dur, frame[1])
                if stack:
                    stack[-1][1] += dur
                elif outer is not None:
                    st.foreign[outer] = st.foreign.get(outer, 0.0) + dur
                key = (tracer.job, name, caller)
                rec = st.records.get(key)
                if rec is None:
                    rec = st.records[key] = Record()
                rec.calls += 1
                rec.total_s += dur
                rec.self_s += dur - frame[1]
                if extra is not None and result is not _FAILED:
                    extra(rec.counters, args, result)

        wrapper.__wrapped__ = original
        return wrapper

    def _wrap_generator(self, b, original):
        """Each next() on the returned iterator is a fine call; the one that
        finds the generator exhausted is timed but counts no item."""
        step = Boundary(b.name, b.layer, FINE, b.bindings, _count_item)

        def wrapper(*args, **kwargs):
            return iter(self._wrap(step, original(*args, **kwargs).__next__), _FAILED)

        wrapper.__wrapped__ = original
        return wrapper

    def _open_span(self, name):
        span = (self._next_id, name, self._open[-1][0] if self._open else None)
        self._next_id += 1
        self._open.append(span[:2])
        return span

    def _close_span(self, span, start, dur, child) -> float:
        """Close a coarse span; returns the seconds pool threads spent in
        top-level calls under it, which count as its children."""
        span_id, name, parent = span
        self._open.pop()
        with self._states_lock:
            states = list(self._states)
        foreign = sum(st.foreign.pop(span_id, 0.0) for st in states)
        self.spans.append({
            "id": span_id, "name": name, "parent": parent, "job": self.job,
            "pass": self.pass_index, "start": start, "end": start + dur,
            "self_s": dur - child - foreign,
        })
        return foreign

    def run_job(self, job_name, fn):
        """Run one job as a root span; returns fn's result."""
        self.job = job_name
        try:
            return self._wrap(_JOB, fn)()
        finally:
            self.job = None

    # --- harvesting ----------------------------------------------------------

    def take_records(self) -> list:
        """All records since the last call, merged across threads, as
        (job, name, caller, Record) tuples; the accumulators restart."""
        merged = {}
        with self._states_lock:
            states = list(self._states)
        for st in states:
            records, st.records = st.records, {}
            for key, rec in records.items():
                acc = merged.setdefault(key, Record())
                acc.calls += rec.calls
                acc.total_s += rec.total_s
                acc.self_s += rec.self_s
                for k, v in rec.counters.items():
                    _add(acc.counters, k, v)
        return [(job, name, caller, rec) for (job, name, caller), rec in merged.items()]


def job_accounts(records) -> dict:
    """Per job: wall time, self seconds per layer and unattributed seconds
    (the job span's own self time). The parts add up to the wall time."""
    accounts = {}
    for job, name, caller, rec in records:
        acc = accounts.setdefault(job, {"wall_s": 0.0, "layers": {}, "unattributed_s": 0.0})
        if name == "job":
            acc["wall_s"] += rec.total_s
            acc["unattributed_s"] += rec.self_s
        else:
            layer = LAYER_OF[name]
            acc["layers"][layer] = acc["layers"].get(layer, 0.0) + rec.self_s
    return accounts


BUILD_NAMES = ("random_table", "PermutationSpec", "load_table_file")

# per-layer metric -> (unit, boundaries it needs)
LAYER_METRICS = {
    "perms.apply_calls": ("count", ("apply_packed",)),
    "perms.apply_s": ("s", ("apply_packed",)),
    "perms.scan_s": ("s", ("verify_bijective",)),
    "perms.build_s": ("s", BUILD_NAMES),
    "perms.build_entries": ("count", ("PermutationSpec",)),
    "perms.invert_calls": ("count", ("invert_packed",)),
    "perms.invert_s": ("s", ("invert_packed",)),
    "perms.table_io_s": ("s", ("write_table_file", "load_table_file")),
    "perms.table_io_bytes": ("B", ("write_table_file", "load_table_file")),
    "boxes.enum_boxes": ("count", ("enumerate_qboxes_range",)),
    "boxes.enum_s": ("s", ("enumerate_qboxes_range",)),
    "boxes.image_calls": ("count", ("image_of_box",)),
    "boxes.image_points": ("count", ("image_of_box",)),
    "boxes.image_self_s": ("s", ("image_of_box", "apply_packed")),
    "boxes.greedy_calls": ("count", ("greedy_box",)),
    "boxes.greedy_self_s": ("s", ("greedy_box", "intersection_count")),
    "boxes.intersect_calls": ("count", ("intersection_count",)),
    "boxes.intersect_s": ("s", ("intersection_count",)),
    "conductance.inner_calls": ("count", ("_best_box_bnb",)),
    "conductance.inner_points": ("count", ("_best_box_bnb",)),
    "conductance.inner_s": ("s", ("_best_box_bnb",)),
    "conductance.inner_win_ratio": ("ratio", ("_best_box_bnb",)),
    "conductance.outer_self_s": ("s", ("exact_conductance", "enumerate_qboxes_range",
                                       "image_of_box", "_best_box_bnb", "write_checkpoint")),
    "conductance.heur_self_s": ("s", ("heuristic_lower_bound", "image_of_box", "greedy_box")),
    "conductance.checkpoint_writes": ("count", ("write_checkpoint",)),
    "conductance.checkpoint_s": ("s", ("write_checkpoint",)),
    "conductance.checkpoint_bytes": ("B", ("write_checkpoint",)),
    "conductance.cpu_per_wall": ("ratio", ()),
    "condenser.decompose_calls": ("count", ("decompose",)),
    "condenser.decompose_points": ("count", ("decompose",)),
    "condenser.cuts": ("count", ("decompose",)),
    "condenser.decompose_s": ("s", ("decompose",)),
    "condenser.converse_self_s": ("s", ("verify_converse_bounds", "_best_box_bnb")),
    "condenser.profile_self_s": ("s", ("empirical_condenser_profile", "image_of_box", "decompose")),
    "trace.overhead_frac": ("ratio", ()),
    "trace.unattributed_s": ("s", ()),
}


def layer_values(records) -> dict:
    """Per-layer metric values of one traced pass (all but the two
    ratios measured outside the records: cpu_per_wall and overhead)."""

    def pick(name, caller_not_in=()):
        return [r for _, n, c, r in records if n == name and c not in caller_not_in]

    def calls(name):
        return sum(r.calls for r in pick(name))

    def total(name, caller_not_in=()):
        return sum(r.total_s for r in pick(name, caller_not_in))

    def self_s(name):
        return sum(r.self_s for r in pick(name))

    def counter(name, key):
        return sum(r.counters.get(key, 0) for r in pick(name))

    inner_calls = calls("_best_box_bnb")
    return {
        "perms.apply_calls": calls("apply_packed"),
        "perms.apply_s": total("apply_packed"),
        "perms.scan_s": total("verify_bijective"),
        "perms.build_s": sum(total(n, BUILD_NAMES) for n in BUILD_NAMES),
        "perms.build_entries": counter("PermutationSpec", "entries"),
        "perms.invert_calls": calls("invert_packed"),
        "perms.invert_s": total("invert_packed"),
        "perms.table_io_s": total("write_table_file") + total("load_table_file"),
        "perms.table_io_bytes": counter("write_table_file", "bytes") + counter("load_table_file", "bytes"),
        "boxes.enum_boxes": counter("enumerate_qboxes_range", "items"),
        "boxes.enum_s": total("enumerate_qboxes_range"),
        "boxes.image_calls": calls("image_of_box"),
        "boxes.image_points": counter("image_of_box", "points"),
        "boxes.image_self_s": self_s("image_of_box"),
        "boxes.greedy_calls": calls("greedy_box"),
        "boxes.greedy_self_s": self_s("greedy_box"),
        "boxes.intersect_calls": calls("intersection_count"),
        "boxes.intersect_s": total("intersection_count"),
        "conductance.inner_calls": inner_calls,
        "conductance.inner_points": counter("_best_box_bnb", "points"),
        "conductance.inner_s": total("_best_box_bnb"),
        "conductance.inner_win_ratio": counter("_best_box_bnb", "wins") / inner_calls if inner_calls else 0.0,
        "conductance.outer_self_s": self_s("exact_conductance"),
        "conductance.heur_self_s": self_s("heuristic_lower_bound"),
        "conductance.checkpoint_writes": calls("write_checkpoint"),
        "conductance.checkpoint_s": total("write_checkpoint"),
        "conductance.checkpoint_bytes": counter("write_checkpoint", "bytes"),
        "condenser.decompose_calls": calls("decompose"),
        "condenser.decompose_points": counter("decompose", "points"),
        "condenser.cuts": counter("decompose", "cuts"),
        "condenser.decompose_s": total("decompose"),
        "condenser.converse_self_s": self_s("verify_converse_bounds"),
        "condenser.profile_self_s": self_s("empirical_condenser_profile"),
        "trace.unattributed_s": sum(r.self_s for _, n, _, r in records if n == "job"),
    }


def unmeasured_metrics(missing) -> dict:
    """Metric -> "boundary at binding" for each boundary it needs whose
    bindings ``missing`` (boundary name -> bindings) lists."""
    return {
        metric: [f"{n} at {', '.join(missing[n])}" for n in needs if n in missing]
        for metric, (_, needs) in LAYER_METRICS.items()
        if any(n in missing for n in needs)
    }
