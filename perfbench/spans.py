"""Span tracing from outside the package, and the per-layer metrics.

`Tracer.install()` replaces the module attributes that callers look up at
each layer boundary (for example `covertq.experiment.monte_carlo_error`
or `covertq.cli.simulate_sequence`) with wrappers that record a span;
`Tracer.restore()` puts every original object back.  Nothing in the
package is edited.

A span is (name, start, end, parent, thread) plus a few attributes taken
from the call's arguments.  Spans live in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import os
import threading
import time
import tracemalloc
from dataclasses import asdict, dataclass, field

MB = 1024 * 1024

MC_SPAN = "detect.monte_carlo_error"
RECURSION_FUNCTIONS = ("_busy_bits", "_busy_bits_batch")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while installed.

    With track_memory, tracemalloc measures the peak allocation inside the
    memory-tracked spans.  Starting and stopping it costs about a
    millisecond, so timed passes run without it.
    """

    def __init__(self, track_memory: bool = False):
        self.track_memory = track_memory
        self.spans: list[Span] = []
        self.counters: dict[str, int] = {}
        self.mem_peak: dict[str, int] = {}
        self.absent: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_thread = threading.get_ident()
        self._mc_open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._mem_names: dict[str, int] = {}
        self._mem_base = 0
        self._mem_started = False

    # --- spans -------------------------------------------------------------

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self, name: str, mem: bool) -> int:
        stack = self._stack()
        with self._lock:
            if stack:
                parent = stack[-1]
            elif threading.get_ident() != self._main_thread and self._mc_open:
                # worker-pool threads start with an empty stack; their work
                # belongs to the Monte Carlo call that submitted it
                parent = self._mc_open[-1]
            else:
                parent = None
            sid = len(self.spans)
            self.spans.append(Span(sid, name, 0.0, 0.0, parent, threading.get_ident()))
            if name == MC_SPAN:
                self._mc_open.append(sid)
            if mem:
                self._mem_enter(name)
        stack.append(sid)
        self.spans[sid].start = time.perf_counter()
        return sid

    def _close(self, sid: int, mem: bool, attrs: dict) -> None:
        end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            span = self.spans[sid]
            span.end = end
            span.attrs.update(attrs)
            if span.name == MC_SPAN:
                self._mc_open.remove(sid)
            if mem:
                self._mem_exit(span.name)

    # tracemalloc runs only while a memory-tracked span is open.  Spans that
    # overlap (the two Monte Carlo workers) share one window, whose peak is
    # credited to every span name open in it.
    def _mem_enter(self, name: str) -> None:
        if not self._mem_names:
            self._mem_started = not tracemalloc.is_tracing()
            if self._mem_started:
                tracemalloc.start()
            tracemalloc.reset_peak()
            self._mem_base = tracemalloc.get_traced_memory()[0]
        self._mem_names[name] = self._mem_names.get(name, 0) + 1

    def _mem_exit(self, name: str) -> None:
        peak = tracemalloc.get_traced_memory()[1] - self._mem_base
        for open_name in self._mem_names:
            self.mem_peak[open_name] = max(self.mem_peak.get(open_name, 0), peak)
        self._mem_names[name] -= 1
        if not self._mem_names[name]:
            del self._mem_names[name]
        if not self._mem_names and self._mem_started:
            tracemalloc.stop()

    # --- wrapping ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, attrs=None, mem: bool = False) -> None:
        """Replace owner.attr with a span-recording wrapper.

        `attrs(arguments, result)` returns extra span attributes from the
        call's bound arguments and its return value.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(original, classmethod)
        fn = original.__func__ if is_classmethod else original
        signature = inspect.signature(fn) if attrs is not None else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._open(name, mem)
            extra = {}
            try:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    extra = tracer._attrs(name, attrs, signature, args, kwargs, result)
                return result
            finally:
                tracer._close(sid, mem, extra)

        self._saved.append((owner, attr, original))
        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)

    def _attrs(self, name, attrs, signature, args, kwargs, result) -> dict:
        # A changed signature must not break the traced call; the attribute
        # is reported as absent instead.
        try:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return attrs(bound.arguments, result)
        except (TypeError, KeyError, OSError) as exc:
            with self._lock:
                self.absent.append(f"{name} attributes: {exc!r}")
            return {}

    def count(self, owner, attr: str, counter: str) -> None:
        """Replace owner.attr with a wrapper that only counts calls."""
        fn = getattr(owner, attr)
        counters, lock = self.counters, self._lock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with lock:
                counters[counter] = counters.get(counter, 0) + 1
            return fn(*args, **kwargs)

        self._saved.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        import covertq.cli
        import covertq.covert
        import covertq.detect
        import covertq.experiment
        import covertq.exponent
        import covertq.sim

        cli, exp, det = covertq.cli, covertq.experiment, covertq.detect
        sim, expo, cov = covertq.sim, covertq.exponent, covertq.covert

        def batch_attrs(a, result):
            arrivals = a["trials"] * (a["n"] + a["burn_in"])
            # inter-arrival draws, their cumsum and service draws (float64)
            # plus the uint8 busy bits
            return {"arrivals": arrivals, "bytes": arrivals * (8 + 8 + 8 + 1)}

        self.wrap(cli, "main", "cli.main")
        self.wrap(exp, "run_campaign", "experiment.campaign")
        self.wrap(exp, "threshold_sweep", "experiment.sweep")
        self.wrap(exp, "persist", "experiment.io",
                  lambda a, r: {"bytes": os.path.getsize(a["path"])})
        self.wrap(exp, "rows_to_csv", "experiment.io",
                  lambda a, r: {"bytes": len(r.encode())})
        self.wrap(exp, "exact_error_probabilities", "detect.exact",
                  lambda a, r: {"n": a["n"]}, mem=self.track_memory)
        self.wrap(exp, "monte_carlo_error", MC_SPAN,
                  lambda a, r: {"workers": a["workers"]})
        self.wrap(exp, "exponent_report", "exponent.report")
        self.wrap(det, "simulate_sequence_batch", "sim.batch", batch_attrs,
                  mem=self.track_memory)
        self.wrap(det, "decide", "detect.llr")
        self.wrap(cli, "simulate_sequence", "sim.single",
                  lambda a, r: {"arrivals": a["n"] + a["burn_in"]})
        self.wrap(sim.ObservationSequence, "to_line", "sim.line_io")
        self.wrap(sim.ObservationSequence, "from_line", "sim.line_io")
        for fname in RECURSION_FUNCTIONS:
            if hasattr(sim, fname):
                self.wrap(sim, fname, "sim.recursion")
            else:
                self.absent.append(f"covertq.sim.{fname}")
        self.wrap(expo, "exponent_report", "exponent.report")
        self.count(expo, "r_of_u", "exponent.r_evals")
        self.wrap(cov, "scaling_table", "covert.bound")
        self.wrap(cov, "max_covert_rate", "covert.bound")

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def dump(self) -> dict:
        return {"spans": [asdict(s) for s in self.spans],
                "counters": dict(self.counters),
                "mem_peak_bytes": dict(self.mem_peak),
                "absent": list(self.absent)}


# --- per-layer metrics -------------------------------------------------------


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for s, e in sorted(intervals):
        if e > end:
            total += e - max(s, end)
            end = e
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration minus the part of it covered by child spans, per span id."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        clipped = [(max(a, s.start), min(b, s.end)) for a, b in children.get(s.id, [])]
        out[s.id] = s.duration - _union_length([c for c in clipped if c[1] > c[0]])
    return out


def layer_metrics(spans: list[Span], counters: dict) -> dict[str, float]:
    """Per-layer values for the spans of one traced workload pass.

    Peak allocations come from a separate memory pass (see Tracer).
    """
    by_id = {s.id: s for s in spans}
    own = self_times(spans)

    def named(name):
        return [s for s in spans if s.name == name]

    def outermost(name):
        # nested spans of one name (scaling_table calling max_covert_rate)
        # count once
        return [s for s in named(name)
                if s.parent is None or by_id[s.parent].name != name]

    def busy(name):
        return sum(s.duration for s in outermost(name))

    def self_s(name):
        return sum(own[s.id] for s in named(name))

    mc = named(MC_SPAN)
    mc_ids = {s.id for s in mc}
    batches = named("sim.batch")
    recursion = named("sim.recursion")
    batch_ids = {s.id for s in batches}
    exact = named("detect.exact")
    symbols = sum(s.attrs.get("n", 0) for s in exact)
    mc_capacity = sum(s.duration * s.attrs.get("workers", 1) for s in mc)
    batch_busy = busy("sim.batch")
    return {
        "cli.calls": len(named("cli.main")),
        "cli.self_s": self_s("cli.main"),
        "experiment.campaign.self_s": self_s("experiment.campaign"),
        "experiment.io_s": busy("experiment.io"),
        "experiment.io_bytes": sum(s.attrs.get("bytes", 0) for s in named("experiment.io")),
        "experiment.sweep.self_s": self_s("experiment.sweep"),
        "detect.exact.calls": len(exact),
        "detect.exact.busy_s": busy("detect.exact"),
        "detect.exact.ns_per_symbol": busy("detect.exact") * 1e9 / symbols if symbols else 0.0,
        "detect.mc.calls": len(mc),
        "detect.mc.blocks": sum(1 for s in batches if s.parent in mc_ids),
        "detect.mc.self_s": self_s(MC_SPAN),
        "detect.mc.parallel_eff": batch_busy / mc_capacity if mc_capacity else 0.0,
        "detect.llr.busy_s": busy("detect.llr"),
        "sim.batch.calls": len(batches),
        "sim.batch.arrivals": sum(s.attrs.get("arrivals", 0) for s in batches),
        "sim.batch.busy_s": batch_busy,
        "sim.batch.rng_s": batch_busy - sum(s.duration for s in recursion
                                            if s.parent in batch_ids),
        "sim.recursion.busy_s": sum(s.duration for s in recursion),
        "sim.batch.bytes_computed": sum(s.attrs.get("bytes", 0) for s in batches),
        "sim.single.calls": len(named("sim.single")),
        "sim.single.busy_s": busy("sim.single"),
        "sim.line_io_s": busy("sim.line_io"),
        "exponent.report.calls": len(named("exponent.report")),
        "exponent.report.busy_s": busy("exponent.report"),
        "exponent.r_evals": counters.get("exponent.r_evals", 0),
        "covert.bound.calls": len(outermost("covert.bound")),
        "covert.bound.busy_s": busy("covert.bound"),
    }
