"""Span tracer installed around nhqc's public functions from outside.

Each target is a public name looked up at call time on the production path
(a module global the propagator calls through, or a class attribute).  The
tracer swaps in a wrapper that records a span (layer, start, end, the layer
that caused it) and the layer's work counts in memory, per thread, and
restores the original on exit.  A target that a later version of the
program no longer has is recorded as missing; a layer whose targets are all
missing is reported absent.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple


def _points(args, kwargs, result) -> dict:
    energies = getattr(result, "energies", None)
    return {"points": int(energies.shape[1])} if energies is not None else {}


def _member_steps(args, kwargs, result) -> dict:
    # member rows the engine stores; in adiabatic mode the mirrored (alpha',
    # alpha) partners are implicit and cost no step work
    rows = getattr(getattr(args[0], "weight", None), "size", None)
    n_steps = kwargs["n_steps"] if "n_steps" in kwargs else args[1]
    return {"member_steps": rows * n_steps} if rows is not None else {}


def _csv_bytes(args, kwargs, result) -> dict:
    destination = kwargs["destination"] if "destination" in kwargs else args[1]
    if isinstance(destination, (str, os.PathLike)):
        return {"bytes": os.path.getsize(destination)}
    return {}


@dataclass(frozen=True)
class Target:
    layer: str
    module: str           # dotted module name
    attr: str             # public name in the module, or "Class.method"
    count: Callable | None = None


# Names are patched where the production path looks them up: the propagator
# calls the sampler and the adiabatic kernels through its own globals.
TARGETS = (
    Target("sampler", "nhqc.propagator", "trajectory_stream"),
    Target("sampler", "nhqc.propagator", "sample_bath_point", lambda a, k, r: {"draws": 1}),
    Target("adiabatic.slot_frames", "nhqc.propagator", "slot_frames", _points),
    Target("adiabatic.slot_frames", "nhqc.propagator", "slot_frames_cols", _points),
    Target("adiabatic.slot_vectors", "nhqc.propagator", "slot_vectors"),
    Target("adiabatic.slot_coupling", "nhqc.propagator", "slot_coupling"),
    Target("adiabatic.slot_gamma_diag", "nhqc.propagator", "slot_gamma_diag"),
    Target("propagator.init", "nhqc.propagator", "EnsembleState.__init__"),
    Target("propagator.advance", "nhqc.propagator", "EnsembleState.advance", _member_steps),
    Target("propagator.reduce", "nhqc.propagator", "EnsembleSnapshot.sample_matrices"),
    Target("observables.moments", "nhqc.observables", "MomentAccumulator.from_samples"),
    Target("observables.moments", "nhqc.observables", "MomentAccumulator.combine"),
    Target("observables.csv", "nhqc.observables", "write_csv", _csv_bytes),
)


class Span(NamedTuple):
    layer: str
    start: float
    end: float
    parent: str | None  # layer of the span that made this call
    child_s: float      # time covered by the spans this one caused
    depth: int


class _ThreadLog:
    """Spans and counts of one thread; no locking on the hot path."""

    def __init__(self) -> None:
        self.stack: list = []  # [layer, child seconds] per open span
        self.spans: list[Span] = []
        self.counts: dict[str, dict] = {}


@dataclass
class Tracer:
    """Records spans and counts while installed (use as a context manager)."""

    targets: tuple = TARGETS
    missing: list = field(default_factory=list)
    _logs: list = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    _local: threading.local = field(default_factory=threading.local)
    _undo: list = field(default_factory=list)

    def __enter__(self) -> "Tracer":
        for target in self.targets:
            try:
                module = importlib.import_module(target.module)
            except ImportError:
                self.missing.append(f"{target.module}:{target.attr}")
                continue
            *cls_path, name = target.attr.split(".")
            owner = module
            for part in cls_path:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(name) if owner is not None else None
            if raw is None or not callable(getattr(raw, "__func__", raw)):
                self.missing.append(f"{target.module}:{target.attr}")
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                patched = type(raw)(self._wrap(target, raw.__func__))
            else:
                patched = self._wrap(target, raw)
            setattr(owner, name, patched)
            self._undo.append((owner, name, raw))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, name, raw = self._undo.pop()
            setattr(owner, name, raw)

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        layer, count = target.layer, target.count
        log_of = self._log

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            log = log_of()
            stack = log.stack
            parent = stack[-1][0] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                log.spans.append(Span(layer, start, end, parent, frame[1], len(stack)))
            per_layer = log.counts.setdefault(layer, {})
            per_layer["calls"] = per_layer.get("calls", 0) + 1
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    per_layer[key] = per_layer.get(key, 0) + value
            return result

        return traced

    def _log(self) -> _ThreadLog:
        try:
            return self._local.log
        except AttributeError:
            log = self._local.log = _ThreadLog()
            with self._lock:
                self._logs.append(log)
            return log

    # -- derived quantities (read after the traced calls have returned) ------

    @property
    def spans(self) -> list[Span]:
        return [span for log in self._logs for span in log.spans]

    @property
    def counts(self) -> dict[str, dict]:
        merged: dict[str, dict] = {}
        for log in self._logs:
            for layer, values in log.counts.items():
                out = merged.setdefault(layer, {})
                for key, value in values.items():
                    out[key] = out.get(key, 0) + value
        return merged

    def absent_layers(self) -> list[str]:
        """Layers none of whose targets exist in the traced program."""
        present = {t.layer for t in self.targets if f"{t.module}:{t.attr}" not in self.missing}
        return sorted({t.layer for t in self.targets} - present)

    def busy(self) -> dict[str, float]:
        """Total span time per layer (summed over threads)."""
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.layer] = out.get(s.layer, 0.0) + (s.end - s.start)
        return out

    def self_time(self, layer: str) -> float:
        """Span time of ``layer`` minus the time of spans it directly caused."""
        return sum(s.end - s.start - s.child_s for s in self.spans if s.layer == layer)

    def top_level(self) -> list[Span]:
        return [s for s in self.spans if s.depth == 0]

    def covered(self) -> float:
        """Length of the union of top-level span intervals over all threads."""
        total, reach = 0.0, float("-inf")
        for s in sorted(self.top_level(), key=lambda s: s.start):
            if s.end > reach:
                total += s.end - max(s.start, reach)
                reach = s.end
        return total
