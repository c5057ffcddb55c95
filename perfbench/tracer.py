"""Layer tracing from outside the package.

``Tracer.install`` wraps every public function of the mirnoise layer modules at
every namespace binding it has: ``susceptibility.shell_overlap_sq_over_mass``
and ``sweeps.shell_overlap_sq_over_mass`` are separate bindings of one
function, and ``normalized_hermite_beam_sequence`` is looked up in the globals
of ``overlap``, which are that module's attributes.  Each call records a span
(id, parent id, operation id, name, start, end, counters) in memory; ``remove``
puts the original functions back.  Self time is a span's duration minus that
of its direct children.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

LAYERS = ("geometry", "modes", "overlap", "susceptibility", "sweeps", "cli")


def _hermite(bound, result, exc, state):
    return {"steps": bound.arguments["mmax"]}


def _shells(bound, result, exc, state):
    return {"shells": bound.arguments["max_shell"] + 1}


def _chi(bound, result, exc, state):
    stats = {"offaxis": bound.arguments["beam"].offset != 0.0}
    if exc is None:
        stats["summands"] = result.modes_used
        stats["unconverged"] = int(not result.converged)
    else:
        stats["unconverged"] = 1
    return stats


def _csv_start(bound):
    return bound.arguments["fh"].tell()


def _csv_bytes(bound, result, exc, state):
    return {"bytes": bound.arguments["fh"].tell() - state}


#: counters taken at a boundary: name -> (before-call hook or None, after-call hook)
PROBES = {
    "overlap.normalized_hermite_beam_sequence": (None, _hermite),
    "overlap.shell_overlap_sq_over_mass": (None, _shells),
    "susceptibility.effective_susceptibility": (None, _chi),
    "sweeps.write_csv": (_csv_start, _csv_bytes),
}


@dataclass
class Span:
    id: int
    parent: int
    op: int
    name: str
    start: float
    end: float = 0.0
    stats: dict = field(default_factory=dict)
    error: str = ""


class Tracer:
    """Collects spans for the calls made while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._wrappers: dict = {}
        self._restore: list = []
        for layer in LAYERS:
            module = sys.modules[f"mirnoise.{layer}"]
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ == module.__name__:
                    self._wrappers[fn] = self._wrap(fn, f"{layer}.{attr}")

    def _wrap(self, fn, name):
        before, after = PROBES.get(name, (None, None))
        signature = inspect.signature(fn) if after else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans), stack[-1] if stack else -1, self.op, name, 0.0)
            spans.append(span)
            stack.append(span.id)
            bound = signature.bind(*args, **kwargs) if signature else None
            state = before(bound) if before else None
            result = exc = None
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                span.error = type(err).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()
                if after:
                    span.stats = after(bound, result, exc, state)

        return traced

    def install(self) -> None:
        """Replace every binding of a layer function in the mirnoise modules."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "mirnoise" and not mod_name.startswith("mirnoise."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in self._wrappers:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, self._wrappers[value])

    def remove(self) -> None:
        for module, attr, value in self._restore:
            setattr(module, attr, value)
        self._restore.clear()

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list.

        Span ids index the list they are handed over in, so take only between
        operations, never while a traced call is open.
        """
        spans = list(self.spans)
        self.spans.clear()
        return spans


def summarize(spans: list[Span]) -> dict:
    """Per-name calls, self time and counters, plus cross-layer ratios."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    stats = defaultdict(lambda: defaultdict(int))
    child_time = defaultdict(float)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    under_chi = [False] * len(spans)
    under_cli = [False] * len(spans)
    for i, s in enumerate(spans):
        calls[s.name] += 1
        self_s[s.name] += (s.end - s.start) - child_time[s.id]
        for k, v in s.stats.items():
            stats[s.name][k] += v
        if s.parent >= 0:
            parent = spans[s.parent]
            under_chi[i] = under_chi[s.parent] or parent.name == "susceptibility.effective_susceptibility"
            under_cli[i] = under_cli[s.parent] or parent.name == "cli.main"
    shells_in_chi = sum(
        s.stats["shells"]
        for i, s in enumerate(spans)
        if under_chi[i] and s.name == "overlap.shell_overlap_sq_over_mass"
    )
    kept = sum(
        s.stats.get("summands", 0)
        for s in spans
        if s.name == "susceptibility.effective_susceptibility" and s.stats["offaxis"]
    )
    chi_in_cli = sum(
        1
        for i, s in enumerate(spans)
        if under_cli[i] and s.name == "susceptibility.effective_susceptibility"
    )
    points = calls["susceptibility.displacement_noise_spectrum"]
    return {
        "calls": dict(calls),
        "self_s": dict(self_s),
        "stats": {k: dict(v) for k, v in stats.items()},
        "shell_use_ratio": kept / shells_in_chi if shells_in_chi else 0.0,
        "chi_evals_per_point": chi_in_cli / points if points else 0.0,
    }


def write_spans(spans: list[Span], path) -> None:
    origin = spans[0].start if spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps({
                "id": s.id, "parent": s.parent, "op": s.op, "name": s.name,
                "start": s.start - origin, "end": s.end - origin,
                "stats": s.stats, "error": s.error,
            }) + "\n")
