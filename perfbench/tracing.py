"""Spans around the benchmark's calls into photonstats.

A span is opened by the benchmark around one call into a public library
function (``layer.function``, e.g. ``imaging.cs_reconstruct``) or around a
group of calls (``pass``, ``check``, ``image``). Spans carry name, start,
end, parent, workload and pass id, stay in memory and are dumped as JSON at
the end of a traced run. With tracing off no span is kept, but calls and
failures into each layer are still counted, so every run reports how many
operations it attempted.

``on_call``, if set, is called with the duration of every library call
once its span has closed; the yardstick in ``speed.py`` uses it to
interleave its slices with the work.
"""

from __future__ import annotations

import contextlib
import itertools
import statistics
import time

LAYERS = ("states", "montecarlo", "scatter", "coherence", "sensing", "imaging", "pgm", "cli")


def layer_of(name: str) -> str | None:
    head = name.split(".", 1)[0]
    return head if head in LAYERS else None


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.enabled = False
        self.pass_id = -1
        self.spans: list[dict] = []
        self.calls = 0
        self.failed = 0
        self._stack: list[dict] = []
        self._ids = itertools.count()
        self._epoch = time.perf_counter()
        self.on_call = None

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Yield a dict the caller may annotate (iterations, shots, ...).

        A library call that raises counts as failed and the exception
        propagates.
        """
        library_call = layer_of(name) is not None
        self.calls += library_call
        rec = {
            "id": next(self._ids),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "workload": self.workload,
            "pass": self.pass_id,
            "ok": True,
            "attrs": attrs,
        }
        self._stack.append(rec)
        start = time.perf_counter()
        try:
            yield attrs
        except Exception:
            rec["ok"] = False
            self.failed += library_call
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            if self.enabled:
                rec["start"], rec["end"] = start - self._epoch, end - self._epoch
                self.spans.append(rec)
            if library_call and self.on_call is not None:
                self.on_call(end - start)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the part of it covered by its direct children
    (children of one span never overlap in this single-threaded loop)."""
    covered: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] = covered.get(s["parent"], 0.0) + s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - covered.get(s["id"], 0.0) for s in spans}


def per_pass(spans: list[dict], passes: list[int], value) -> float:
    """Median over traced passes of ``value(spans_of_that_pass)``."""
    by_pass = {p: [] for p in passes}
    for s in spans:
        if s["pass"] in by_pass:
            by_pass[s["pass"]].append(s)
    return statistics.median(value(by_pass[p]) for p in passes)
