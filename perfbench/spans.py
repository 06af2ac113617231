"""In-memory span recorder for the traced benchmark run.

A span has a name, a start, an end, the index of the span that was open
when it began (its parent) and the id of the operation it belongs to.
Spans are recorded from the benchmark's side: either around calls the
benchmark makes itself, or by temporarily replacing a module attribute
with a wrapper for the duration of one operation. Nothing inside the
``meshpress`` package is changed.
"""

from __future__ import annotations

import contextlib
import functools
import time


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.op_id = 0
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"name": name, "op": self.op_id,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    @contextlib.contextmanager
    def patched(self, targets):
        """Wrap ``module.attr`` in a span for each (module, attr, name)
        while the block runs; the original attributes are restored."""
        saved = [(module, attr, getattr(module, attr))
                 for module, attr, _ in targets]
        for (module, attr, name), (_, _, original) in zip(targets, saved):
            setattr(module, attr, self._wrap(original, name))
        try:
            yield
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def to_json(self, t0: float) -> list[dict]:
        """Spans with times in seconds since ``t0``."""
        return [dict(s, start=s["start"] - t0, end=s["end"] - t0)
                for s in self.spans]


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover.
    Children of one parent run one after another, so their durations
    add without overlap."""
    out = [duration(s) for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= duration(s)
    return out
