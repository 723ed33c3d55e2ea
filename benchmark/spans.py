"""Span recording and self time for the benchmark, and the patching of
module attributes that both the spans and the checks use.

A span is one timed call at a layer boundary: its name, start, end, the
index of the span that was open when it started (its parent) and the trial
it belongs to. Spans are kept in memory and written out when the run ends.
A span's self time is its duration minus the part of that interval covered
by its child spans.

Layers are timed from outside the package: ``Tracer.wrap`` replaces a name
in the module that calls it (for example ``gaitmae.inference.reconstruct``,
the model function the inference module imports) with a wrapper that opens
a span around the original. ``restore`` puts every original back.
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    trial: str | None


class Patches:
    """Module attributes replaced by wrappers, and the originals to put back."""

    def __init__(self):
        self._saved: list[tuple] = []

    def patch(self, module, attr: str, around) -> None:
        """Make ``module.attr(...)`` call ``around(original, ...)``."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return around(original, *args, **kwargs)

        setattr(module, attr, wrapper)
        self._saved.append((module, attr, original))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


class Tracer(Patches):
    """In-memory span and counter store, plus name wrapping."""

    def __init__(self, clock=time.perf_counter):
        super().__init__()
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, trial: str | None = None):
        parent = self._open[-1] if self._open else None
        if trial is None and parent is not None:
            trial = self.spans[parent].trial
        rec = Span(name, self.clock(), math.nan, parent, trial)
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec.end = self.clock()
            self._open.pop()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def wrap(self, module, attr: str, name: str, counter=None, trial_of=None) -> None:
        """Time every call of ``module.attr`` as a span called ``name``.

        ``counter(tracer, args, kwargs, result)``, when given, records counts
        after each call; ``trial_of(args, kwargs)`` names the trial the span
        and its children belong to.
        """
        def around(original, *args, **kwargs):
            trial = trial_of(args, kwargs) if trial_of is not None else None
            with self.span(name, trial=trial):
                result = original(*args, **kwargs)
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        self.patch(module, attr, around)

    def write(self, path) -> None:
        doc = {
            "spans": [
                {"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "trial": s.trial}
                for s in self.spans
            ],
            "counts": dict(self.counts),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
            fh.write("\n")


def covered_length(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children, clipped to it."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        kids = [(max(c.start, s.start), min(c.end, s.end)) for c in children[i]]
        kids = [(lo, hi) for lo, hi in kids if hi > lo]
        out.append((s.end - s.start) - covered_length(kids))
    return out


def self_time_by_name(spans: list[Span], first: int = 0, last: int | None = None) -> dict:
    """Summed self time per span name over ``spans[first:last]``.

    Self time is computed over the whole list, so a span's children count
    even when the range cuts between them.
    """
    own = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for s, t in zip(spans[first:last], own[first:last]):
        totals[s.name] += t
    return totals
