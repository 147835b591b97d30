"""In-memory spans recorded around calls into distillab, and their summary.

The benchmark never edits ``src/``: it replaces a module attribute such as
``distillab.world.nucleus_sample`` with a wrapper that records a span per call.
A function imported with ``from .world import nucleus_sample`` is looked up in
the importing module, so each lookup site is patched on its own; patching only
the defining module would miss those calls.
"""
from __future__ import annotations

import importlib
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the span list, -1 for none

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one span per wrapped call, plus exact counts taken from results.

    Single-threaded: spans nest, and the open span on top of the stack is the
    parent of the next one.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.spans: list[Span | None] = []
        self.site_calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._clock = clock

    def wrap(
        self,
        name: str,
        fn: Callable,
        site: str | None = None,
        count: tuple[str, Callable] | None = None,
    ) -> Callable:
        """Return `fn` wrapped so that every call records a span called `name`.

        `count` is (counter name, function of the result giving an amount) for
        exact counts such as the number of candidates a call returned.
        """
        spans, stack, clock = self.spans, self._stack, self._clock
        site_calls, counts = self.site_calls, self.counts

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = Span(name, start, end, parent)
            if site is not None:
                site_calls[site] += 1
            if count is not None:
                counts[count[0]] += count[1](result)
            return result

        return wrapper

    def patch(self, module_name: str, attr: str, name: str, count=None) -> None:
        """Wrap `module_name.attr` in place; a missing attribute is an error."""
        module = importlib.import_module(module_name)
        if not hasattr(module, attr):
            raise AttributeError(f"{module_name} has no attribute {attr!r} to wrap")
        site = f"{module_name}.{attr}"
        setattr(module, attr, self.wrap(name, getattr(module, attr), site=site, count=count))

    def finished(self) -> list[Span]:
        if self._stack:
            raise RuntimeError("spans are still open")
        return [s for s in self.spans if s is not None]


def covered_length(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def children_of(spans: list[Span]) -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        kids.setdefault(span.parent, []).append(i)
    return kids


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    kids = children_of(spans)
    out = []
    for i, span in enumerate(spans):
        child_intervals = [
            (max(spans[c].start, span.start), min(spans[c].end, span.end))
            for c in kids.get(i, [])
        ]
        out.append(span.duration - covered_length([iv for iv in child_intervals if iv[0] < iv[1]]))
    return out


def has_ancestor(spans: list[Span], index: int, names: frozenset[str]) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name in names:
            return True
        parent = spans[parent].parent
    return False


def summarize(spans: list[Span], root: int) -> dict:
    """Per-name calls, total and self seconds, and how much of the root span
    its direct children cover."""
    selfs = self_times(spans)
    layers: dict[str, dict] = {}
    for span, self_s in zip(spans, selfs):
        entry = layers.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += self_s
        entry["total_s"] += span.duration
    top = [spans[i] for i in children_of(spans).get(root, [])]
    main_s = spans[root].duration
    covered_s = covered_length([(s.start, s.end) for s in top])
    return {"layers": layers, "main_s": main_s, "covered_s": covered_s}
