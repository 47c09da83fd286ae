"""In-memory span recording and self-time arithmetic.

A span is one timed call from the benchmark into a layer's public
function: ``(name, start, end, parent, rank, op)``.  ``parent`` is the
index of the enclosing span in the same recorder (-1 at top level) and
``op`` the id of the operation (cycle, step or Picard period) the call
belongs to, so all spans of one op share it.  Spans stay in memory on the
rank that made them and travel back with the rank program's result.

The untraced recorder records nothing and adds one attribute test per
call, so the end-to-end runs pay no tracing cost.
"""

from __future__ import annotations

import time
from typing import Any, Callable, List, NamedTuple, Sequence


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    rank: int
    op: int


#: Span names that belong to no op: set-up work before the timed section.
SETUP_OP = -1


class Recorder:
    """Per-rank span recorder; ``enabled=False`` makes every call a plain call."""

    def __init__(self, rank: int, enabled: bool) -> None:
        self.rank = rank
        self.enabled = enabled
        self.spans: List[Span] = []
        self.op = SETUP_OP
        self._stack: List[int] = []

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Call ``fn(*args, **kwargs)``, recording a span named ``name``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        # Reserve the slot so children recorded during the call point at it.
        self.spans.append(Span(name, 0.0, 0.0, parent, self.rank, self.op))
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = Span(name, t0, t1, parent, self.rank, self.op)

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with every call recorded as ``name`` (``fn`` itself when off)."""
        if not self.enabled:
            return fn

        def spanned(*args: Any, **kwargs: Any) -> Any:
            return self.call(name, fn, *args, **kwargs)

        return spanned


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it covered by its children.

    Children of one span never overlap each other (calls on one rank are
    sequential), so the covered part is the sum of the children's
    durations, clipped to the parent's interval.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent < 0:
            continue
        p = spans[s.parent]
        covered = max(0.0, min(s.end, p.end) - max(s.start, p.start))
        out[s.parent] -= covered
    return out


def covered_time(spans: Sequence[Span], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by top-level spans (the union)."""
    total = 0.0
    cursor = start
    for s in sorted((s for s in spans if s.parent < 0), key=lambda s: s.start):
        lo = max(s.start, cursor)
        hi = min(s.end, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total
