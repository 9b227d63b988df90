"""Span tracing around calls into the program, from the benchmark's own files.

A span records its name, start, end and parent.  Spans stay in memory until
the outermost open span of the process closes; that tree is then folded into
per-name totals and dropped, so memory holds one tree at a time.  A worker
forked while a span is open writes each finished tree to a spool file of its
own, with the open span as the parent of its roots; the parent process merges
those files into the tree before folding it, so worker spans count as
children that may overlap each other.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterable, Optional


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    cur = lo
    for start, end in sorted(intervals):
        start = max(start, cur)
        end = min(end, hi)
        if end > start:
            total += end - start
            cur = end
    return total


def fold(records: list[tuple], span_s: dict, self_s: dict) -> None:
    """Add one finished tree of (id, parent, name, start, end) records to the totals.

    `span_s[name]` gains the duration of each span with no ancestor of the same
    name, so recursion is not counted twice.  `self_s[name]` gains each span's
    duration minus the part of it that its child spans cover.
    """
    by_id = {r[0]: r for r in records}
    children: dict = defaultdict(list)
    for r in records:
        children[r[1]].append((r[3], r[4]))
    for sid, parent, name, start, end in records:
        self_s[name] += end - start - covered(children.get(sid, ()), start, end)
        up = by_id.get(parent)
        while up is not None and up[2] != name:
            up = by_id.get(up[1])
        if up is None:
            span_s[name] += end - start


class Tracer:
    """Collects spans and counters for wrapped functions.

    `counts[name]` is the number of calls into the span `name`; wrappers may
    add counters of their own.  With a spool directory, forked workers write
    their spans and counters there (see the module docstring).
    """

    def __init__(self, spool_dir: Optional[Path] = None, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spool_dir = spool_dir
        self.counts: dict = defaultdict(int)
        self.span_s: dict = defaultdict(float)
        self.self_s: dict = defaultdict(float)
        self._records: list[tuple] = []
        self._stack: list[int] = []
        self._root_parent: Optional[int] = None
        self._worker = False
        self._ids = itertools.count(os.getpid() << 32)
        if spool_dir is not None:
            os.register_at_fork(after_in_child=self._after_fork)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """`fn` with a span named `name` around every call."""
        records, stack, counts, clock = self._records, self._stack, self.counts, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(self._ids)
            parent = stack[-1] if stack else self._root_parent
            counts[name] += 1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                records.append((sid, parent, name, start, end))
                if not stack:
                    self._close_tree()

        return traced

    def _after_fork(self) -> None:
        self._root_parent = self._stack[-1] if self._stack else None
        self._stack.clear()
        self._records.clear()
        self.counts.clear()
        self._worker = True
        self._ids = itertools.count(os.getpid() << 32)

    def _close_tree(self) -> None:
        if self._worker:
            path = self.spool_dir / f"spans-{os.getpid()}.jsonl"
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"records": self._records, "counts": self.counts}) + "\n")
            self.counts.clear()
        else:
            self._merge_spool()
            fold(self._records, self.span_s, self.self_s)
        self._records.clear()

    def _merge_spool(self) -> None:
        if self.spool_dir is None:
            return
        for path in sorted(self.spool_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    part = json.loads(line)
                    self._records.extend(tuple(r) for r in part["records"])
                    for key, value in part["counts"].items():
                        self.counts[key] += value
            path.unlink()
