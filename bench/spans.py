"""Spans around the benchmark's own calls into mapglue.

A span records its name, an optional tag (a size class, or one sphere
versus several), its start and end on ``time.perf_counter`` and the span
that was open when it started.  Spans stay in memory and are written out
once, when the worker ends.  With the tracer off, ``call`` is a plain call,
so untraced and traced runs execute the same benchmark code.
"""

from __future__ import annotations

import json
import time


class Tracer:
    def __init__(self, on: bool):
        self.on = on
        self.rows: list[list] = []  # [name, tag, start, end, parent index]
        self.counts: dict[str, int] = {}  # summed over processes
        self.sizes: dict[str, int] = {}   # the same in every process
        self._open: list[int] = []

    def call(self, name: str, fn, *args, tag=None, **kwargs):
        """``fn(*args, **kwargs)`` inside a span called ``name``."""
        if not self.on:
            return fn(*args, **kwargs)
        row = [name, tag, 0.0, 0.0, self._open[-1] if self._open else -1]
        self._open.append(len(self.rows))
        self.rows.append(row)
        row[2] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            row[3] = time.perf_counter()
            self._open.pop()

    def retag_last(self, name: str, tag) -> None:
        """Tag the most recent span called ``name`` once its outcome (such
        as the sphere count of a gluing) is known."""
        if not self.on:
            return
        for row in reversed(self.rows):
            if row[0] == name:
                row[1] = tag
                return

    def add(self, name: str, n: int) -> None:
        """Add to a counter kept beside the spans, such as the edge subsets
        a call tried."""
        if self.on:
            self.counts[name] = self.counts.get(name, 0) + n

    def put(self, name: str, value: int) -> None:
        """Record the size of a result, such as an enumeration level."""
        if self.on:
            self.sizes[name] = value

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.rows, "counts": self.counts,
                       "sizes": self.sizes}, fh, separators=(",", ":"))


def self_times(rows: list[list]) -> list[tuple[str, object, float]]:
    """``(name, tag, self seconds)`` per span: its duration minus the
    durations of its direct children, which nest inside it."""
    child = [0.0] * len(rows)
    for name, tag, start, end, parent in rows:
        if parent >= 0:
            child[parent] += end - start
    return [(r[0], r[1], r[3] - r[2] - child[i]) for i, r in enumerate(rows)]
