"""Spans recorded from outside the program, around its public calls.

A span is ``[id, name, start, end, parent, request]`` with
``time.perf_counter`` stamps.  Spans stay in memory during the run and
are written out once, when it ends.  Counts recorded next to the spans
(``count``) are kept per request, so ratios are formed where the work
happened.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

FIELDS = ("id", "name", "start", "end", "parent", "request")


class Recorder:
    """In-memory span and count store for one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.request = -1
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [len(self.spans), name, time.perf_counter(), None, parent, self.request]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield record
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        """Add ``value`` to the current request's counter ``name``."""
        self.counts[self.request][name] += value

    def self_times(self) -> list[tuple[list, float]]:
        """Each span with its duration minus its children's durations.

        Spans of one thread nest without overlap, so the children of a
        span cover exactly the sum of their durations.
        """
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[4] is not None:
                covered[span[4]] += span[3] - span[2]
        return [(span, span[3] - span[2] - covered[span[0]]) for span in self.spans]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "schema": "perfbench-spans/1",
            "fields": list(FIELDS),
            "spans": self.spans,
            "counts": {str(k): dict(v) for k, v in self.counts.items()},
        }))


class NullRecorder:
    """Records nothing: lets the rebuilt pipeline run untraced, for warm-up."""

    def span(self, name: str):
        return nullcontext()

    def count(self, name: str, value: float) -> None:
        pass


NULL = NullRecorder()
