"""In-memory span recorder for the traced benchmark run.

A span is (id, parent, root, name, start, end). Spans opened while another
is open become its children; a span with no parent is a root, and every
span carries its root's id so the spans of one pass can be grouped.
Counters are attached to the root that is open when they are recorded.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

_OFF = nullcontext()


class Recorder:
    """Spans and counters kept in memory; disabled recorders record nothing."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple[int, int | None, int, str, float, float]] = []
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._open: list[tuple[int, int]] = []  # (span id, root id)
        self._next = 0

    def span(self, name: str):
        """Context manager timing one call; a no-op while disabled."""
        return _Span(self, name) if self.enabled else _OFF

    def count(self, name: str, value: float = 1) -> None:
        if self.enabled and self._open:
            self.counters[self._open[-1][1]][name] += value

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per root: total self time by span name (duration minus the part
        covered by direct children, which never overlap one another)."""
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for sid, _, root, name, start, end in self.spans:
            out[root][name] += end - start - child_time[sid]
        return out

    def roots(self, name: str) -> list[int]:
        return [sid for sid, parent, _, n, _, _ in self.spans if parent is None and n == name]

    def write(self, path: Path) -> None:
        """Write every span as one JSON object per line, in order of closing."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for sid, parent, root, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "root": root,
                                     "name": name, "start": start, "end": end}) + "\n")


class _Span:
    __slots__ = ("rec", "name", "sid", "parent", "root", "start")

    def __init__(self, rec: Recorder, name: str) -> None:
        self.rec = rec
        self.name = name

    def __enter__(self) -> None:
        rec = self.rec
        self.sid = rec._next
        rec._next += 1
        self.parent, self.root = rec._open[-1] if rec._open else (None, self.sid)
        rec._open.append((self.sid, self.root))
        self.start = time.perf_counter()

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        self.rec._open.pop()
        self.rec.spans.append((self.sid, self.parent, self.root, self.name, self.start, end))
