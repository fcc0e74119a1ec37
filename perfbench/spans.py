"""In-memory spans around the benchmark's own calls into each layer.

A span records a name, start and end (``time.perf_counter`` seconds),
the span that caused it and the request it belongs to. Spans stay in
memory for the whole run and are written out once at the end. Self time
is a span's duration minus the part of that interval its children
cover; children that overlap each other are counted once.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import time
from collections.abc import Iterator


@dataclasses.dataclass
class Span:
    """One timed call: ``[start, end)`` in perf-counter seconds."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int
    attrs: dict = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans from one thread; ``span`` nests through a stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._request = 0

    def new_request(self) -> int:
        """A fresh request id for the spans that follow."""
        self._request += 1
        return self._request

    @contextlib.contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        parent = self._stack[-1].id if self._stack else None
        record = Span(
            id=len(self.spans),
            name=name,
            start=time.perf_counter(),
            end=0.0,
            parent=parent,
            request=self._request,
            attrs=attrs,
        )
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def dump(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(dataclasses.asdict(record)) + "\n")


def covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of ``[start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for record in spans:
        if record.parent is not None:
            children.setdefault(record.parent, []).append(
                (record.start, record.end)
            )
    return {
        record.id: record.duration - covered(children.get(record.id, []))
        for record in spans
    }
