"""In-memory spans around calls into resha, written as JSON lines at the end.

A span has a name, start and end (``time.perf_counter`` seconds), the id of
the span that was open when it started, and the operation it belongs to.
Spans nest strictly because the benchmark is single-threaded, so a span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    op: str
    parent: int | None
    start: float
    end: float = 0.0
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; operations are numbered ``<prefix><n>``."""

    def __init__(self, prefix: str = "op"):
        self.prefix = prefix
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._ops = 0
        self.op = f"{prefix}0"

    def next_op(self) -> str:
        self._ops += 1
        self.op = f"{self.prefix}{self._ops}"
        return self.op

    @contextmanager
    def span(self, name: str):
        span = Span(
            id=len(self.spans),
            name=name,
            op=self.op,
            parent=self._open[-1] if self._open else None,
            start=time.perf_counter(),
        )
        self.spans.append(span)
        self._open.append(span.id)
        try:
            yield span
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)


def write_jsonl(spans: list[Span], path: Path) -> None:
    Path(path).write_text("".join(json.dumps(asdict(s)) + "\n" for s in spans), encoding="utf-8")


def read_jsonl(path: Path) -> list[Span]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return [Span(**json.loads(line)) for line in lines if line]


def self_times(spans: list[Span]) -> dict[tuple[str, int], float]:
    """Self time per span, keyed by (op, span id): duration minus direct children."""
    result = {(s.op, s.id): s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            result[(s.op, s.parent)] -= s.duration
    return result


def median_self_time_per_op(spans: list[Span]) -> dict[str, float]:
    """For each span name, the median over operations of that name's summed self time."""
    own = self_times(spans)
    per_op: dict[str, dict[str, float]] = {}
    for s in spans:
        by_op = per_op.setdefault(s.name, {})
        by_op[s.op] = by_op.get(s.op, 0.0) + own[(s.op, s.id)]
    return {name: statistics.median(by_op.values()) for name, by_op in per_op.items()}
