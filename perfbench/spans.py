"""In-memory spans around the library calls the benchmark makes.

Spans are recorded from the benchmark's side only: a traced callable wraps a
public holoqec function and records name, start, end, parent span, request id
and an optional work count.  Nothing inside the library is instrumented.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: str | None
    count: int = 0


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    request: str | None = None
    counters: dict[str, dict[str, int]] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)

    def wrap(
        self,
        name: str | Callable[..., str],
        fn: Callable,
        count: Callable[[tuple, dict, Any], int] | None = None,
    ) -> Callable:
        """Return ``fn`` wrapped in a span.

        ``name`` may be a function of the call's arguments (to split one
        callable into buckets, e.g. by frame size); ``count`` turns the
        arguments and result into the span's work count.
        """

        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            with self.span(label) as span:
                result = fn(*args, **kwargs)
                if count is not None:
                    span.count = int(count(args, kwargs, result))
                return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), 0.0, parent, self.request)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, value: int) -> None:
        """Add a count measured by the benchmark itself to the current request."""
        per_request = self.counters.setdefault(name, {})
        per_request[self.request] = per_request.get(self.request, 0) + int(value)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its direct children cover.

        Children run on the caller's thread, so they never overlap and their
        durations simply add up.
        """
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def by_name(self, request_prefix: str | None = None) -> dict[str, dict]:
        """Calls, total and self seconds, and work count per span name."""
        out: dict[str, dict] = {}
        for s, own in zip(self.spans, self.self_times()):
            if request_prefix is not None and not (s.request or "").startswith(request_prefix):
                continue
            agg = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0})
            agg["calls"] += 1
            agg["total_s"] += s.end - s.start
            agg["self_s"] += own
            agg["count"] += s.count
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0].start if self.spans else 0.0
        rows = [
            {
                "id": i,
                "name": s.name,
                "start_ms": (s.start - t0) * 1e3,
                "end_ms": (s.end - t0) * 1e3,
                "parent": s.parent,
                "request": s.request,
                "count": s.count,
            }
            for i, s in enumerate(self.spans)
        ]
        path.write_text(json.dumps({"spans": rows, "summary": self.by_name()}, indent=1))

