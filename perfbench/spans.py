"""In-memory span recorder with a self-time report.

A span has a name, a start and an end (``time.perf_counter`` seconds), the
id of the span that was open when it started, and the run id current at the
time.  Spans are kept in a list and written out once, at the end.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    parent: int | None
    run_id: str
    name: str
    start: float
    end: float = 0.0
    error: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = ""
        self._open: list[int] = []

    def _begin(self, name: str) -> Span:
        parent = self._open[-1] if self._open else None
        span = Span(len(self.spans), parent, self.run_id, name, 0.0)
        self.spans.append(span)
        self._open.append(span.id)
        span.start = time.perf_counter()
        return span

    def _finish(self, span: Span, error: BaseException | None) -> None:
        span.end = time.perf_counter()
        self._open.pop()
        if error is not None:
            span.error = type(error).__name__

    @contextmanager
    def span(self, name: str):
        span = self._begin(name)
        error = None
        try:
            yield span
        except BaseException as exc:
            error = exc
            raise
        finally:
            self._finish(span, error)

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording one span per call; ``after(args, result)`` runs outside it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._finish(span, exc)
                raise
            self._finish(span, None)
            if after is not None:
                after(args, result)
            return result

        return traced

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its children cover.

        Spans nest on one thread, so children of a span never overlap and
        their durations add up to the time they cover.
        """
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        return {span.id: span.duration - child_time[span.id] for span in self.spans}

    def report(self) -> dict[tuple[str, str], dict]:
        """(run_id, name) -> calls, errors, total and self seconds."""
        selfs = self.self_times()
        table: dict[tuple[str, str], dict] = {}
        for span in self.spans:
            row = table.setdefault((span.run_id, span.name),
                                   {"calls": 0, "errors": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["errors"] += bool(span.error)
            row["total_s"] += span.duration
            row["self_s"] += selfs[span.id]
        return table

    def write(self, path) -> None:
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({**asdict(span), "self": selfs[span.id]}) + "\n")
