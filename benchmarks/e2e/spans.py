"""The harness's own in-memory span list for the traced run.

Spans are recorded from the benchmark's files, around calls into each
layer's public functions (in-program spans are a later change).  Each
span has a name, a start and an end on ``perf_counter``, the index of
the span that caused it, and the id of the op it belongs to; the list
is written out when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

from benchmarks.e2e.stats import median


class SpanLog:
    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self._op: Optional[Any] = None

    @contextmanager
    def op(self, op_id: Any) -> Iterator[None]:
        """Everything recorded inside belongs to op *op_id*."""
        previous, self._op = self._op, op_id
        try:
            with self.span("op"):
                yield
        finally:
            self._op = previous

    @contextmanager
    def span(self, name: str) -> Iterator[Dict[str, Any]]:
        record: Dict[str, Any] = {
            "name": name, "op": self._op,
            "parent": self._stack[-1] if self._stack else None,
            "start": 0.0, "end": 0.0}
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def durations_ms(self, name: str) -> List[float]:
        return [(s["end"] - s["start"]) * 1000.0 for s in self.spans
                if s["name"] == name]

    def median_ms(self, name: str) -> float:
        return median(self.durations_ms(name))

    def total_ms(self, name: str) -> float:
        return sum(self.durations_ms(name))

    @staticmethod
    def overhead_ms(samples: int = 2000) -> float:
        """What one span costs: an empty span timed from outside, on a
        scratch log."""
        scratch = SpanLog()
        began = time.perf_counter()
        for _ in range(samples):
            with scratch.span("x"):
                pass
        return (time.perf_counter() - began) * 1000.0 / samples

    def dump(self, path: Path, summary: Dict[str, Any]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0]["start"] if self.spans else 0.0
        spans = [{**s, "start": round(s["start"] - origin, 7),
                  "end": round(s["end"] - origin, 7)} for s in self.spans]
        path.write_text(json.dumps({"summary": summary, "spans": spans})
                        + "\n", encoding="utf-8")
