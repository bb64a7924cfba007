"""In-memory span recorder for the traced benchmark run.

Spans are taken from the benchmark's side of each layer boundary — one
around every call the benchmark makes into a public function of the
program — so no file under ``src/`` has to change.  They are kept in a
list while the run lasts and written once, when it ends.
"""

from __future__ import annotations

import json
import time
from pathlib import Path


class Tracer:
    """Collects ``[name, start, end, parent, request]`` spans.

    ``enabled`` is toggled between rounds of a traced run: the rounds
    with it off are the untraced baseline that ``trace.overhead_share``
    compares the traced rounds against.
    """

    def __init__(self) -> None:
        self.enabled = False
        self._spans: list[list] = []

    def record(
        self,
        name: str,
        start: float,
        end: float,
        *,
        parent: int | None = None,
        request: int | None = None,
    ) -> None:
        """Store one finished leaf span (a no-op while disabled)."""
        if self.enabled:
            self._spans.append([name, start, end, parent, request])

    def open(self, name: str) -> int | None:
        """Start a parent span now; returns its id (``None`` while off)."""
        if not self.enabled:
            return None
        self._spans.append([name, time.perf_counter(), None, None, None])
        return len(self._spans) - 1

    def close(self, span_id: int | None) -> None:
        if span_id is not None:
            self._spans[span_id][2] = time.perf_counter()

    def durations_ms(self, name: str) -> list[float]:
        """Durations of every finished span called ``name``, in order."""
        return [
            (end - start) * 1e3
            for span_name, start, end, _, _ in self._spans
            if span_name == name and end is not None
        ]

    def __len__(self) -> int:
        return len(self._spans)

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "request")
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(
                [
                    {"id": index, **dict(zip(keys, span))}
                    for index, span in enumerate(self._spans)
                ],
                handle,
            )
