"""In-memory spans around the benchmark's calls into the program.

Each span records its name, start and end (``time.perf_counter`` seconds
since the recorder was created) and the id of the span open around it.
All spans of one run share a ``trace_id``.  They stay in memory until
:meth:`SpanRecorder.write`, so recording costs no I/O inside timed work.
A disabled recorder records nothing.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import ContextManager, Iterator, List, Optional


class SpanRecorder:
    """Collects nested spans for one benchmark run."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.trace_id = f"{os.getpid()}-{time.time_ns()}"
        self._origin = time.perf_counter()
        self._open: List[int] = []
        self.spans: List[dict] = []

    def span(self, name: str) -> ContextManager[None]:
        """Record a span around the ``with`` block, if enabled."""
        return self._span(name) if self.enabled else nullcontext()

    @contextmanager
    def _span(self, name: str) -> Iterator[None]:
        span_id = len(self.spans)
        parent: Optional[int] = self._open[-1] if self._open else None
        record = {"trace_id": self.trace_id, "id": span_id, "parent": parent,
                  "name": name, "start": time.perf_counter() - self._origin}
        self.spans.append(record)
        self._open.append(span_id)
        try:
            yield
        finally:
            self._open.pop()
            record["end"] = time.perf_counter() - self._origin

    def write(self, path: Path) -> None:
        """Write every span as one JSON line to ``path``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")
