"""In-memory spans around the calls the benchmark makes into each layer.

A span is ``{id, name, start, end, parent, pass}`` plus free-form
attributes; all spans of one pass share its ``pass`` id.  They are kept
in memory and written as JSONL when the pass ends, so recording costs
one list append per span while the clock runs.  A layer's *self time*
is its span's duration minus its children's durations.

Spans are recorded from the benchmark's own files only; spans inside
``src/`` are a later change (README, "Known gaps").
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterable, Iterator, List, Optional


class Recorder:
    """Records nested spans; ``enabled=False`` records nothing, so the
    end-to-end passes run the same code without the bookkeeping."""

    def __init__(self, pass_id: str, enabled: bool = True) -> None:
        self.pass_id = pass_id
        self.enabled = enabled
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Optional[dict]]:
        if not self.enabled:
            yield None
            return
        rec = self._open(name, perf_counter(), attrs)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = perf_counter()

    def add(self, name: str, start: float, end: float, parent: int,
            **attrs) -> None:
        """Record a finished span under ``parent`` from stamps taken
        elsewhere — the sampled per-request spans.  They overlap one
        another, so they are marked ``sampled`` and `self_times` does
        not subtract them from their parent."""
        if self.enabled:
            rec = self._open(name, start, attrs)
            rec.update(parent=parent, end=end, sampled=True)

    def _open(self, name: str, start: float, attrs: dict) -> dict:
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "pass": self.pass_id,
            "start": start,
            "end": None,
            **attrs,
        }
        self.spans.append(rec)
        return rec

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def load(path: str) -> List[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: Iterable[dict]) -> Dict[int, float]:
    """Span id -> duration minus the durations of its direct children
    (sampled spans aside: they overlap)."""
    spans = list(spans)
    out = {s["id"]: duration(s) for s in spans}
    for s in spans:
        if s["parent"] is not None and not s.get("sampled"):
            out[s["parent"]] -= duration(s)
    return out
