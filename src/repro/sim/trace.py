"""Event tracing: message-sequence records and ASCII sequence charts.

The paper explains its protocols with message-sequence diagrams
(figures 1 and 2).  `TraceLog` records runtime-level events as they
happen so any run can be rendered the same way — the E3 bench and the
`examples/figure2.py` script regenerate figure 2 from a live run
rather than from the model.

Tracing is always on but bounded: an event is one `TraceEvent` tuple
appended to a deque that keeps the most recent ``capacity`` events —
no copy of its ``detail`` or ``span`` mapping is taken, so a recorder
hands over mappings it will not touch again (`TraceLog.record`).

For offline analysis the log exports to JSON Lines (`to_jsonl`) and
reloads (`from_jsonl`) into a detached log that renders the same
charts; `repro.obs.JsonlTraceWriter` streams events to disk as they
are emitted, escaping the capacity bound.  The record schema is
documented in docs/OBSERVABILITY.md and versioned by
`TRACE_SCHEMA_VERSION`.
"""

from __future__ import annotations

import json
from collections import deque
from typing import (
    Callable, Deque, Dict, Iterable, List, Mapping, NamedTuple, Optional,
    Sequence, Union,
)

from repro.sim.engine import Engine

#: bumped whenever the exported JSONL record shape changes
TRACE_SCHEMA_VERSION = 2


class TraceEvent(NamedTuple):
    """One recorded event, immutable.  A tuple rather than a frozen
    dataclass: sixteen are built per null RPC, and a tuple is filled by
    one ``tuple.__new__``, not one ``object.__setattr__`` per field."""

    time: float
    actor: str
    event: str
    #: free-form details (message kind, link, seq, peer, ...)
    detail: Mapping[str, object]
    #: optional causal-span payload (schema v2; see repro.obs.causal)
    span: Optional[Dict[str, object]] = None

    def describe(
        self,
        time_width: int = 10,
        actor_width: int = 12,
        event_width: int = 16,
    ) -> str:
        bits = " ".join(f"{k}={v}" for k, v in sorted(self.detail.items()))
        stamp = f"{self.time:.3f}"
        return (
            f"[{stamp:>{max(time_width, len(stamp))}}] "
            f"{self.actor:<{max(actor_width, len(self.actor))}} "
            f"{self.event:<{max(event_width, len(self.event))}} {bits}"
        )

    # JSONL record conversion ------------------------------------------
    def to_record(self) -> Dict[str, object]:
        """The stable export shape: ``{"t", "actor", "event", "detail"}``
        plus ``"span"`` when (and only when) the event carries one."""
        rec: Dict[str, object] = {
            "t": self.time,
            "actor": self.actor,
            "event": self.event,
            "detail": dict(self.detail),
        }
        if self.span is not None:
            rec["span"] = dict(self.span)
        return rec

    def to_json(self) -> str:
        # non-JSON detail values (enums, objects) degrade to repr so an
        # export never fails mid-run
        return json.dumps(self.to_record(), sort_keys=True, default=repr)

    @classmethod
    def from_record(cls, rec: Dict[str, object]) -> "TraceEvent":
        span = rec.get("span")
        return cls(
            time=float(rec["t"]),
            actor=str(rec["actor"]),
            event=str(rec["event"]),
            detail=dict(rec.get("detail", {})),
            span=dict(span) if span is not None else None,
        )


def trace_header(capacity: Optional[int] = None) -> Dict[str, object]:
    """The JSONL stream header record (first line of every export)."""
    head: Dict[str, object] = {
        "schema": "repro.trace",
        "version": TRACE_SCHEMA_VERSION,
    }
    if capacity is not None:
        head["capacity"] = capacity
    return head


class TraceLog:
    """A bounded, append-only log of simulation events.

    ``engine`` may be None for a *detached* log (one rebuilt by
    `from_jsonl`): it can be queried and rendered but not emitted to.
    """

    def __init__(self, engine: Optional[Engine], capacity: int = 100_000) -> None:
        self.engine = engine
        self.capacity = capacity
        self.events: Deque[TraceEvent] = deque(maxlen=capacity)
        self.enabled = True
        #: streaming subscribers, called with each TraceEvent as it is
        #: recorded (see `repro.obs.JsonlTraceWriter`)
        self._sinks: List[Callable[[TraceEvent], None]] = []

    def emit(
        self,
        actor: str,
        event: str,
        span: Optional[Dict[str, object]] = None,
        **detail: object,
    ) -> None:
        self.record(actor, event, detail, span)

    def record(
        self,
        actor: str,
        event: str,
        detail: Mapping[str, object],
        span: Optional[Dict[str, object]] = None,
    ) -> None:
        """`emit` for a recorder that has already built its ``detail``
        mapping: it is stored as given, not copied."""
        if not self.enabled:
            return
        if self.engine is None:
            raise ValueError("cannot emit into a detached (replayed) TraceLog")
        # the tuple is filled in C; NamedTuple's generated ``__new__``
        # is a Python frame that would only restate these five fields
        ev = tuple.__new__(
            TraceEvent, (self.engine.now, actor, event, detail, span)
        )
        self.events.append(ev)
        if self._sinks:
            for sink in self._sinks:
                sink(ev)

    # ------------------------------------------------------------------
    # streaming subscription
    # ------------------------------------------------------------------
    def attach(self, sink: Callable[[TraceEvent], None]) -> None:
        """Subscribe ``sink`` to every future event."""
        self._sinks.append(sink)

    def detach(self, sink: Callable[[TraceEvent], None]) -> None:
        self._sinks.remove(sink)

    # ------------------------------------------------------------------
    # JSONL export / import
    # ------------------------------------------------------------------
    def to_jsonl(self, header: bool = True) -> str:
        """The whole log as JSON Lines, one event per line, newest last.

        The first line (when ``header`` is true) is a stream header
        carrying the schema version; every other line is an event
        record (`TraceEvent.to_record`).
        """
        lines = []
        if header:
            lines.append(json.dumps(trace_header(self.capacity),
                                    sort_keys=True))
        lines.extend(ev.to_json() for ev in self.events)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(
        cls,
        source: Union[str, Iterable[str]],
        capacity: int = 100_000,
    ) -> "TraceLog":
        """Rebuild a detached log from `to_jsonl` output (a string or an
        iterable of lines).  Header lines are recognised and skipped;
        a header of any other schema version raises ValueError."""
        if isinstance(source, str):
            source = source.splitlines()
        log = cls(engine=None, capacity=capacity)
        for line in source:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if "schema" in rec:
                if rec.get("version") != TRACE_SCHEMA_VERSION:
                    raise ValueError(
                        f"unsupported trace schema {rec.get('schema')!r} "
                        f"v{rec.get('version')!r}"
                    )
                continue
            log.events.append(TraceEvent.from_record(rec))
        return log

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def select(
        self,
        actor: Optional[str] = None,
        event: Optional[str] = None,
        link: Optional[int] = None,
    ) -> List[TraceEvent]:
        out = []
        for ev in self.events:
            if actor is not None and ev.actor != actor:
                continue
            if event is not None and ev.event != event:
                continue
            if link is not None and ev.detail.get("link") != link:
                continue
            out.append(ev)
        return out

    def dump(self, limit: int = 200) -> str:
        events = list(self.events)[-limit:]
        if not events:
            return ""
        # columns grow with the data so long actor names or 6+ digit
        # timestamps never shear the layout
        time_width = max(10, *(len(f"{ev.time:.3f}") for ev in events))
        actor_width = max(12, *(len(ev.actor) for ev in events))
        event_width = max(16, *(len(ev.event) for ev in events))
        lines = [
            ev.describe(time_width, actor_width, event_width)
            for ev in events
        ]
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # sequence chart (figures 1/2 style)
    # ------------------------------------------------------------------
    def sequence_chart(
        self,
        actors: Sequence[str],
        events: Optional[Iterable[str]] = None,
        link: Optional[int] = None,
        width: int = 24,
    ) -> str:
        """Render send events between ``actors`` as an ASCII sequence
        chart.  Events must carry ``peer`` (destination actor) and
        ``kind`` details to be drawn; others are listed inline.
        """
        wanted = set(events) if events is not None else None
        cols = {a: i for i, a in enumerate(actors)}
        total = width * len(actors)

        def lifelines() -> List[str]:
            row = [" "] * total
            for i in range(len(actors)):
                row[i * width] = "|"
            return row

        lines = ["".join(a.ljust(width) for a in actors),
                 "".join(lifelines())]
        for ev in self.events:
            if wanted is not None and ev.event not in wanted:
                continue
            if link is not None and ev.detail.get("link") != link:
                continue
            src = ev.actor
            dst = ev.detail.get("peer")
            label = str(ev.detail.get("kind", ev.event))
            row = lifelines()
            if src in cols and isinstance(dst, str) and dst in cols \
                    and cols[src] != cols[dst]:
                i, j = cols[src], cols[dst]
                lo, hi = min(i, j), max(i, j)
                start, end = lo * width + 1, hi * width - 1
                body = label.center(end - start - 1, "-")
                if j > i:
                    segment = body + ">"
                else:
                    segment = "<" + body
                row[start:end] = list(segment[: end - start])
            elif src in cols:
                i = cols[src]
                note = f" {label}"
                pos = i * width + 1
                row[pos : pos + len(note)] = list(note[: total - pos])
            else:
                continue
            lines.append("".join(row).rstrip())
        return "\n".join(lines)
