"""Event tracing: message-sequence records and ASCII sequence charts.

The paper explains its protocols with message-sequence diagrams
(figures 1 and 2).  `TraceLog` records runtime-level events as they
happen so any run can be rendered the same way — the E3 bench and the
`examples/figure2.py` script regenerate figure 2 from a live run
rather than from the model.

Tracing is always on but bounded, and a record costs one flat tuple
until something reads it.  `TraceLog.defer` appends the row
``(build, time, *args)`` to a deque that keeps the most recent
``capacity`` rows; ``build(time, *args)`` makes the `TraceEvent` only
when it is read.  A recorder therefore hands over *values* taken at
record time (a later link move cannot change a row), and the eager
`TraceLog.record` is the row ``(TraceEvent, time, actor, event,
detail, span)``, whose mappings are stored as given, not copied.
``TraceLog.events`` is a read-only sequence over the rows: ``len``
builds nothing, and iteration and indexing build a fresh event per
read.  `TraceLog.tail` builds only the newest rows; it is what `dump`
renders and what a flight dump (`repro.obs.flight`) writes.

A trigger for the flight recorder is a call, not a subscription: the
sites that emit one use `TraceLog.alarm`, which records the event and
then trips the recorder installed as ``TraceLog.flight``, if any.

For offline analysis the log exports to JSON Lines (`to_jsonl`) and
reloads (`from_jsonl`) into a detached log that renders the same
charts.  The record schema is
documented in docs/OBSERVABILITY.md and versioned by
`TRACE_SCHEMA_VERSION`.
"""

from __future__ import annotations

import json
from collections import deque
from itertools import islice
from typing import (
    Callable, Deque, Dict, Iterable, Iterator, List, Mapping, NamedTuple,
    Optional, Sequence, Union,
)

from repro.sim.engine import Engine

#: bumped whenever the exported JSONL record shape changes
TRACE_SCHEMA_VERSION = 2


class TraceEvent(NamedTuple):
    """One recorded event, immutable.  A tuple rather than a frozen
    dataclass: a read of a trace builds one per record, and a tuple is
    filled by one ``tuple.__new__``, not one ``object.__setattr__`` per
    field."""

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


def _event_of(row: tuple) -> TraceEvent:
    """The event of one ``(build, time, *args)`` row."""
    return row[0](*row[1:])


class _Events(Sequence[TraceEvent]):
    """`TraceLog.events`: a read-only view of the rows that builds each
    event as it is read.  ``len`` builds nothing — `perf/passes.py`
    reads it after the clock stops — and every read makes a fresh
    event, equal to the last."""

    def __init__(self, rows: Deque[tuple]) -> None:
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index: int) -> TraceEvent:
        return _event_of(self._rows[index])

    def __iter__(self) -> Iterator[TraceEvent]:
        return map(_event_of, self._rows)


class TraceLog:
    """A bounded, append-only log of simulation events.

    ``engine`` may be None for a *detached* log (one rebuilt by
    `from_jsonl`): it can be queried and rendered but not emitted to.
    """

    def __init__(self, engine: Optional[Engine], capacity: int = 100_000) -> None:
        self.engine = engine
        self.capacity = capacity
        #: ``(build, time, *args)`` rows, oldest first
        self._rows: Deque[tuple] = deque(maxlen=capacity)
        #: the recorded events, built on read (see the module docstring)
        self.events: Sequence[TraceEvent] = _Events(self._rows)
        self.enabled = True
        #: the `repro.obs.FlightRecorder` that `alarm` trips; None = no
        #: black box is installed
        self.flight = None

    def emit(
        self,
        actor: str,
        event: str,
        span: Optional[Dict[str, object]] = None,
        **detail: object,
    ) -> None:
        self.defer(TraceEvent, actor, event, detail, span)

    def alarm(self, actor: str, event: str, **detail: object) -> None:
        """`emit` a flight-recorder trigger, then let the installed
        recorder dump the log's tail, the trigger its last event.  A
        disabled log records nothing but still trips the recorder."""
        self.emit(actor, event, **detail)
        if self.flight is not None:
            self.flight.trigger(event)

    def record(
        self,
        actor: str,
        event: str,
        detail: Mapping[str, object],
        span: Optional[Dict[str, object]] = None,
    ) -> None:
        """`emit` for a recorder that has already built its ``detail``
        mapping: it is stored as given, not copied."""
        self.defer(TraceEvent, actor, event, detail, span)

    def defer(self, build: Callable[..., TraceEvent], *args: object) -> None:
        """Record the event ``build(now, *args)`` will make when read.
        ``args`` are kept as given: pass values, not objects that may
        change before the log is read."""
        if not self.enabled:
            return
        if self.engine is None:
            raise ValueError("cannot emit into a detached (replayed) TraceLog")
        self._rows.append((build, self.engine.now, *args))

    def tail(self, n: int) -> List[TraceEvent]:
        """The newest ``n`` events (fewer if the log holds fewer),
        oldest first; only those rows are built."""
        newest = list(map(_event_of, islice(reversed(self._rows), n)))
        newest.reverse()
        return newest

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
            log._rows.append((TraceEvent, *TraceEvent.from_record(rec)))
        return log

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def dump(self, limit: int = 200) -> str:
        events = self.tail(limit)
        # columns grow with the data so long actor names or 6+ digit
        # timestamps never shear the layout (an empty log joins to "")
        time_width = max([10, *(len(f"{ev.time:.3f}") for ev in events)])
        actor_width = max([12, *(len(ev.actor) for ev in events)])
        event_width = max([16, *(len(ev.event) for ev in events)])
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
            row[::width] = "|" * len(actors)
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
