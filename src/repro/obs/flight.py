"""Flight recorder: a black box for distributed-run post-mortems.

Long chaos runs mostly end in one of two ways: fine, or wrecked by
an event (a partition window opening, a kernel crash, a
`RecoveryExhausted`) whose *lead-up* is exactly what the full trace
log has already rotated past by the time anyone looks.  The
`FlightRecorder` keeps no events of its own: installed as the
cluster's ``TraceLog.flight``, it is tripped by `TraceLog.alarm` and
dumps a bounded JSONL "black box" — stream header, a full metric
snapshot, then the log's newest ``capacity`` events
(`TraceLog.tail`) — to disk.  Dumps are capped (``max_dumps``) so a
crash storm cannot fill the disk.

Three sites raise an alarm: the recovery layer
(``recovery-exhausted`` in `LynxRuntimeBase._recovery_fire`), the
fault plane (``partition-entered`` when a `FaultPlan` window opens)
and the cluster (``crash`` in `crash_process`).  A dump is the log's
tail, so
- a `TraceLog` whose ``capacity`` is below the recorder's dumps only
  what the log holds;
- events recorded before the recorder was installed can appear in a
  dump (every caller installs it before any process spawns);
- a log switched off with ``enabled = False`` records no trigger but
  still dumps its last tail on one.

Everything in a dump is simulated-time data, so same-seed runs
produce identical black boxes — they are diffable artifacts, not
wall-clock logs.

``python -m repro flight DUMP...`` pretty-prints dumps;
``python -m repro flight --demo`` produces one from a quick chaos
run.  The dump schema is validated by ``benchmarks/check_schema.py``
and documented in docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.obs.jsonl import json_safe
from repro.sim.trace import TraceEvent, TraceLog

#: first-line schema tag of every dump
FLIGHT_SCHEMA = "repro.flight"
FLIGHT_SCHEMA_VERSION = 1


class FlightRecorder:
    """Black box over a `TraceLog`: dumps the log's newest ``capacity``
    events when `TraceLog.alarm` trips it.

    Construct via ``cluster.install_flight_recorder(out_dir)`` — that
    wires the cluster's trace log, metrics, engine, kernel kind and
    seed through — or standalone against any `TraceLog`.  Either way
    it becomes ``trace.flight``, replacing any earlier recorder.
    """

    def __init__(
        self,
        trace: TraceLog,
        out_dir: Union[str, Path],
        metrics=None,
        engine=None,
        capacity: int = 256,
        max_dumps: int = 4,
        kind: str = "",
        seed: Optional[int] = None,
    ) -> None:
        self.trace = trace
        self.out_dir = Path(out_dir)
        self.metrics = metrics
        self.engine = engine
        self.capacity = capacity
        self.max_dumps = max_dumps
        self.kind = kind
        self.seed = seed
        #: paths written so far, oldest first
        self.dumps: List[Path] = []
        trace.flight = self

    def trigger(self, reason: str) -> None:
        """Dump, unless ``max_dumps`` dumps are already written."""
        if len(self.dumps) < self.max_dumps:
            self.dump(reason)

    def dump(self, reason: str = "manual") -> Path:
        """Write one bounded black box and return its path.

        Layout: line 1 the header, line 2 a ``{"metrics": snapshot}``
        record (when a `MetricSet` is wired), then the trace log's
        newest ``capacity`` events oldest-first in
        `TraceEvent.to_record` form.
        """
        events = self.trace.tail(self.capacity)
        header = {
            "schema": FLIGHT_SCHEMA,
            "version": FLIGHT_SCHEMA_VERSION,
            "reason": reason,
            "t": self.engine.now if self.engine is not None
                 else (events[-1].time if events else 0.0),
            "kind": self.kind,
            "seed": self.seed,
            "capacity": self.capacity,
            "events": len(events),
        }
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"flight-{len(self.dumps):03d}-{reason}.jsonl"
        lines = [json.dumps(json_safe(header), sort_keys=True)]
        if self.metrics is not None:
            lines.append(json.dumps(
                {"metrics": json_safe(self.metrics.snapshot())},
                sort_keys=True,
            ))
        lines.extend(ev.to_json() for ev in events)
        path.write_text("\n".join(lines) + "\n")
        self.dumps.append(path)
        if self.metrics is not None:
            self.metrics.count("obs.flight_dumps")
        return path

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<FlightRecorder capacity={self.capacity} "
                f"dumps={len(self.dumps)}>")


# ----------------------------------------------------------------------
# dump inspection (the `python -m repro flight` CLI)
# ----------------------------------------------------------------------
def load_flight_dump(
    path: Union[str, Path],
) -> Tuple[Dict[str, object], Dict[str, object], List[TraceEvent]]:
    """Parse a dump back into ``(header, metrics_snapshot, events)``.

    Raises ValueError when the first line is not a `FLIGHT_SCHEMA`
    header at a known version — the same strictness
    `TraceLog.from_jsonl` applies to trace streams.
    """
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty flight dump")
    header = json.loads(lines[0])
    if header.get("schema") != FLIGHT_SCHEMA:
        raise ValueError(f"{path}: not a {FLIGHT_SCHEMA} dump")
    if header.get("version") != FLIGHT_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported {FLIGHT_SCHEMA} version "
            f"{header.get('version')!r}"
        )
    metrics: Dict[str, object] = {}
    events: List[TraceEvent] = []
    for line in lines[1:]:
        rec = json.loads(line)
        if "metrics" in rec and "t" not in rec:
            metrics = rec["metrics"]
        else:
            events.append(TraceEvent.from_record(rec))
    return header, metrics, events


def describe_flight_dump(path: Union[str, Path], tail: int = 20) -> str:
    """Human-readable rendering of one dump: header summary, headline
    counters, the RPC latency line, and the last ``tail`` events."""
    header, metrics, events = load_flight_dump(path)
    out = [
        f"flight dump {Path(path).name}",
        f"  reason   {header.get('reason')}",
        f"  sim time {header.get('t'):.3f} ms   kernel {header.get('kind') or '?'}"
        f"   seed {header.get('seed')}",
        f"  events   {len(events)} (ring capacity {header.get('capacity')})",
    ]
    counters = metrics.get("counters", {}) if metrics else {}
    headline = {
        k: v for k, v in counters.items()
        if k.startswith(("faults.", "recovery.", "cluster.", "obs."))
    }
    if headline:
        out.append("  counters:")
        for k, v in sorted(headline.items()):
            out.append(f"    {k:<32} {v:g}")
    latencies = metrics.get("latencies", {}) if metrics else {}
    rtt = latencies.get("rpc.roundtrip")
    if rtt:
        out.append(
            "  rpc.roundtrip: "
            f"n={rtt['count']:g} mean={rtt['mean']:.3f} "
            f"p99={rtt['p99']:.3f} max={rtt['max']:.3f} ms"
        )
    if events:
        out.append(f"  last {min(tail, len(events))} events:")
        shown = events[-tail:]
        time_width = max(10, *(len(f"{ev.time:.3f}") for ev in shown))
        actor_width = max(12, *(len(ev.actor) for ev in shown))
        event_width = max(16, *(len(ev.event) for ev in shown))
        for ev in shown:
            out.append("    " + ev.describe(time_width, actor_width, event_width))
    return "\n".join(out)
