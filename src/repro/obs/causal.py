"""Causal span tracing and critical-path latency attribution.

The paper's headline claim is an *attribution*: Charlotte's high-level
kernel primitives push work into the LYNX run-time package, while SODA
and Chrysalis let the runtime stay thin (figure 2 and the §6 lessons).
`repro.sim.trace.TraceLog` records flat events; this module ties every
reply back to the request that caused it so "which layer ate the
microseconds" is computed mechanically instead of eyeballed.

Vocabulary (documented in docs/CAUSALITY.md):

`SpanContext`
    the ``(trace_id, span_id, parent_id)`` triple minted by the core
    runtime at each ``connect`` entry and piggybacked on
    `repro.core.wire.WireMessage.span` so kernels and peer runtimes can
    open child spans of the same trace (defined in `repro.core.wire`,
    beside the message that carries it, and re-exported here);
`SpanTracker`
    the per-cluster minting authority; completed spans are emitted as
    ``event="span"`` trace records with explicit ``t0``/``t1`` (a span
    may be emitted before simulated time reaches ``t1`` when its whole
    interval was scheduled in one engine callback);
`CausalGraph`
    ingests a `TraceLog` (live or reloaded from JSONL) and exposes the
    happens-before DAG, per-RPC span trees, critical-path extraction
    and the per-layer / per-host attribution tables;
exporters
    `chrome_trace` (Chrome trace-event JSON, loadable in Perfetto /
    ``chrome://tracing``) and `waterfall` (plain-text rendering in the
    spirit of `TraceLog.sequence_chart`).

Layer names: ``rpc`` (the root envelope, connect entry to waiter
resume), ``runtime`` (marshal/unmarshal work plus every gap of the root
interval no child span covers — syscall entry, coroutine dispatch,
completion waits), ``app`` (server time between request delivery and
``reply``), ``kernel`` (kernel CPU: fixed and per-byte message costs,
interrupts, flag/queue operations), ``network`` (ring/bus/switch
transit).

Critical-path extraction paints the root interval with clipped child
spans in ``(depth, layer priority, t0)`` order — deeper spans and
"harder" layers (runtime < app < kernel < network) win overlaps — and
attributes uncovered gaps to the runtime, so per-layer milliseconds sum
exactly to the measured round-trip time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.core.wire import SpanContext
from repro.sim.trace import TraceEvent, TraceLog

#: every layer a span may be tagged with, in paint-priority order
#: (later wins overlaps at equal tree depth)
LAYERS = ("rpc", "runtime", "app", "kernel", "network")

_LAYER_PRIORITY = {name: i for i, name in enumerate(LAYERS)}

#: the layer uncovered critical-path gaps are attributed to (syscall
#: entry, coroutine dispatch, blocked-thread wakeups — all work the
#: language runtime performs between the spans it explicitly opens)
GAP_LAYER = "runtime"


#: the ``detail`` of every span record: its content is the ``span``
#: payload, so all of them share this one read-only empty mapping
_NO_DETAIL: Mapping[str, object] = MappingProxyType({})


@dataclass(frozen=True, slots=True)
class Span:
    """One completed span, as parsed back out of a trace record."""

    trace_id: int
    span_id: int
    parent_id: Optional[int]
    layer: str
    name: str
    host: str
    t0: float
    t1: float

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "Span":
        parent = payload.get("parent")
        return cls(
            trace_id=int(payload["trace"]),
            span_id=int(payload["id"]),
            parent_id=int(parent) if parent is not None else None,
            layer=str(payload["layer"]),
            name=str(payload["name"]),
            host=str(payload["host"]),
            t0=float(payload["t0"]),
            t1=float(payload["t1"]),
        )


class SpanTracker:
    """Mints `SpanContext` ids for one cluster and emits completed
    spans into its `TraceLog` as ``event="span"`` records.

    When a `TraceSampler` is installed (``cluster.install_trace_sampling``)
    the keep/drop decision is made at `new_trace` and inherited by every
    child; unsampled spans are never recorded, and the drop/keep split is
    counted as ``obs.spans_sampled`` / ``obs.spans_dropped``."""

    def __init__(self, trace: TraceLog, metrics=None) -> None:
        self.trace = trace
        self.sampler = None
        self.metrics = metrics
        self._next_trace = 1
        self._next_span = 1

    # -- minting -------------------------------------------------------
    def new_trace(self) -> SpanContext:
        """A fresh root context (one per RPC, minted at connect entry).
        Trace ids advance whether or not the trace is sampled, so
        sampling never perturbs id assignment (same-seed runs sample
        identical trace ids at any rate)."""
        tid = self._next_trace
        self._next_trace += 1
        sampler = self.sampler
        if sampler is None:
            sampled = True
        else:
            sampled = sampler.sample(tid)
            if self.metrics is not None:
                self.metrics.count(
                    "obs.spans_sampled" if sampled else "obs.spans_dropped"
                )
        sid = self._next_span
        self._next_span = sid + 1
        return SpanContext(tid, sid, None, sampled)

    def child(self, parent: SpanContext) -> SpanContext:
        sid = self._next_span
        self._next_span = sid + 1
        return SpanContext(parent.trace_id, sid, parent.span_id,
                           parent.sampled)

    # -- emission ------------------------------------------------------
    def emit(
        self,
        parent: SpanContext,
        layer: str,
        name: str,
        host: str,
        t0: float,
        t1: float,
    ) -> int:
        """Mint a child of ``parent`` and record it, completed, covering
        ``[t0, t1]``.  Returns the span id it minted: the child's
        context is ``SpanContext(parent.trace_id, sid, parent.span_id,
        parent.sampled)``.  One frame and one row (`_span_event` builds
        the record on read): ten of these are recorded per null RPC."""
        sid = self._next_span
        self._next_span = sid + 1
        if parent.sampled:
            self.trace.defer(_span_event, host, parent.trace_id, sid,
                             parent.span_id, layer, name, t0, t1)
        return sid

    def emit_root(
        self,
        ctx: SpanContext,
        name: str,
        host: str,
        t0: float,
        t1: float,
    ) -> None:
        """Record the root (``rpc`` layer) span of a finished trace."""
        if ctx.sampled:
            self.trace.defer(_span_event, host, ctx.trace_id, ctx.span_id,
                             ctx.parent_id, "rpc", name, t0, t1)


def _span_event(
    time: float,
    host: str,
    trace_id: int,
    span_id: int,
    parent_id: Optional[int],
    layer: str,
    name: str,
    t0: float,
    t1: float,
) -> TraceEvent:
    """The ``event="span"`` record of one `SpanTracker` row: the payload
    dict is made here, when the log is read, never at record time."""
    return TraceEvent(time, host, "span", _NO_DETAIL, {
        "trace": trace_id,
        "id": span_id,
        "parent": parent_id,
        "layer": layer,
        "name": name,
        "host": host,
        "t0": t0,
        "t1": t1,
    })


#: one attributed segment of a critical path
@dataclass(frozen=True, slots=True)
class PathSegment:
    t0: float
    t1: float
    layer: str
    name: str
    host: str

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class CausalGraph:
    """The happens-before structure of every trace in a log."""

    def __init__(self, spans: Iterable[Span]) -> None:
        self.spans: List[Span] = sorted(
            spans, key=lambda s: (s.trace_id, s.t0, s.span_id)
        )
        self.by_trace: Dict[int, List[Span]] = {}
        for s in self.spans:
            self.by_trace.setdefault(s.trace_id, []).append(s)

    @classmethod
    def from_trace(cls, log: TraceLog) -> "CausalGraph":
        """Build from a live or detached (`TraceLog.from_jsonl`) log."""
        return cls(
            Span.from_payload(ev.span)
            for ev in log.events
            if ev.event == "span" and ev.span is not None
        )

    # -- structure queries ---------------------------------------------
    def traces(self) -> List[int]:
        return sorted(self.by_trace)

    def root(self, trace_id: int) -> Optional[Span]:
        return next((s for s in self.by_trace.get(trace_id, ())
                     if s.parent_id is None), None)

    def orphans(self, trace_id: int) -> List[Span]:
        """Spans whose parent id names no span of the same trace."""
        ids = {s.span_id for s in self.by_trace.get(trace_id, ())}
        return [
            s for s in self.by_trace.get(trace_id, ())
            if s.parent_id is not None and s.parent_id not in ids
        ]

    def is_tree(self, trace_id: int) -> bool:
        """Exactly one root, no orphans, and parent edges acyclic."""
        spans = self.by_trace.get(trace_id, ())
        roots = [s for s in spans if s.parent_id is None]
        if len(roots) != 1 or self.orphans(trace_id):
            return False
        by_id = {s.span_id: s for s in spans}
        if len(by_id) != len(spans):
            return False  # duplicate span ids
        for s in spans:
            seen = set()
            cur: Optional[Span] = s
            while cur is not None and cur.parent_id is not None:
                if cur.span_id in seen:
                    return False
                seen.add(cur.span_id)
                cur = by_id.get(cur.parent_id)
        return True

    def depth(self, span: Span) -> int:
        by_id = {s.span_id: s for s in self.by_trace.get(span.trace_id, ())}
        d = 0
        cur: Optional[Span] = span
        seen = set()
        while cur is not None and cur.parent_id is not None:
            if cur.span_id in seen:  # cycle guard; is_tree reports it
                break
            seen.add(cur.span_id)
            cur = by_id.get(cur.parent_id)
            d += 1
        return d

    # -- critical path -------------------------------------------------
    def critical_path(self, trace_id: int) -> List[PathSegment]:
        """Attribute the root interval to layers by painting clipped
        descendant spans in ``(depth, layer priority, t0)`` order and
        filling uncovered gaps with `GAP_LAYER`.  Segments tile the
        root interval exactly, so their durations sum to the RTT."""
        root = self.root(trace_id)
        if root is None:
            return []
        spans = [s for s in self.by_trace.get(trace_id, ())
                 if s.parent_id is not None]
        clipped = []
        for s in spans:
            t0 = max(s.t0, root.t0)
            t1 = min(s.t1, root.t1)
            if t1 > t0:
                clipped.append((s, t0, t1))
        # elementary interval boundaries
        bounds = sorted({root.t0, root.t1}
                        | {t for _, t0, t1 in clipped for t in (t0, t1)})
        order = {
            s.span_id: (self.depth(s),
                        _LAYER_PRIORITY.get(s.layer, len(LAYERS)), s.t0)
            for s, _, _ in clipped
        }
        segments: List[PathSegment] = []
        for lo, hi in zip(bounds, bounds[1:]):
            covering = [s for s, t0, t1 in clipped if t0 <= lo and t1 >= hi]
            if covering:
                winner = max(covering, key=lambda s: order[s.span_id])
                seg = PathSegment(lo, hi, winner.layer, winner.name,
                                  winner.host)
            else:
                seg = PathSegment(lo, hi, GAP_LAYER, "dispatch", root.host)
            if (segments and segments[-1].layer == seg.layer
                    and segments[-1].name == seg.name
                    and segments[-1].host == seg.host):
                segments[-1] = PathSegment(
                    segments[-1].t0, seg.t1, seg.layer, seg.name, seg.host
                )
            else:
                segments.append(seg)
        return segments

    # -- aggregation ---------------------------------------------------
    def by_layer(
        self, trace_ids: Optional[Sequence[int]] = None
    ) -> Dict[str, float]:
        """Total critical-path milliseconds per layer across traces."""
        totals: Dict[str, float] = {}
        for tid in (trace_ids if trace_ids is not None else self.traces()):
            for seg in self.critical_path(tid):
                totals[seg.layer] = totals.get(seg.layer, 0.0) + seg.duration
        return totals

    def total_ms(
        self, trace_ids: Optional[Sequence[int]] = None
    ) -> float:
        """Summed root durations (== summed critical-path time)."""
        total = 0.0
        for tid in (trace_ids if trace_ids is not None else self.traces()):
            root = self.root(tid)
            if root is not None:
                total += root.duration
        return total


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------
def chrome_trace(
    graph: CausalGraph,
    trace_ids: Optional[Sequence[int]] = None,
) -> Dict[str, object]:
    """The Chrome trace-event document (JSON-object format) for the
    selected traces: one complete ("X") event per span, in microseconds,
    one pid per trace and one tid per host, with thread/process name
    metadata so Perfetto / ``chrome://tracing`` label the rows."""
    wanted = list(trace_ids if trace_ids is not None else graph.traces())
    events: List[Dict[str, object]] = []
    for tid in wanted:
        events.append({
            "ph": "M", "name": "process_name", "pid": tid, "tid": 0,
            "args": {"name": f"rpc trace {tid}"},
        })
        tids: Dict[str, int] = {}
        for span in graph.by_trace.get(tid, ()):
            host_tid = tids.setdefault(span.host, len(tids) + 1)
            events.append({
                "ph": "X",
                "name": span.name,
                "cat": span.layer,
                "pid": tid,
                "tid": host_tid,
                "ts": span.t0 * 1000.0,   # simulated ms -> trace µs
                "dur": span.duration * 1000.0,
                "args": {
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    "layer": span.layer,
                    "host": span.host,
                },
            })
        for host, host_tid in tids.items():
            events.append({
                "ph": "M", "name": "thread_name", "pid": tid,
                "tid": host_tid, "args": {"name": host},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def chrome_trace_json(
    graph: CausalGraph,
    trace_ids: Optional[Sequence[int]] = None,
) -> str:
    return json.dumps(chrome_trace(graph, trace_ids), sort_keys=True,
                      allow_nan=False)


def waterfall(
    graph: CausalGraph,
    trace_id: int,
    width: int = 56,
) -> str:
    """A plain-text waterfall of one trace: each span indented by tree
    depth with a bar positioned proportionally inside the root
    interval, in the spirit of `TraceLog.sequence_chart`."""
    root = graph.root(trace_id)
    if root is None:
        return f"(trace {trace_id}: no root span)"
    spans = sorted(graph.by_trace.get(trace_id, ()),
                   key=lambda s: (s.t0, graph.depth(s), s.span_id))
    extent = root.duration or 1.0
    label_width = max(
        len("  " * graph.depth(s) + f"{s.layer}:{s.name}") for s in spans
    )
    lines = [
        f"trace {trace_id}  root={root.name}  host={root.host}  "
        f"{root.duration:.3f} ms"
    ]
    for s in spans:
        label = "  " * graph.depth(s) + f"{s.layer}:{s.name}"
        lo = max(0.0, min(1.0, (s.t0 - root.t0) / extent))
        hi = max(0.0, min(1.0, (s.t1 - root.t0) / extent))
        start = int(round(lo * width))
        end = max(start + 1, int(round(hi * width)))
        bar = " " * start + "█" * (end - start)
        lines.append(
            f"{label:<{label_width}} |{bar:<{width}}| "
            f"{s.duration:9.3f} ms  {s.host}"
        )
    return "\n".join(lines)
