"""repro.obs — the structured observability layer.

The simulation substrate already *collects* everything the paper's
argument needs (`repro.sim.trace.TraceLog`, `repro.sim.metrics.
MetricSet`); this package makes it *machine
readable* so the perf trajectory of the repository can be tracked
across PRs:

* `repro.obs.bench` / `repro.obs.compare` — the unified benchmark
  runner behind ``python -m repro bench`` and its equality diff,
  producing and gating the ``BENCH_*.json`` baseline (imported by
  name, not re-exported here: nothing on a simulation or node-process
  start-up path needs them);
* `SpanContext` / `SpanTracker` / `CausalGraph` / `chrome_trace` /
  `waterfall` — causal span tracing with critical-path latency
  attribution across the three kernels (``python -m repro trace``,
  docs/CAUSALITY.md);
* `StreamingHistogram` — log-bucketed fixed-precision latency
  histograms (O(1) record, O(buckets) memory, mergeable across
  shards) backing every `LatencyRecorder` percentile;
* `TraceSampler` — seeded head-based trace sampling
  (``cluster.install_trace_sampling``), same-seed runs sample
  identical trace ids;
* `FlightRecorder` — dumps the trace log's tail as a bounded JSONL
  black box when recovery is exhausted, a partition opens or a
  process crashes (`TraceLog.alarm`; ``python -m repro flight``);
* `TimeSeries` — per-window goodput/latency/fault aggregates on
  simulated time (``python -m repro top``);
* `json_safe` — NaN/Infinity-free JSON value sanitising shared by all
  exporters (traces themselves round-trip through `TraceLog.to_jsonl`
  / `TraceLog.from_jsonl`, what ``python -m repro trace --from`` reads).
* `repro.obs.report` — the text `Table` the CLI prints and each
  experiment saves (imported by name, like `bench`).

Formats and vocabularies are documented in docs/OBSERVABILITY.md.
"""

from repro.obs.flight import (
    FLIGHT_SCHEMA,
    FLIGHT_SCHEMA_VERSION,
    FlightRecorder,
    describe_flight_dump,
    load_flight_dump,
)
from repro.obs.hist import StreamingHistogram
from repro.obs.sampling import TraceSampler
from repro.obs.timeseries import TimeSeries, WindowStat
from repro.obs.causal import (
    GAP_LAYER,
    LAYERS,
    CausalGraph,
    PathSegment,
    Span,
    SpanContext,
    SpanTracker,
    chrome_trace,
    chrome_trace_json,
    waterfall,
)
from repro.obs.jsonl import json_safe

__all__ = [
    "CausalGraph",
    "FLIGHT_SCHEMA",
    "FLIGHT_SCHEMA_VERSION",
    "FlightRecorder",
    "GAP_LAYER",
    "LAYERS",
    "PathSegment",
    "Span",
    "SpanContext",
    "SpanTracker",
    "StreamingHistogram",
    "TimeSeries",
    "TraceSampler",
    "WindowStat",
    "chrome_trace",
    "chrome_trace_json",
    "describe_flight_dump",
    "json_safe",
    "load_flight_dump",
    "waterfall",
]
