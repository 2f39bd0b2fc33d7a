"""The six workloads: one *pass* each, run in a fresh child process.

A pass is import, one small untimed warm-up, then the timed region.
Run length is fixed by the op counts in `SIZES` (identical on every
commit), never by a time budget.  GC is collected before and disabled
inside each timed region.

The end-to-end pass calls the workload's public entry point and records
no spans.  The traced pass restates the same ~20 lines over the public
pieces (`make_cluster`, `spawn`, `create_link`, `run_until_quiet`,
`make_engine`, `ShardSim`, ...) with a span around each, and must
reproduce the end-to-end pass's exact counts — `run.py` checks that, so
a drifted restatement fails instead of misattributing time.
"""

from __future__ import annotations

import asyncio
import gc
import heapq
import random
import resource
import time
from time import perf_counter, process_time
from typing import Callable, Dict, List

from repro.core.api import make_cluster, make_engine
from repro.net import TransportUnavailable
from repro.net.supervisor import NodeSupervisor, SpawnFailed
from repro.obs.causal import CausalGraph
from repro.sim.metrics import MetricSet
from repro.workloads import chaos, migration, rpc, scale

import netgen
from spans import Recorder, duration

KERNELS = ("charlotte", "soda", "chrysalis", "ideal")
LYNX = ("rpc_null", "link_move", "chaos_lossy")
WORKLOADS = LYNX + ("scale_global", "scale_sharded", "net_small")

#: op counts per pass.  "full" is the benchmark; "smoke" only proves the
#: plumbing (its numbers are not comparable and have no golden values).
SIZES = {
    "full": {
        "rpc_null": {"count": 600},
        "link_move": {"hops": 200},
        "chaos_lossy": {"count": 600},
        "scale_global": {"backend": "global", "shards": 1,
                         "clients": 50_000, "requests": 1},
        "scale_sharded": {"backend": "sharded-parallel", "shards": 8,
                          "clients": 50_000, "requests": 2},
        "net_small": {"per_conn": 10_000, "window": 16, "payload": 32},
    },
    "smoke": {
        "rpc_null": {"count": 60},
        "link_move": {"hops": 24},
        "chaos_lossy": {"count": 60},
        "scale_global": {"backend": "global", "shards": 1,
                         "clients": 4_000, "requests": 1},
        "scale_sharded": {"backend": "sharded-parallel", "shards": 8,
                          "clients": 4_000, "requests": 2},
        "net_small": {"per_conn": 1_500, "window": 16, "payload": 32},
    },
}

#: warm-up sizes: enough to import every lazily loaded module and fill
#: the per-type caches, small enough not to matter to `setup_s`
WARM = {
    "rpc_null": {"count": 20},
    "link_move": {"hops": 8},
    "chaos_lossy": {"count": 20},
    "scale": {"clients": 2_000},
    "net_small": {"per_conn": 100},
}

CONNECTIONS = 2
LOOKAHEAD_MS = 0.25  # run_scale's default, restated in the traced pass


#: what one calibration sample takes at the full speed of the sandbox
#: this was written on: the unit that makes a second a *calibrated* one
CALIB_NOMINAL_S = 1e-3


class _Cell:
    __slots__ = ("n",)

    def __init__(self) -> None:
        self.n = 0

    def bump(self) -> int:
        self.n += 1
        return self.n


def calibrate(samples: int = 24) -> float:
    """Mean seconds of ``samples`` runs of a fixed pure-Python loop with
    the simulator's instruction mix: tuples through a heap, dict
    updates, method calls, float arithmetic.

    The sandbox's CPU runs anywhere from full speed to 1.8x slower, for
    milliseconds or for minutes, whatever code it runs, so a time means
    little without the host's speed at that moment (README, "Protocol").
    A sample taken right before and right after each clocked call is
    that speed; `run.calibrated` divides it out."""
    push, pop = heapq.heappush, heapq.heappop
    cells = [_Cell() for _ in range(64)]
    total = 0.0
    for _ in range(samples):
        t0 = perf_counter()
        heap: List[tuple] = []
        seen: Dict[int, int] = {}
        for i in range(1200):
            push(heap, (i * 7 % 13 * 0.5, i, cells[i & 63]))
            seen[i & 255] = seen.get(i & 255, 0) + 1
            if i & 1:
                pop(heap)[2].bump()
        while heap:
            pop(heap)
        total += perf_counter() - t0
    return total / samples


class Quiet:
    """A timed region with the collector out of the way: the epoch at
    which it started and the calibration taken right then (for
    `setup_s`), and one ``[ops, wall_s, cpu_s, calib_s]`` segment per
    clocked call, ``calib_s`` being the mean calibration sample right
    before and right after the call."""

    def __enter__(self) -> "Quiet":
        gc.collect()
        gc.disable()
        self.segments: List[List[float]] = []
        self.epoch = time.time()
        self.setup_calib_s = self._before = calibrate()
        return self

    def __exit__(self, *exc) -> None:
        gc.enable()

    def clock(self, fn: Callable[[], object]) -> object:
        """Run ``fn`` on the clock; returns its result.  The caller
        sets the segment's op count once it knows it."""
        c0, t0 = process_time(), perf_counter()
        out = fn()
        self.close(perf_counter() - t0, process_time() - c0)
        return out

    def close(self, wall: float, cpu: float) -> None:
        """End a segment clocked by hand (the awaited window drain)."""
        after = calibrate()
        self.segments.append([0, wall, cpu, (self._before + after) / 2.0])
        self._before = after

    @property
    def wall(self) -> float:
        return sum(seg[1] for seg in self.segments)


# ----------------------------------------------------------------------
# LYNX conversations: public entry point, or the same body with spans
# ----------------------------------------------------------------------
def _drive(rec: Recorder, build: Callable[[], tuple],
           collect: Callable[..., object]):
    """build -> drain -> collect, each under its span."""
    with rec.span("core.cluster.build"):
        cluster, state = build()
    with rec.span("core.cluster.drain"):
        cluster.run_until_quiet(max_ms=1e7)
    with rec.span("collect"):
        return collect(cluster, state)


def _rpc(rec: Recorder, kind: str, seed: int, count: int) -> dict:
    if not rec.enabled:
        r = rpc.run_rpc_workload(kind, 0, count=count, seed=seed)
    else:
        def build():
            cluster = make_cluster(kind, seed=seed)
            client = rpc.PingClient(count, 0)
            s = cluster.spawn(rpc.PingServer(count + 1, 0), "server")
            c = cluster.spawn(client, "client")
            cluster.create_link(s, c)
            return cluster, client

        def collect(cluster, client):
            if not cluster.all_finished:
                raise RuntimeError(f"rpc workload hung on {kind}")
            return rpc.RPCResult(
                kind=kind, payload_bytes=0, rtts=client.rtts,
                messages=cluster.metrics.total("wire.messages."),
                wire_bytes=cluster.metrics.get("wire.bytes"),
                trace=cluster.trace,
            )

        r = _drive(rec, build, collect)
    return {
        "ops": len(r.rtts), "trace": r.trace,
        "skip_traces": 1,  # the workload's own warm-up trip
        "exact": {
            "sim_ms_per_op": r.mean_ms,
            "wire_msgs_per_op": r.messages / count,
            "wire_bytes_per_op": r.wire_bytes / count,
        },
    }


#: migration digest key -> (kernel metric, per-layer name); each exists
#: only on the kernel that has the machinery
_MOVE_COUNTS = {
    "move_msgs": ("charlotte.move_msgs", "charlotte.move_msgs_per_op"),
    "redirects_followed": ("soda.redirects_followed",
                           "soda.redirects_followed_per_op"),
    "discovers": ("soda.discover", "soda.discovers_per_op"),
    "stale_notices": ("chrysalis.stale_notices",
                      "chrysalis.stale_notices_per_op"),
}
MEMBERS = 4


def _move(rec: Recorder, kind: str, seed: int, hops: int) -> dict:
    if not rec.enabled:
        d = migration.run_migration_churn(kind, members=MEMBERS, hops=hops,
                                          seed=seed)
    else:
        def build():
            cluster = make_cluster(kind, seed=seed)
            observer = migration.Observer(hops)
            disp = cluster.spawn(migration.Dispatcher(hops, MEMBERS),
                                 "dispatcher")
            obs = cluster.spawn(observer, "observer")
            handles = [
                cluster.spawn(migration.Member(
                    i, len(range(i, hops, MEMBERS)), 2000.0), f"member{i}")
                for i in range(MEMBERS)
            ]
            cluster.create_link(disp, obs)
            for h in handles:
                cluster.create_link(disp, h)
            return cluster, observer

        def collect(cluster, observer):
            m = cluster.metrics
            d = {
                "finished": cluster.all_finished,
                "rpcs_served": len(observer.servers),
                "mean_rpc_ms": (sum(observer.rtts) / len(observer.rtts)
                                if observer.rtts else 0.0),
                "wire_messages": m.total("wire.messages."),
                "wire_bytes": m.get("wire.bytes"),
                "trace": cluster.trace,
            }
            for key, (metric, _) in _MOVE_COUNTS.items():
                if metric.startswith(kind + "."):
                    d[key] = m.get(metric)
            return d

        d = _drive(rec, build, collect)
    exact = {
        # the observer's RPCs run back to back, one per hop, so their
        # mean is the simulated time of one hop (the members' 2 s
        # linger after the last hop belongs to no op)
        "sim_ms_per_op": d["mean_rpc_ms"],
        "wire_msgs_per_op": d["wire_messages"] / hops,
        "wire_bytes_per_op": d["wire_bytes"] / hops,
    }
    for key, (_, name) in _MOVE_COUNTS.items():
        if key in d:
            exact[name] = d[key] / hops
    return {"ops": d["rpcs_served"] if d["finished"] else 0,
            "trace": d["trace"], "skip_traces": 0, "exact": exact}


def _chaos(rec: Recorder, kind: str, seed: int, count: int) -> dict:
    plan, policy = chaos.lossy_plan(0.1, 0.05), chaos.chaos_policy()
    clusters: List[object] = []  # the result does not carry wire.* counts
    if not rec.enabled:
        r = chaos.run_chaos_workload(
            kind, count=count, plan=plan, policy=policy, pace_ms=0.0,
            seed=seed, instrument=clusters.append,
        )
    else:
        def build():
            cluster = make_cluster(kind, seed=seed)
            cluster.install_faults(plan)
            cluster.install_recovery(policy)
            clusters.append(cluster)
            client = chaos.ChaosClient(count, 32, 0.0)
            c = cluster.spawn(client, "client")
            p = cluster.spawn(chaos.ChaosServer(32), "primary")
            b = cluster.spawn(chaos.ChaosServer(32), "backup")
            cluster.create_link(c, p)
            cluster.create_link(c, b)
            return cluster, client

        def collect(cluster, client):
            if not cluster.all_finished:
                raise RuntimeError(f"chaos workload hung on {kind}")
            cluster.check()
            counters = dict(cluster.metrics.counters("faults."))
            counters.update(cluster.metrics.counters("recovery."))
            return chaos.ChaosResult(
                kind=kind, count=count, completed=client.completed,
                failed=client.failed, failed_over=client.failed_over,
                rtts=client.rtts, elapsed_ms=client.elapsed_ms,
                counters=counters, trace=cluster.trace,
            )

        r = _drive(rec, build, collect)
    metrics = clusters[0].metrics
    done = max(r.completed, 1)
    exact = {
        "sim_ms_per_op": r.elapsed_ms / done,
        "wire_msgs_per_op": metrics.total("wire.messages.") / done,
        "wire_bytes_per_op": metrics.get("wire.bytes") / done,
    }
    exact.update(sorted(r.counters.items()))
    return {"ops": r.completed, "trace": r.trace, "skip_traces": 0,
            "exact": exact}


_CONVERSATION = {
    "rpc_null": (_rpc, "count"),
    "link_move": (_move, "hops"),
    "chaos_lossy": (_chaos, "count"),
}


def lynx_pass(workload: str, seed: int, size: dict, rec: Recorder) -> dict:
    run_one, knob = _CONVERSATION[workload]
    off = Recorder("", enabled=False)
    for kind in KERNELS:
        run_one(off, kind, seed, WARM[workload][knob])
    exact: Dict[str, dict] = {}
    layer: Dict[str, float] = {}
    causal_s = 0.0
    ops = events = trace_events = 0
    with rec.span("pass", workload=workload), Quiet() as quiet:
        for kind in KERNELS:
            def conversation(kind=kind):
                with rec.span("conversation", kind=kind):
                    return run_one(rec, kind, seed, size[knob])

            one = quiet.clock(conversation)
            quiet.segments[-1][0] = one["ops"]
            host_s = quiet.segments[-1][1]
            trace, n = one["trace"], max(one["ops"], 1)
            ops += one["ops"]
            events += trace.engine.events_fired
            trace_events += len(trace.events)
            exact[kind] = one["exact"]
            exact[kind]["events_per_op"] = trace.engine.events_fired / n
            layer[f"{kind}.ops_per_s"] = one["ops"] / host_s
            layer[f"{kind}.host_us_per_op"] = host_s * 1e6 / n
            if rec.enabled:
                with rec.span("obs.causal.build", kind=kind) as sp:
                    graph = CausalGraph.from_trace(trace)
                    by_layer = graph.by_layer(
                        graph.traces()[one["skip_traces"]:])
                for name in ("runtime", "kernel", "network"):
                    if name in by_layer:  # `ideal` has no network layer
                        layer[f"{kind}.sim_{name}_ms"] = by_layer[name] / n
                causal_s += duration(sp)
    if rec.enabled:
        layer["obs.causal.build_ms"] = causal_s * 1e3 / len(KERNELS)
        for short in ("build", "drain"):
            layer[f"core.cluster.{short}_ms"] = sum(
                duration(s) for s in rec.spans
                if s["name"] == f"core.cluster.{short}") * 1e3 / len(KERNELS)
    for kind, values in exact.items():
        for field, value in values.items():
            if field.endswith("_per_op"):
                layer[field if "." in field else f"{kind}.{field}"] = value
    layer["sim.engine.events_per_op"] = events / max(ops, 1)
    layer["sim.engine.host_us_per_event"] = quiet.wall * 1e6 / events
    layer["obs.trace_events_per_op"] = trace_events / max(ops, 1)
    if workload == "chaos_lossy":
        layer.update(_chaos_layer(exact, ops))

    def mean(field: str) -> float:
        return sum(e[field] for e in exact.values()) / len(exact)

    attempted = len(KERNELS) * size[knob]
    return {
        "ops": ops, "attempted": attempted, "failed": attempted - ops,
        "segments": quiet.segments, "epoch": quiet.epoch,
        "setup_calib_s": quiet.setup_calib_s,
        "sim_ms_per_op": mean("sim_ms_per_op"),
        "wire_msgs_per_op": mean("wire_msgs_per_op"),
        "exact": exact, "layer": layer,
    }


def _chaos_layer(exact: Dict[str, dict], ops: int) -> Dict[str, float]:
    """The `core.recovery` / `sim.faults` counts, summed over kernels."""
    def total(counter: str) -> float:
        return sum(e.get(counter, 0.0) for e in exact.values())

    out = {
        f"core.recovery.{short}_per_op": total(f"recovery.{short}") / ops
        for short in ("retries", "timeouts", "replies_replayed",
                      "duplicates_dropped", "exhausted")
    }
    out["core.recovery.failovers"] = total("recovery.failovers")
    out["sim.faults.dropped_per_op"] = total("faults.dropped") / ops
    out["sim.faults.duplicated_per_op"] = total("faults.duplicated") / ops
    out["charlotte.kernel_retransmits_per_op"] = (
        exact["charlotte"].get("faults.kernel_retransmits", 0.0)
        / (ops / len(exact)))
    return out


# ----------------------------------------------------------------------
# scale: run_scale, or its body restated over its public pieces
# ----------------------------------------------------------------------
def _traced_scale(rec: Recorder, seed: int, layer: Dict[str, float], *,
                  backend: str, shards: int, clients: int,
                  requests: int) -> scale.ScaleResult:
    with rec.span("make_engine"):
        eng = make_engine(backend, shards=shards, lookahead_ms=LOOKAHEAD_MS,
                          workers=None)
    with rec.span("populate") as populate:
        per_shard = [clients // shards + (i < clients % shards)
                     for i in range(shards)]
        sims = [
            scale.ShardSim(eng, s, shards, clients=per_shard[s],
                           requests=requests, seed=seed)
            for s in range(shards)
        ]
        for sim in sims:
            sim.start()
    layer["sim.engine.pending_peak"] = float(eng.pending)
    with rec.span("sim.engine.drain") as drain:
        events = eng.run()
    with rec.span("sim.engine.harvest") as harvest:
        payloads = eng.harvest()
    with rec.span("merge"):
        merged = MetricSet()
        for payload in payloads:
            merged.merge(payload["metrics"])
    layer["sim.engine.populate_s"] = duration(populate)
    layer["sim.engine.drain_s"] = duration(drain)
    layer["sim.engine.harvest_s"] = duration(harvest)
    return scale.ScaleResult(
        backend=backend, shards=shards, clients=clients, requests=requests,
        events=events,
        sim_ms=max(eng.shard_now(s) for s in range(shards)),
        shard_digests=tuple(p["digest"] for p in payloads),
        metrics=merged,
    )


def scale_pass(workload: str, seed: int, size: dict, rec: Recorder) -> dict:
    scale.run_scale(size["backend"], size["shards"], seed=seed,
                    requests=size["requests"], **WARM["scale"])
    layer: Dict[str, float] = {}
    with rec.span("pass", workload=workload), Quiet() as quiet:
        if rec.enabled:
            r = quiet.clock(lambda: _traced_scale(rec, seed, layer, **size))
        else:
            r = quiet.clock(lambda: scale.run_scale(
                size["backend"], size["shards"], clients=size["clients"],
                requests=size["requests"], seed=seed))
    attempted = size["clients"] * size["requests"]
    ops = quiet.segments[0][0] = int(r.completed)
    rtt = r.metrics.latency("scale.rtt")
    layer["sim.engine.events_per_op"] = r.events / ops
    layer["sim.engine.host_us_per_event"] = quiet.wall * 1e6 / r.events
    return {
        "ops": ops, "attempted": attempted, "failed": attempted - ops,
        "segments": quiet.segments, "epoch": quiet.epoch,
        "setup_calib_s": quiet.setup_calib_s,
        # mean simulated round trip of one scale request
        "sim_ms_per_op": rtt.mean,
        "wire_msgs_per_op": None,
        "exact": {"digest": r.digest, "events": r.events,
                  "sim_ms": r.sim_ms, "sim_ms_per_op": rtt.mean},
        "layer": layer,
    }


# ----------------------------------------------------------------------
# net_small: a fresh node process, the benchmark's own window generator
# ----------------------------------------------------------------------
def _percentile(sorted_xs: List[float], p: float) -> float:
    return sorted_xs[min(len(sorted_xs) - 1, int(p * len(sorted_xs)))]


def net_pass(workload: str, seed: int, size: dict, rec: Recorder) -> dict:
    from repro.net.load import query_stats

    rng = random.Random(seed)
    per_conn, window = size["per_conn"], size["window"]
    layer: Dict[str, float] = {}
    quiet = Quiet()
    gen_cpu: List[float] = []
    rss_before: List[float] = []

    async def drive(endpoint: str, pid: int) -> None:
        with rec.span("connect"):
            for w, c in zip(warm, conns):
                await netgen.connect(w, endpoint)
                c.reader, c.writer = w.reader, w.writer
        try:
            await netgen.drain_window(warm, window)
            if rec.enabled:
                for c in conns:
                    c.sent_at, c.rtts = [], []
            rss_before.append(netgen.proc_mem_mb(pid, "VmRSS"))
            with quiet:
                node0 = netgen.proc_cpu_s(pid)
                c0, t0 = process_time(), perf_counter()
                with rec.span("window.drain") as drain:
                    await netgen.drain_window(conns, window)
                wall = perf_counter() - t0
                gen_cpu.append(process_time() - c0)
                # the segment's CPU is the *node's*; the generator's
                # own is the per-layer bench.gen.cpu_us_per_op
                quiet.close(wall, netgen.proc_cpu_s(pid) - node0)
            if rec.enabled:  # per-request spans, sampled 1 in 64
                for c in conns:
                    for i in range(0, c.received, 64):
                        rec.add("request", c.sent_at[i],
                                c.sent_at[i] + c.rtts[i],
                                parent=drain["id"], op=f"{c.cid}:{i + 1}")
        finally:
            netgen.close(conns)

    with rec.span("pass", workload=workload), NodeSupervisor() as sup:
        with rec.span("net.supervisor.spawn") as spawn:
            node = sup.spawn("perf-node")
        pid = node.proc.pid
        with rec.span("pre-encode"):
            warm = [netgen.make_conn(900 + i, WARM["net_small"]["per_conn"],
                                     size["payload"], rng)
                    for i in range(CONNECTIONS)]
            conns = [netgen.make_conn(100 + i, per_conn, size["payload"], rng)
                     for i in range(CONNECTIONS)]

        asyncio.run(drive(node.endpoint, pid))
        with rec.span("stats"):
            stats = query_stats(node.endpoint)
            hwm = netgen.proc_mem_mb(pid, "VmHWM")
        with rec.span("teardown"):
            sup.stop_all()

    attempted = CONNECTIONS * per_conn
    sent = attempted + sum(len(w.frames) for w in warm)
    failed = sum(c.failed for c in conns)
    if stats["executed_unique"] != sent or stats["duplicates"] != 0:
        failed = attempted  # the server disagrees about what it ran
    ops = quiet.segments[0][0] = attempted - failed
    layer.update({
        "net.server.cpu_us_per_op": quiet.segments[0][2] * 1e6 / max(ops, 1),
        "net.server.rss_mb": hwm,
        "net.server.rss_kb_per_1k_ops":
            (hwm - rss_before[0]) * 1024.0 / (attempted / 1000.0),
        "net.server.executed_unique": float(stats["executed_unique"]),
        "net.server.duplicates": float(stats["duplicates"]),
        "bench.gen.cpu_us_per_op": gen_cpu[0] * 1e6 / max(ops, 1),
    })
    if rec.enabled:
        layer["net.supervisor.spawn_ready_ms"] = duration(spawn) * 1e3
        rtts = sorted(r * 1e3 for c in conns for r in c.rtts)
        for p in (50, 90, 99):
            layer[f"net.window.rtt_ms_p{p}"] = _percentile(rtts, p / 100.0)
    return {
        "ops": ops, "attempted": attempted, "failed": failed,
        "segments": quiet.segments, "epoch": quiet.epoch,
        "setup_calib_s": quiet.setup_calib_s, "rss_mb": hwm,
        "sim_ms_per_op": None, "wire_msgs_per_op": None,
        "exact": {}, "layer": layer,
    }


PASSES = {name: lynx_pass for name in LYNX}
PASSES.update(scale_global=scale_pass, scale_sharded=scale_pass,
              net_small=net_pass)


def run_pass(workload: str, seed: int, smoke: bool, rec: Recorder) -> dict:
    """One pass; every workload returns the same keys.  A host that
    forbids sockets or cannot start the node skips `net_small` with the
    reason (null metrics, zero attempted) instead of failing it."""
    size = SIZES["smoke" if smoke else "full"][workload]
    try:
        out = PASSES[workload](workload, seed, size, rec)
    except (TransportUnavailable, SpawnFailed) as exc:
        if workload != "net_small":
            raise
        return {"skipped": f"{type(exc).__name__}: {exc}"}
    out.setdefault(
        "rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    out["skipped"] = None
    return out
