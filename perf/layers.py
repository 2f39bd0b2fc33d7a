"""Per-layer probes: each layer's cost measured from outside, by timing
calls into its public functions.

The traced pass gives the counts and spans of the workload itself; the
probes here give the numbers a pass cannot separate — what one engine
event, one marshal, one frame decode or one `NodeServer.handle` costs on
its own — plus the differential conversations (`raw_rpc(kind)`, trace
off, bare engine) behind the ``*_est`` rows.  A probe runs only in the
traced run of the workloads its layer does work on (`GROUPS`); on every
other workload its metrics read 0: the layer is not exercised there.
"""

from __future__ import annotations

import asyncio
import gc
import os
import random
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter, process_time
from typing import Callable, Dict, List, Tuple

from repro.core import codec
from repro.core.api import make_cluster, make_engine
from repro.core.links import EndRef, LinkEnd
from repro.core.recovery import TimerWheel
from repro.core.wire import MsgKind, WireMessage
from repro.net import frames
from repro.net.load import run_load
from repro.net.server import NodeServer
from repro.net.supervisor import NodeSupervisor
from repro.obs.hist import StreamingHistogram
from repro.sim.metrics import MetricSet
from repro.sim.rng import SimRandom
from repro.workloads import chaos, migration, raw, rpc, scale

import netgen
from passes import CONNECTIONS, KERNELS, LYNX, SIZES
from spans import Recorder

PAPER_KERNELS = KERNELS[:3]
SCALE = ("scale_global", "scale_sharded")


def per_call_s(fn: Callable[[], object], calls: int, repeats: int = 5) -> float:
    """Median seconds per call of ``fn`` over ``repeats`` loops of
    ``calls`` (loop overhead, ~20 ns, included), collector off."""
    gc.collect()
    gc.disable()
    try:
        times = []
        for _ in range(repeats):
            t0 = perf_counter()
            for _ in range(calls):
                fn()
            times.append((perf_counter() - t0) / calls)
    finally:
        gc.enable()
    return statistics.median(times)


def timed_s(fn: Callable[[], object]) -> Tuple[float, object]:
    gc.collect()
    gc.disable()
    try:
        t0 = perf_counter()
        out = fn()
        return perf_counter() - t0, out
    finally:
        gc.enable()


# -- sim ----------------------------------------------------------------
def bare_engine(ctx: dict) -> Dict[str, float]:
    """A self-rescheduling no-op tick on the reference engine: what one
    event costs with no runtime, kernel or metric attached."""
    events = 200_000
    eng = make_engine("global")
    left = [events]

    def tick() -> None:
        left[0] -= 1
        if left[0]:
            eng.defer(1.0, tick)

    eng.defer(0.0, tick)
    wall, fired = timed_s(eng.run)
    if fired != events:
        raise RuntimeError(f"bare engine fired {fired} of {events} events")
    return {"sim.engine.bare_us_per_event": wall * 1e6 / events}


def backends(ctx: dict) -> Dict[str, float]:
    """events/s of every backend on one 20k-client population, and the
    two ratios that separate representation from sharding."""
    out: Dict[str, float] = {}
    rate: Dict[str, float] = {}
    for label, backend, shards in (
        ("global_s1", "global", 1),
        ("serial_s1", "sharded-serial", 1),
        ("parallel_s1", "sharded-parallel", 1),
        ("serial_s8", "sharded-serial", 8),
        ("parallel_s8", "sharded-parallel", 8),
    ):
        with ctx["rec"].span("diff.backend", backend=label):
            wall, r = timed_s(lambda: scale.run_scale(
                backend, shards, clients=20_000, requests=1,
                seed=ctx["seed"]))
        rate[label] = r.events / wall
        out[f"sim.backends.{label}_events_per_s"] = rate[label]
    out["sim.backends.repr_ratio"] = rate["parallel_s1"] / rate["global_s1"]
    out["sim.backends.shard_ratio"] = rate["parallel_s8"] / rate["parallel_s1"]
    return out


def sim_micro(ctx: dict) -> Dict[str, float]:
    metrics = MetricSet()
    rng = SimRandom(ctx["seed"], "perf")
    return {
        "sim.metrics.count_ns":
            per_call_s(lambda: metrics.count("perf.x"), 100_000) * 1e9,
        "sim.rng.uniform_ns":
            per_call_s(lambda: rng.uniform(0.0, 1.0), 100_000) * 1e9,
    }


def hist_record(ctx: dict) -> Dict[str, float]:
    hist = StreamingHistogram()
    rng = SimRandom(ctx["seed"], "perf-hist")
    values = [rng.uniform(0.01, 50.0) for _ in range(1000)]

    def record_all() -> None:
        for v in values:
            hist.record(v)

    return {"obs.hist.record_ns":
            per_call_s(record_all, 100) * 1e9 / len(values)}


# -- core ---------------------------------------------------------------
def _messages(workload: str) -> List[tuple]:
    """(types, values) of every message of one op of ``workload``: its
    own argument tuples, request and reply."""
    if workload == "rpc_null":
        return [(rpc.PING.request, (b"",)), (rpc.PING.reply, (b"",))]
    if workload == "chaos_lossy":
        return [(chaos.CHAOS.request, (b"q" * 32,)),
                (chaos.CHAOS.reply, (b"r" * 32,))]
    link = LinkEnd(EndRef(7, 0), "perf")
    give = (migration.GIVEH.request, (link, 3))
    return [give, (migration.GIVEH.reply, ()), give,
            (migration.GIVEH.reply, ()),
            (migration.ADD.request, (3, 0)), (migration.ADD.reply, (2,))]


def codec_costs(ctx: dict) -> Dict[str, float]:
    messages = _messages(ctx["workload"])
    wire = [(types,) + codec.marshal(types, values)
            for types, values in messages]

    def adopt(ref: EndRef) -> LinkEnd:
        return LinkEnd(ref, "perf")

    def marshal_all() -> None:
        for types, values in messages:
            codec.marshal(types, values)

    def unmarshal_all() -> None:
        for types, payload, encs in wire:
            codec.unmarshal(types, payload, encs, adopt)

    def lazy_all() -> None:
        for types, payload, encs in wire:
            codec.lazy_unmarshal(types, payload, encs, adopt)

    n = len(messages)
    return {
        "core.codec.marshal_us": per_call_s(marshal_all, 5_000) * 1e6 / n,
        "core.codec.unmarshal_us": per_call_s(unmarshal_all, 5_000) * 1e6 / n,
        "core.codec.lazy_unmarshal_us": per_call_s(lazy_all, 5_000) * 1e6 / n,
        "core.codec.payload_bytes_per_msg":
            sum(len(payload) for _, payload, _ in wire) / n,
    }


def runtime_estimate(ctx: dict) -> Dict[str, float]:
    """LYNX minus "the same series of kernel calls" (`raw_rpc`), host
    microseconds per op: the run-time package's own share."""
    count = SIZES["smoke" if ctx["smoke"] else "full"]["rpc_null"]["count"]
    layer = ctx["layer"]
    out: Dict[str, float] = {}
    lynx = [layer[f"{k}.host_us_per_op"] for k in PAPER_KERNELS]
    for kind in PAPER_KERNELS:
        raw.raw_rpc(kind, 0, count=20, seed=ctx["seed"])  # warm-up
        with ctx["rec"].span("diff.raw_rpc", kind=kind):
            wall, _ = timed_s(
                lambda: raw.raw_rpc(kind, 0, count=count, seed=ctx["seed"]))
        out[f"{kind}.raw_host_us_per_op"] = wall * 1e6 / count
    # median, not mean: raw_soda_rpc idles by polling a 0.05 ms timer,
    # so its host cost is above LYNX's and is no floor for the runtime
    out["core.runtime.host_us_per_op_est"] = statistics.median(
        layer[f"{k}.host_us_per_op"] - out[f"{k}.raw_host_us_per_op"]
        for k in PAPER_KERNELS)
    out["core.runtime.over_ideal_us_per_op"] = (
        statistics.mean(lynx) - layer["ideal.host_us_per_op"])
    return out


def timer_wheel(ctx: dict) -> Dict[str, float]:
    """Arm, mostly cancel, and fire recovery timers the way a lossy run
    does: 8 per deadline, 7 of 8 cancelled before they are due."""
    timers = 40_000

    def churn() -> None:
        eng = make_engine("global")
        wheel = TimerWheel(eng)
        handles = [wheel.schedule(25.0 + i // 8, _noop) for i in range(timers)]
        for i, handle in enumerate(handles):
            if i % 8:
                handle.cancel()
        eng.run()

    wall, _ = timed_s(churn)
    return {"core.recovery.timerwheel_us_per_timer": wall * 1e6 / timers}


def _noop() -> None:
    pass


# -- obs ----------------------------------------------------------------
def obs_overhead(ctx: dict) -> Dict[str, float]:
    """The `ideal` conversation with tracing off / sampled 1-in-16 /
    default (everything): host wall of the drain, three rotated rounds,
    median same-round ratio."""
    count = 200 if ctx["smoke"] else 600

    def off(cluster) -> None:
        cluster.trace.enabled = False
        cluster.install_trace_sampling(0.0)

    def sampled(cluster) -> None:
        cluster.install_trace_sampling(1.0 / 16.0)

    modes = [("off", off), ("sampled", sampled), ("full", lambda c: None)]

    def drain_s(mode: str, setup) -> float:
        cluster = make_cluster("ideal", seed=ctx["seed"])
        setup(cluster)
        s = cluster.spawn(rpc.PingServer(count + 1, 0), "server")
        c = cluster.spawn(rpc.PingClient(count, 0), "client")
        cluster.create_link(s, c)
        with ctx["rec"].span("diff.trace", mode=mode):
            wall, _ = timed_s(lambda: cluster.run_until_quiet(max_ms=1e7))
        if not cluster.all_finished:
            raise RuntimeError("obs probe conversation hung")
        return wall

    ratios: Dict[str, List[float]] = {"sampled": [], "full": []}
    for r in range(3):
        order = modes[r:] + modes[:r]
        walls = {mode: drain_s(mode, setup) for mode, setup in order}
        for mode in ratios:
            ratios[mode].append(walls[mode] / walls["off"] - 1.0)
    return {
        "obs.full_overhead_frac": statistics.median(ratios["full"]),
        "obs.sampled_overhead_frac": statistics.median(ratios["sampled"]),
    }


# -- net ----------------------------------------------------------------
def _ping(seq: int = 1) -> WireMessage:
    return WireMessage(kind=MsgKind.REQUEST, seq=seq, opname="ping",
                       sighash=100, payload=b"x" * 32, sent_at=0.0)


def frame_costs(ctx: dict) -> Dict[str, float]:
    msg = _ping()
    body = frames.encode_frame(msg)
    packed = frames.pack_frame(body)
    reply = NodeServer("perf").handle(msg)
    chunk = packed * 256

    def feed() -> None:
        frames.FrameReader().feed(chunk)

    return {
        "net.frames.encode_us":
            per_call_s(lambda: frames.encode_frame(msg), 20_000) * 1e6,
        "net.frames.decode_us":
            per_call_s(lambda: frames.decode_frame(body), 20_000) * 1e6,
        "net.frames.pack_us":
            per_call_s(lambda: frames.pack_frame(body), 50_000) * 1e6,
        "net.frames.reader_feed_us": per_call_s(feed, 200) * 1e6 / 256,
        "net.frames.bytes_per_msg":
            (len(packed) + len(frames.pack_frame(reply))) / 2.0,
    }


def server_handle(ctx: dict) -> Dict[str, float]:
    """`NodeServer.handle` in-process: a fresh request executes and
    caches its reply, a duplicate replays the cached bytes."""
    n = 20_000
    requests = [_ping(seq) for seq in range(1, n + 1)]
    node = NodeServer("perf")
    it = iter(requests)
    fresh, _ = timed_s(lambda: [node.handle(req) for req in it])
    dup = per_call_s(lambda: node.handle(requests[0]), n)
    if node.executed_unique != n or node.duplicates != 5 * n:
        raise RuntimeError("NodeServer.handle probe miscounted")
    return {"net.server.handle_fresh_us": fresh * 1e6 / n,
            "net.server.handle_dup_us": dup * 1e6}


def load_closed_loop(ctx: dict) -> Dict[str, float]:
    """`repro.net.load.run_load`, two depth-1 clients: informational —
    on <= 2 cores it measures the scheduler's wake-up latency."""
    requests = 150 if ctx["smoke"] else 1500
    with NodeSupervisor() as sup:
        node = sup.spawn("perf-load")
        c0 = process_time()
        with ctx["rec"].span("diff.run_load"):
            report = run_load([node.endpoint], clients=CONNECTIONS,
                              requests=requests, payload_bytes=32)
        cpu = process_time() - c0
    if report.completed != CONNECTIONS * requests:
        raise RuntimeError("run_load probe lost requests")
    out = {
        "net.load.closed_ops_per_s": report.throughput_per_s,
        "net.load.cpu_us_per_op": cpu * 1e6 / report.completed,
        "net.load.retries": float(report.retries),
    }
    for p in (50, 90, 99):
        out[f"net.load.rtt_ms_p{p}"] = report.rtt.percentile(float(p))
    return out


def hub_echo(ctx: dict) -> Dict[str, float]:
    """The in-process `real-asyncio` backend against `ideal`: what the
    socket round trip of every message adds per op."""
    count = 100 if ctx["smoke"] else 400
    walls = {}
    for kind in ("real-asyncio", "ideal"):
        rpc.run_rpc_workload(kind, 0, count=10, seed=ctx["seed"])
        with ctx["rec"].span("diff.hub", kind=kind):
            walls[kind], _ = timed_s(lambda: rpc.run_rpc_workload(
                kind, 0, count=count, seed=ctx["seed"]))
    hub = walls["real-asyncio"] * 1e6 / count
    return {"net.hub.host_us_per_op": hub,
            "net.hub.over_ideal_us_per_op": hub - walls["ideal"] * 1e6 / count}


def echo_floor(ctx: dict) -> Dict[str, float]:
    """The same window against a codec-free asyncio echo process: the
    like-for-like floor under `net_small` (streams + scheduling only)."""
    size = SIZES["smoke" if ctx["smoke"] else "full"]["net_small"]
    per_conn = size["per_conn"] // 2
    conns = [netgen.make_conn(100 + i, per_conn, size["payload"],
                              random.Random(ctx["seed"]))
             for i in range(CONNECTIONS)]

    async def drive(path: str) -> float:
        for conn in conns:
            await netgen.connect(conn, path)
        try:
            t0 = perf_counter()
            await netgen.drain_window(conns, size["window"], verify=False)
            return perf_counter() - t0
        finally:
            netgen.close(conns)

    with tempfile.TemporaryDirectory(prefix="perf-echo-") as tmp:
        path = os.path.join(tmp, "echo.sock")
        proc = subprocess.Popen(
            [sys.executable, netgen.__file__, "--echo", path],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        try:
            if not proc.stdout.readline().startswith(b"ECHO READY"):
                raise RuntimeError("echo server did not start")
            with ctx["rec"].span("diff.echo_floor"):
                wall = asyncio.run(drive(path))
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()
    if any(conn.failed for conn in conns):
        raise RuntimeError("echo floor lost frames")
    return {"bench.asyncio_echo_floor_us_per_op":
            wall * 1e6 / (CONNECTIONS * per_conn)}


#: (probe, workloads whose traced run includes it): the layer does work
#: on those workloads, so that is where a change to it should show
GROUPS: Tuple[Tuple[Callable[[dict], Dict[str, float]], Tuple[str, ...]], ...] = (
    (bare_engine, LYNX + SCALE),
    (backends, SCALE),
    (sim_micro, SCALE + ("chaos_lossy",)),
    (hist_record, SCALE + ("rpc_null",)),
    (codec_costs, LYNX),
    (runtime_estimate, ("rpc_null",)),
    (timer_wheel, ("chaos_lossy",)),
    (obs_overhead, ("rpc_null",)),
    (frame_costs, ("net_small",)),
    (server_handle, ("net_small",)),
    (load_closed_loop, ("net_small",)),
    (hub_echo, ("net_small",)),
    (echo_floor, ("net_small",)),
)


def probe(workload: str, seed: int, smoke: bool, layer: Dict[str, float],
          rec: Recorder) -> Dict[str, float]:
    """Run every probe whose layer ``workload`` exercises; ``layer`` is
    the traced pass's own table (the differential rows subtract from it)."""
    ctx = {"workload": workload, "seed": seed, "smoke": smoke,
           "layer": layer, "rec": rec}
    out: Dict[str, float] = {}
    with rec.span("probes", workload=workload):
        for fn, workloads in GROUPS:
            if workload in workloads:
                with rec.span("probe." + fn.__name__):
                    out.update(fn(ctx))
    return out
