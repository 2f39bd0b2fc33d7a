"""Command-line interface: run the paper's workloads without pytest.

    python -m repro rpc --kernel soda --payload 1024 --count 10
    python -m repro sweep                   # the E4 crossover sweep
    python -m repro migrate --kernel soda --hops 8 --loss 0.5
    python -m repro sizes                   # E2's code-size table + the tree's
    python -m repro bench                   # E1..E17, A1..A5 -> BENCH_*.json
    python -m repro trace --kernel soda --by-layer --critical-path
    python -m repro chaos                   # fault injection + recovery
    python -m repro flight --demo           # black-box dump + inspector
    python -m repro top                     # per-window chaos telemetry
    python -m repro net serve --socket S    # a node: python -m repro.net
    python -m repro net load S --clients N  # wall-clock load generator

The figure-2 chart, the kernel comparison and the Linda bag of tasks
are the shipped scripts ``examples/figure2.py``,
``examples/kernel_comparison.py`` and ``examples/linda_bag_of_tasks.py``.

Intended for exploration, except ``bench``: it runs every experiment
registered in `repro.experiments`, holds each to the paper's claims,
and is the canonical producer of the machine-readable ``BENCH_*.json``
regression baseline (see docs/OBSERVABILITY.md); the saved tables under
``benchmarks/out/`` are views of that document.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.complexity import (
    area_sizes,
    charlotte_special_case_stats,
    runtime_package_stats,
)
from repro.core.api import (
    kernel_profile,
    registered_kernels,
    registered_sim_backends,
)
from repro.core.ports import load
from repro.obs.report import Table


def _cmd_rpc(args) -> int:
    from repro.workloads.rpc import run_rpc_workload

    r = run_rpc_workload(
        args.kernel, payload_bytes=args.payload, count=args.count,
        seed=args.seed,
    )
    t = Table(
        f"simple remote operation on {args.kernel}",
        ["payload B each way", "ops", "mean ms", "min ms", "max ms",
         "wire msgs"],
    )
    t.add(args.payload, len(r.rtts), r.mean_ms, min(r.rtts), max(r.rtts),
          r.messages)
    t.show()
    return 0


def _cmd_sweep(args) -> int:
    from repro.experiments import experiment

    e4 = experiment("E4")
    print()
    print(e4.table(e4.measure(args.seed, False)))
    print()
    return 0


#: ``migrate`` flag -> the cluster keyword it sets (SODA's, today)
_MIGRATE_KNOBS = {"loss": "broadcast_loss", "cache": "cache_size"}


def _cmd_migrate(args) -> int:
    from inspect import signature

    from repro.workloads.migration import run_dormant_migration

    knobs = {kwarg: getattr(args, flag)
             for flag, kwarg in _MIGRATE_KNOBS.items()
             if getattr(args, flag) is not None}
    # a kernel has a knob when its cluster constructor names it
    named = signature(load(kernel_profile(args.kernel).factory)).parameters
    lacking = knobs.keys() - named
    if lacking:
        flags = [f"--{flag}" for flag, kwarg in _MIGRATE_KNOBS.items()
                 if kwarg in lacking]
        print(f"repro migrate: {args.kernel} has no cluster knob for "
              f"{' / '.join(flags)}", file=sys.stderr)
        return 2
    d = run_dormant_migration(
        args.kernel, members=args.members, hops=args.hops, seed=args.seed,
        **knobs,
    )
    t = Table(
        f"dormant-link migration on {args.kernel} "
        f"({args.hops} hops, then one use)",
        ["quantity", "value"],
    )
    for key in ("served_by", "repair_latency_ms", "redirects_served",
                "discovers", "discover_repairs", "freeze_searches",
                "frozen_ms", "move_msgs", "wire_messages"):
        # capability-conditional keys are *absent* (not None) on
        # kernels whose digest does not produce them
        t.add(key, d[key] if key in d else "(n/a)")
    t.show()
    return 0


def _cmd_bench(args) -> int:
    from repro.obs.bench import run_benches, write_bench_json

    if args.compare is not None:
        return _bench_compare(args)
    try:
        results = run_benches(bench_ids=args.only, seed=args.seed,
                              quick=args.quick)
    except ValueError as exc:
        print(f"repro bench: {exc}", file=sys.stderr)
        return 2
    doc, path = write_bench_json(results, path=args.out, seed=args.seed,
                                 quick=args.quick)
    if path == "-":
        return 0  # the JSON document *is* the stdout output
    t = Table(
        f"benchmark export (seed={args.seed}"
        f"{', quick' if args.quick else ''})",
        ["bench", "metric", "value"],
    )
    for bid, metrics in results.items():
        for metric, value in metrics.items():
            t.add(bid, metric, value)
    t.show()
    print(f"wrote {path} (git_rev={doc['git_rev']})")
    return 0


def _bench_compare(args) -> int:
    """``bench --compare OLD NEW``: diff two BENCH_*.json documents and
    gate on equality (exit 1 when any value changed).  Does not run
    any benchmark."""
    import json as _json

    from repro.obs.compare import CompareError, compare_files, render_report

    old_path, new_path = args.compare
    try:
        report = compare_files(old_path, new_path)
    except CompareError as exc:
        print(f"repro bench --compare: {exc}", file=sys.stderr)
        return 2
    if args.json is not None:
        payload = _json.dumps(report, indent=2, sort_keys=True)
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w") as fh:
                fh.write(payload + "\n")
    if args.json != "-":
        print(render_report(report))
    return 1 if report["status"] == "changed" else 0


def _trace_graph(args):
    """The (CausalGraph, descriptive label) for the trace command."""
    from repro.obs.causal import CausalGraph

    if args.jsonl:
        from repro.sim.trace import TraceLog

        with open(args.jsonl) as fh:
            log = TraceLog.from_jsonl(fh)
        return CausalGraph.from_trace(log), args.jsonl
    from repro.workloads.rpc import run_rpc_workload

    r = run_rpc_workload(args.kernel, payload_bytes=args.payload,
                         count=args.count, seed=args.seed)
    label = (f"{args.kernel} rpc payload={args.payload} "
             f"count={args.count} seed={args.seed}")
    return CausalGraph.from_trace(r.trace), label


def _cmd_trace(args) -> int:
    from repro.obs.causal import chrome_trace_json, waterfall

    graph, label = _trace_graph(args)
    tids = graph.traces()
    if not tids:
        print("repro trace: no spans in this trace", file=sys.stderr)
        return 2
    if args.chrome:
        payload = chrome_trace_json(graph)
        if args.chrome == "-":
            print(payload)
        else:
            with open(args.chrome, "w") as fh:
                fh.write(payload + "\n")
            print(f"wrote {args.chrome} ({len(tids)} traces)")
    if args.critical_path:
        print(waterfall(graph, tids[-1]))
        print()
        t = Table(
            f"critical path of trace {tids[-1]} ({label})",
            ["t0 ms", "t1 ms", "layer", "segment", "host"],
        )
        for seg in graph.critical_path(tids[-1]):
            t.add(seg.t0, seg.t1, seg.layer, seg.name, seg.host)
        t.show()
    if args.by_layer or not (args.chrome or args.critical_path):
        per = graph.by_layer(tids)
        total = graph.total_ms(tids)
        t = Table(
            f"critical-path latency by layer ({label}; "
            f"{len(tids)} traces incl. warm-up)",
            ["layer", "total ms", "ms per rpc", "share"],
        )
        for layer, ms in sorted(per.items(), key=lambda kv: -kv[1]):
            t.add(layer, ms, ms / len(tids),
                  ms / total if total else 0.0)
        t.add("(total)", total, total / len(tids), 1.0)
        t.show()
    return 0


def _fault_plan(scenario: str, quick: bool, **lossy):
    """The `FaultPlan` of a ``chaos`` / ``top`` scenario (None when
    clean) and the label their tables print; ``lossy`` overrides
    `lossy_plan`'s drop and duplication defaults."""
    from repro.workloads.chaos import lossy_plan, partitioned_plan

    if scenario == "lossy":
        plan = lossy_plan(**lossy)
        return plan, f"lossy drop={plan.spec.drop} dup={plan.spec.dup}"
    if scenario == "clean":
        return None, "clean"
    return partitioned_plan(quick=quick), "partition client<->primary"


def _cmd_chaos(args) -> int:
    from repro.experiments.contracts import chaos_metrics, chaos_table

    plan, label = _fault_plan(args.scenario, args.quick,
                              drop=args.drop, dup=args.dup)
    kinds = [args.kernel] if args.kernel else registered_kernels()
    chaos_table(
        f"fault recovery under {label} "
        f"(count={args.count}, seed={args.seed})",
        kinds, chaos_metrics(kinds, args.count, args.seed, plan),
    ).show()
    return 0


def _cmd_flight(args) -> int:
    from repro.obs.flight import describe_flight_dump

    paths = list(args.dumps)
    if args.demo:
        from repro.workloads.chaos import (
            chaos_policy,
            partitioned_plan,
            run_chaos_workload,
        )

        recorders = []
        run_chaos_workload(
            args.kernel, count=12, seed=args.seed,
            plan=partitioned_plan(quick=True), policy=chaos_policy(),
            sim_backend=args.sim_backend,
            instrument=lambda cluster: recorders.append(
                cluster.install_flight_recorder(args.out)
            ),
        )
        demo_dumps = recorders[0].dumps
        if not demo_dumps:
            print("repro flight: demo run produced no dumps",
                  file=sys.stderr)
            return 2
        for path in demo_dumps:
            print(f"wrote {path}")
        paths.extend(str(p) for p in demo_dumps)
    if not paths:
        print("repro flight: no dumps given (pass DUMP paths or --demo)",
              file=sys.stderr)
        return 2
    for i, path in enumerate(paths):
        if i:
            print()
        try:
            print(describe_flight_dump(path, tail=args.tail))
        except (OSError, ValueError) as exc:
            print(f"repro flight: {exc}", file=sys.stderr)
            return 2
    return 0


def _top_scale(args) -> int:
    """`top --scenario scale`: per-window telemetry of the E16 sharded
    workload.  Every shard keeps its own windowed `TimeSeries`; the
    merged series (`TimeSeries.merged`) is what gets rendered — not
    shard 0's slice."""
    from repro.workloads.scale import run_scale

    r = run_scale(
        args.sim_backend, args.shards, clients=args.clients,
        requests=2, seed=args.seed, window_ms=args.window,
    )
    ts = r.timeseries  # a run given ``window_ms`` always has one
    t = Table(
        f"per-window scale telemetry on {args.sim_backend} "
        f"(shards={args.shards}, clients={args.clients}, "
        f"window={args.window:g} ms, seed={args.seed})",
        ["t0 ms", "completed", "goodput/s", "mean rtt ms", "max rtt ms",
         "remote", "dropped", "retries", "moves"],
    )
    for w in ts.windows():
        t0, _ = ts.window_span(w)
        rtt = ts.get(w, "scale.rtt")
        t.add(
            t0,
            ts.value(w, "scale.completed"),
            ts.rate_per_sec(w, "scale.completed"),
            rtt.mean if rtt else 0.0,
            rtt.maximum if rtt else 0.0,
            ts.value(w, "scale.remote"),
            ts.value(w, "scale.dropped"),
            ts.value(w, "scale.retries"),
            ts.value(w, "scale.moves"),
        )
    t.show()
    print(f"{r.events} events across {r.shards} shard(s); "
          f"digest {r.digest[:16]}")
    return 0


def _cmd_top(args) -> int:
    from repro.workloads.chaos import chaos_policy, run_chaos_workload

    if args.scenario == "scale":
        return _top_scale(args)
    plan, label = _fault_plan(args.scenario, args.quick)
    series = []
    run_chaos_workload(
        args.kernel, count=args.count, seed=args.seed,
        plan=plan, policy=chaos_policy() if plan is not None else None,
        sim_backend=args.sim_backend,
        instrument=lambda cluster: series.append(
            cluster.install_timeseries(args.window)
        ),
    )
    ts = series[0]
    t = Table(
        f"per-window telemetry on {args.kernel} under {label} "
        f"(window={args.window:g} ms, count={args.count}, seed={args.seed})",
        ["t0 ms", "ok ops", "goodput/s", "mean rtt ms", "max rtt ms",
         "fault drops", "retries", "failovers"],
    )
    for w in ts.windows():
        t0, _ = ts.window_span(w)
        rtt = ts.get(w, "rpc.roundtrip")
        t.add(
            t0,
            rtt.count if rtt else 0,
            (rtt.count * 1000.0 / args.window) if rtt else 0.0,
            rtt.mean if rtt else 0.0,
            rtt.maximum if rtt else 0.0,
            ts.value(w, "faults.partition_dropped")
            + ts.value(w, "faults.dropped"),
            ts.value(w, "recovery.retries"),
            ts.value(w, "recovery.failovers"),
        )
    t.show()
    return 0


def _cmd_net_serve(args) -> int:
    from repro.net.__main__ import main as serve

    return serve(args.argv, prog="repro net serve")


def _cmd_net_load(args) -> int:
    from repro.core.recovery import RecoveryPolicy
    from repro.net.load import run_load

    policy = RecoveryPolicy(
        timeout_ms=args.timeout_ms, max_retries=args.retries, jitter_frac=0.0,
    )
    r = run_load(args.endpoints, clients=args.clients,
                 requests=args.requests, payload_bytes=args.payload,
                 policy=policy)
    t = Table(
        f"real-transport load: {args.clients} clients x "
        f"{args.requests} requests",
        ["quantity", "value"],
    )
    t.add("issued", r.issued)
    t.add("completed", r.completed)
    t.add("exhausted", r.exhausted)
    t.add("retries", r.retries)
    t.add("failovers", r.failovers)
    t.add("wall s", r.wall_s)
    t.add("throughput /s", r.throughput_per_s)
    t.add("rtt mean ms", r.rtt.mean)
    t.add("rtt p99 ms", r.rtt.percentile(99.0))
    t.show()
    if not r.exactly_once:
        print("repro net load: accounting broke exactly-once "
              f"(completed {r.completed} + exhausted {r.exhausted} "
              f"!= issued {r.issued})", file=sys.stderr)
        return 1
    return 0


def _cmd_sizes(args) -> int:
    t = Table(
        "LYNX runtime package sizes (kernel-specific half)",
        ["kernel", "logical loc", "branches"],
    )
    for kind in registered_kernels():
        stats = runtime_package_stats(kind)
        t.add(kind, stats.kernel_specific_loc,
              stats.kernel_specific_branches)
    special = charlotte_special_case_stats()
    t.add("charlotte special cases", special.logical_loc, special.branches)
    t.show()
    t = Table(
        "src/repro by budgeted area (SIZE_BUDGETS, tests/analysis)",
        ["area", "logical loc", "branches"],
    )
    for area, size in area_sizes().items():
        t.add(area, *size)
    t.show()
    return 0


def _add_commands(sub, commands: dict) -> None:
    """One subparser per row of ``commands``: name -> (handler,
    `add_parser` keywords, its arguments as ``(flag, spec)`` pairs)."""
    for name, (fn, kw, arguments) in commands.items():
        p = sub.add_parser(name, **kw)
        for flag, spec in arguments:
            p.add_argument(flag, **spec)
        p.set_defaults(fn=fn)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LYNX / Charlotte / SODA / Chrysalis reproduction "
        "(Scott, ICPP 1986)",
    )

    # the flags several subcommands share, each declared once
    def kernel(default, **kw):
        return "--kernel", dict(choices=registered_kernels(),
                                default=default, **kw)

    def sim_backend(help):
        return "--sim-backend", dict(choices=registered_sim_backends(),
                                     default="global", help=help)

    def count(default):
        return "--count", dict(type=int, default=default)

    def quick(help="the short partition window / smoke counts"):
        return "--quick", dict(action="store_true", help=help)

    seed = "--seed", dict(type=int, default=0)

    def payload(help):
        return "--payload", dict(type=int, default=0, help=help)

    sub = parser.add_subparsers(dest="command", required=True)
    _add_commands(sub, {
        "rpc": (_cmd_rpc, dict(
            help="run the simple-remote-operation workload"), [
            kernel("chrysalis"),
            payload("bytes each way (paper used 0 and 1000)"),
            count(10), seed]),
        "sweep": (_cmd_sweep, dict(
            help="Charlotte-vs-SODA payload sweep (E4)"), [seed]),
        "migrate": (_cmd_migrate, dict(
            help="dormant-link migration + repair"), [
            kernel("soda"),
            ("--members", dict(type=int, default=3)),
            ("--hops", dict(type=int, default=5)),
            ("--loss", dict(type=float, default=None, help="SODA broadcast "
                            "loss probability (SODA only)")),
            ("--cache", dict(type=int, default=None, help="SODA moved-link "
                             "cache size (SODA only)")),
            seed]),
        "chaos": (_cmd_chaos, dict(
            help="fault injection + recovery: clean vs faulted goodput "
                 "(E14)"), [
            kernel(None, help="one backend (default: all registered "
                              "kernels)"),
            ("--scenario", dict(choices=("partition", "lossy"),
                                default="partition")),
            ("--drop", dict(type=float, default=0.2, help="per-message "
                            "drop probability (lossy scenario)")),
            ("--dup", dict(type=float, default=0.1, help="per-message "
                           "duplication probability (lossy)")),
            count(30), quick(), seed]),
        "sizes": (_cmd_sizes, dict(
            help="runtime package complexity (E2) and the size of every "
                 "area of the tree"), []),
        "bench": (_cmd_bench, dict(
            help="run every registered experiment (E1..E17, A1..A5), "
                 "hold each to the paper's claims and write "
                 "BENCH_*.json"), [
            quick("smoke-size the E16/E17 populations (same schema; "
                  "every other bench has one size)"),
            seed,
            ("--out", dict(default=None, help="output path (default: the "
                           "committed baseline's name at the repo root; "
                           "'-' writes the JSON to stdout)")),
            ("--only", dict(nargs="+", metavar="BENCH", type=str.upper,
                            help="subset of the bench ids (unknown names "
                                 "exit 2 and list the valid ones)")),
            ("--compare", dict(nargs=2, metavar=("OLD", "NEW"), default=None,
                               help="diff two BENCH_*.json documents "
                                    "instead of running benchmarks; exits 1 "
                                    "when any value changed "
                                    "(docs/PERFORMANCE.md)")),
            ("--json", dict(default=None, metavar="OUT", help="with "
                            "--compare: write the repro.bench-compare "
                            "report JSON ('-' for stdout)"))]),
        "flight": (_cmd_flight, dict(
            help="inspect flight-recorder black-box dumps "
                 "(repro.obs.flight)"), [
            ("dumps", dict(nargs="*", metavar="DUMP",
                           help="flight dump JSONL files to inspect")),
            ("--demo", dict(action="store_true", help="run a quick "
                            "partitioned chaos workload with a flight "
                            "recorder installed and inspect its dumps")),
            kernel("charlotte", help="backend for --demo"),
            sim_backend("simulation engine for --demo (default: global)"),
            ("--out", dict(default="flight", metavar="DIR",
                           help="--demo dump directory (default: ./flight)")),
            ("--tail", dict(type=int, default=20,
                            help="trailing events to show per dump")),
            seed]),
        "top": (_cmd_top, dict(
            help="per-window goodput/latency/fault report over simulated "
                 "time (repro.obs.timeseries)"), [
            kernel("charlotte"),
            ("--scenario", dict(choices=("partition", "lossy", "clean",
                                         "scale"), default="partition")),
            sim_backend("simulation engine (default: global); with "
                        "--scenario scale the per-shard series are merged "
                        "before rendering"),
            ("--shards", dict(type=int, default=4,
                              help="shard count for --scenario scale")),
            ("--clients", dict(type=int, default=2000, help="client "
                               "population for --scenario scale")),
            ("--window", dict(type=float, default=100.0,
                              help="window width in simulated ms")),
            count(30), quick(), seed]),
        # a group: `net serve` and `net load` follow
        "net": (None, dict(
            help="real-transport processes: node server + wall-clock load "
                 "generator (repro.net)"), []),
        "trace": (_cmd_trace, dict(
            help="causal span tracing: critical-path latency attribution"), [
            kernel("charlotte"),
            payload("bytes each way for the traced RPC workload"),
            count(5), seed,
            ("--jsonl", dict(default=None, metavar="FILE", help="analyse a "
                             "saved TraceLog JSONL instead of running the "
                             "RPC workload")),
            ("--chrome", dict(default=None, metavar="OUT", help="write Chrome "
                              "trace-event JSON (Perfetto / "
                              "chrome://tracing; '-' for stdout)")),
            ("--critical-path", dict(action="store_true", help="print the "
                                     "waterfall + critical path of the "
                                     "last trace")),
            ("--by-layer", dict(action="store_true", help="print the "
                                "per-layer attribution table (default when "
                                "no other output is selected)"))]),
    })
    net = sub.choices["net"].add_subparsers(dest="net_command", required=True)
    _add_commands(net, {
        # everything after ``serve`` goes verbatim to the node's own
        # parser (`repro.net.__main__`): with no prefix char, nothing
        # here is an option, ``--help`` included
        "serve": (_cmd_net_serve, dict(
            prefix_chars="\0", add_help=False,
            help="run one node server process, as python -m repro.net "
                 "(serve --help lists its options)"), [
            ("argv", dict(nargs=argparse.REMAINDER))]),
        "load": (_cmd_net_load, dict(
            help="drive concurrent client coroutines at node servers with "
                 "wall-clock timeout/retry/failover"), [
            ("endpoints", dict(nargs="+", metavar="ENDPOINT",
                               help="server addresses (UDS path or "
                                    "host:port), in failover order")),
            ("--clients", dict(type=int, default=8)),
            ("--requests", dict(type=int, default=4,
                                help="requests per client")),
            ("--payload", dict(type=int, default=32)),
            ("--timeout-ms", dict(type=float, default=1000.0, help="recovery-"
                                  "policy first-attempt timeout")),
            ("--retries", dict(type=int, default=3, help="recovery-policy "
                               "retransmissions per address"))]),
    })
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
