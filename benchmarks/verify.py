"""One-command observability smoke check (make-verify style):

    PYTHONPATH=src python benchmarks/verify.py [--out DIR]
                                               [--sim-backend NAME]

Runs ``python -m repro lint --deep`` (the determinism & layering pass
*and* the whole-program rules must be clean before anything is
measured, and the deep pass must finish inside a wall budget so the
analysis never becomes the slow stage), then ``python -m repro trace
--selftest`` (span trees, critical-path coverage and the Chrome export
on every registered kernel), then one
zero-byte RPC on every backend in the kernel registry (so a freshly
registered backend cannot silently miss the smoke net), then a seeded
lossy fault-recovery run per backend (messages must actually drop,
recovery must actually fire, and goodput must stay positive), then a
sharded scale smoke on every engine in the `repro.sim.backends`
registry (each run's digest must match the ``global`` oracle's), then
a real-transport smoke (one spawned node process, real sockets, one
forced retry — exactly-once accounting must hold; hosts that forbid
sockets skip it with the reason), followed by ``python -m repro bench
--quick`` (the full BENCH_*.json export at smoke counts), failing on
the first non-zero step.
``--sim-backend NAME`` pins the scale smoke to one registered engine;
unknown names exit non-zero, same as an unknown ``bench --only`` id.  Tier-1 covers the same ground
piecewise; this script is the single command to confirm the whole
observability pipeline works in a fresh checkout.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
from typing import List, Optional

#: wall budget for the full `lint --deep` pass over the shipped tree —
#: parse + link + four interprocedural rules; generous next to the
#: bench stages, tight enough to catch an accidentally quadratic rule
LINT_DEEP_BUDGET_S = 30.0


def main(argv: Optional[List[str]] = None) -> int:
    from repro.cli import main as repro_main

    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default=None,
                    help="directory for BENCH_verify.json "
                         "(default: a fresh temp dir)")
    ap.add_argument("--sim-backend", default=None, metavar="NAME",
                    help="pin the scale smoke to one repro.sim.backends "
                         "engine (default: smoke every registered "
                         "backend)")
    args = ap.parse_args(argv)
    out_dir = args.out or tempfile.mkdtemp(prefix="repro-verify-")

    from repro.core.api import registered_sim_backends, sim_backend_profile

    if args.sim_backend is not None:
        try:
            sim_backend_profile(args.sim_backend)
        except ValueError as exc:
            print(f"verify: {exc}", file=sys.stderr)
            return 2

    t0 = time.perf_counter()
    rc = repro_main(["lint", "--deep"])
    elapsed = time.perf_counter() - t0
    if rc != 0:
        print("verify: lint --deep FAILED", file=sys.stderr)
        return rc
    if elapsed > LINT_DEEP_BUDGET_S:
        print(f"verify: lint --deep took {elapsed:.1f}s > "
              f"{LINT_DEEP_BUDGET_S:.0f}s budget — the whole-program "
              f"pass may not become the slow stage", file=sys.stderr)
        return 1
    print(f"verify: lint --deep ok in {elapsed:.1f}s "
          f"(budget {LINT_DEEP_BUDGET_S:.0f}s)")

    rc = repro_main(["trace", "--selftest"])
    if rc != 0:
        print("verify: trace --selftest FAILED", file=sys.stderr)
        return rc

    # one RPC on every backend the registry knows about — including
    # ones registered after this script was written
    from repro.core.api import registered_kernels
    from repro.workloads.rpc import run_rpc_workload

    for kind in registered_kernels():
        try:
            r = run_rpc_workload(kind, 0, count=1)
        except Exception as exc:  # noqa: BLE001 - smoke check reports all
            print(f"verify: rpc smoke FAILED on {kind}: {exc}",
                  file=sys.stderr)
            return 1
        if not r.rtts or r.mean_ms <= 0.0:
            print(f"verify: rpc smoke on {kind} returned no round trip",
                  file=sys.stderr)
            return 1
        print(f"verify: rpc smoke ok on {kind} ({r.mean_ms:.3f} ms)")

    # fault-recovery smoke: under a seeded lossy plan every backend
    # must lose messages, recover them its own way (kernel retransmit
    # vs runtime retry), and still complete every operation
    from repro.core.api import kernel_profile
    from repro.workloads.chaos import (
        chaos_policy,
        lossy_plan,
        run_chaos_workload,
    )

    for kind in registered_kernels():
        try:
            c = run_chaos_workload(kind, count=8, seed=1,
                                   plan=lossy_plan(), policy=chaos_policy())
        except Exception as exc:  # noqa: BLE001 - smoke check reports all
            print(f"verify: fault smoke FAILED on {kind}: {exc}",
                  file=sys.stderr)
            return 1
        placement = kernel_profile(kind).capabilities.recovery_placement
        dropped = (c.counters.get("faults.messages_lost", 0)
                   + c.counters.get("faults.dropped", 0))
        retries = (c.counters.get("recovery.retries", 0)
                   + c.counters.get("recovery.reply_retries", 0))
        retransmits = c.counters.get("faults.kernel_retransmits", 0)
        recovered = retransmits if placement == "kernel" else retries
        if c.completed != c.count or c.goodput_per_s <= 0.0:
            print(f"verify: fault smoke on {kind} lost operations "
                  f"({c.completed}/{c.count})", file=sys.stderr)
            return 1
        if dropped < 1 or recovered < 1:
            print(f"verify: fault smoke on {kind} injected no loss or "
                  f"recovered nothing (dropped={dropped}, "
                  f"recovered={recovered})", file=sys.stderr)
            return 1
        print(f"verify: fault smoke ok on {kind} ({placement} recovery, "
              f"{dropped:.0f} dropped, {recovered:.0f} resent, "
              f"{c.goodput_per_s:.1f} op/s)")

    # sharded-engine smoke: the same seeded scale run on every engine
    # in the backend registry (or the one pinned by --sim-backend)
    # must reproduce the global oracle's digest bit for bit
    from repro.workloads.scale import run_scale

    sim_backends = ([args.sim_backend] if args.sim_backend is not None
                    else list(registered_sim_backends()))
    oracle = run_scale("global", 2, clients=64, requests=2, seed=1)
    for name in sim_backends:
        try:
            r = run_scale(name, 2, clients=64, requests=2, seed=1)
        except Exception as exc:  # noqa: BLE001 - smoke check reports all
            print(f"verify: sim-backend smoke FAILED on {name}: {exc}",
                  file=sys.stderr)
            return 1
        if r.events <= 0 or r.completed <= 0:
            print(f"verify: sim-backend smoke on {name} fired no events",
                  file=sys.stderr)
            return 1
        if r.digest != oracle.digest:
            print(f"verify: sim-backend smoke on {name} diverged from "
                  f"the global oracle (digest {r.digest[:16]} != "
                  f"{oracle.digest[:16]})", file=sys.stderr)
            return 1
        print(f"verify: sim-backend smoke ok on {name} "
              f"({r.events} events, digest {r.digest[:16]})")

    # real-transport smoke: one spawned node process, a few client
    # coroutines through real sockets, one forced retry — the measured
    # path of the E17 bench at the smallest size that still proves
    # exactly-once (completed + exhausted == issued, the retransmission
    # absorbed as a server-side duplicate, never re-executed)
    from repro.net import TransportUnavailable
    from repro.net.load import query_stats, run_load
    from repro.net.supervisor import NodeSupervisor

    try:
        with NodeSupervisor() as sup:
            node = sup.spawn("verify", drop_first=1)
            load = run_load([node.endpoint], clients=2, requests=2)
            stats = query_stats(node.endpoint)
    except (TransportUnavailable, OSError) as exc:
        print(f"verify: real-transport smoke skipped "
              f"(this host forbids sockets/subprocesses: {exc})")
        load = stats = None
    if load is not None:
        if not load.exactly_once or load.completed != load.issued:
            print(f"verify: real-transport smoke broke exactly-once "
                  f"(issued={load.issued}, completed={load.completed}, "
                  f"exhausted={load.exhausted})", file=sys.stderr)
            return 1
        if load.retries < 1 or stats["duplicates"] < 1:
            print(f"verify: real-transport smoke forced no retry "
                  f"(retries={load.retries}, "
                  f"duplicates={stats['duplicates']})", file=sys.stderr)
            return 1
        if stats["executed_unique"] != load.issued:
            print(f"verify: real-transport smoke re-executed a request "
                  f"(unique={stats['executed_unique']} != "
                  f"issued={load.issued})", file=sys.stderr)
            return 1
        print(f"verify: real-transport smoke ok ({load.completed} ops, "
              f"{load.retries} retried, {stats['duplicates']} duplicate(s) "
              f"absorbed, {load.throughput_per_s:.0f} op/s)")

    bench_path = os.path.join(out_dir, "BENCH_verify.json")
    rc = repro_main(["bench", "--quick", "--out", bench_path])
    if rc != 0:
        print("verify: bench --quick FAILED", file=sys.stderr)
        return rc

    print(f"verify: ok ({bench_path})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
