#!/usr/bin/env python3
"""The repository's benchmark: one command, every metric by name.

    python3 perf/run.py [--seed N] [--trace] [--smoke] [--out FILE]

runs one *set*: 7 rounds, each one fresh-process pass of every workload
in an order rotated by one per round, and prints every end-to-end metric
with unit, median, quartiles and n per workload (times in calibrated
seconds, the raw clock readings beside them).  With ``--trace`` it
makes the separate traced run instead (one end-to-end and one traced
pass per workload, plus the layer probes), prints the per-layer table
and writes ``perf/out/trace-<workload>.jsonl``.  Outputs are verified
against ``perf/golden.json`` and against each other; any failed check
exits non-zero.

    python3 perf/run.py --workload W --seed N --seconds S --trace 0|1

is the same benchmark one workload at a time, as the driver of
`BENCHMARK.json` runs it: passes of W repeat until S seconds have gone,
and the last line of output is one JSON object.

See perf/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from time import perf_counter
from typing import Callable, Dict, List, Optional

import contract
from stats import fmt, spread, summarize

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
GOLDEN = os.path.join(HERE, "golden.json")

ROUNDS = 7
SMOKE_ROUNDS = 2
#: seeds whose exact results are committed in golden.json
GOLDEN_SEEDS = range(12)
#: wall seconds one pass may take before it is killed and counted failed
PASS_TIMEOUT_S = 120.0
MIN_PASSES = 3


class CheckFailed(Exception):
    """An output check failed; the message names what and where."""


def bootstrap() -> None:
    """Measure this checkout's ``src/`` and nothing else."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"perf/run.py: {SRC}/repro not found: there is no program "
                 "beside perf/ to measure")
    sys.path.insert(0, SRC)


def pin_to_one_cpu() -> None:
    """Run this process, and every process it spawns, on one CPU.

    With generator and node on separate cores of a 2-vCPU sandbox an
    identical `net_small` pass ranged 20k-61k ops/s (CPU time per op
    moved 16-32 us with it); sharing one core it ranged 28.2k-30.4k.  So
    every pass is pinned: it measures CPU cost per op, which repeats,
    not how the host scheduled two busy processes."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # no affinity control on this host: measure unpinned


# ----------------------------------------------------------------------
# the child: one pass in a fresh process
# ----------------------------------------------------------------------
def child(args: argparse.Namespace) -> int:
    started = perf_counter()
    pin_to_one_cpu()
    bootstrap()
    import passes
    from spans import Recorder

    if args.traced:
        import layers
    import_s = perf_counter() - started
    rec = Recorder(f"{args.run_pass}:{args.seed}", enabled=args.traced)
    out = passes.run_pass(args.run_pass, args.seed, args.smoke, rec)
    if out["skipped"] is None:
        out["setup_s"] = out.pop("epoch") - args.spawned
        out["import_s"] = import_s
        if args.traced:
            out["layer"].update(layers.probe(
                args.run_pass, args.seed, args.smoke, out["layer"], rec))
            os.makedirs(OUT, exist_ok=True)
            rec.write(os.path.join(OUT, f"trace-{args.run_pass}.jsonl"))
    print(json.dumps(out))
    return 0


def spawn_pass(workload: str, seed: int, smoke: bool, traced: bool) -> dict:
    """Run one pass in a fresh interpreter and return what it reports.

    The child leads its own session, and the whole session is killed
    when it ends, fails or times out, so a node process can never
    outlive its pass."""
    cmd = [sys.executable, os.path.abspath(__file__), "--pass", workload,
           "--seed", str(seed), "--spawned", repr(time.time())]
    cmd += ["--smoke"] * smoke + ["--traced"] * traced
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise CheckFailed(
            f"{workload}: pass exceeded {PASS_TIMEOUT_S:.0f} s") from None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        raise CheckFailed(f"{workload}: pass exited {proc.returncode}")
    return json.loads(stdout.decode().strip().splitlines()[-1])


def repeat_for(seconds: float, at_least: int,
               make: Callable[[], object]) -> list:
    """Call ``make`` ``at_least`` times, then for as long as one more
    call of the length seen so far still fits in ``seconds``."""
    began = perf_counter()
    out: list = []
    while (len(out) < at_least
           or (perf_counter() - began) * (1 + 1 / len(out)) < seconds):
        out.append(make())
    return out


# ----------------------------------------------------------------------
# from passes to metrics, and the output checks
# ----------------------------------------------------------------------
TIMED = ("setup_s", "ops_per_s", "cpu_us_per_op")


def calibrated(seconds: float, calib_s: float) -> float:
    """``seconds`` in *calibrated* seconds: divided by how much slower
    than nominal the calibration loop ran right around them.  The
    sandbox's speed moves by up to 1.8x for minutes at a time, equally
    for the loop and for the simulator (r = 0.96 on `rpc_null`); what is
    left after dividing it out repeats (README, "Protocol")."""
    from passes import CALIB_NOMINAL_S

    return seconds * CALIB_NOMINAL_S / calib_s


def end_to_end(p: dict, raw: bool = False) -> Dict[str, Optional[float]]:
    """The end-to-end metrics of one pass, times in calibrated seconds
    (``raw``: as the clock read them); all null when it was skipped."""
    if p["skipped"] is not None:
        return dict.fromkeys(TIMED + ("peak_rss_mb",) + contract.EXACT)
    scale = (lambda t, c: t) if raw else calibrated
    ops = max(p["ops"], 1)
    wall = sum(scale(seg[1], seg[3]) for seg in p["segments"])
    cpu = sum(scale(seg[2], seg[3]) for seg in p["segments"])
    return {
        "setup_s": scale(p["setup_s"], p["setup_calib_s"]),
        "ops_per_s": p["ops"] / wall,
        "cpu_us_per_op": cpu * 1e6 / ops,
        "peak_rss_mb": p["rss_mb"],
        "sim_ms_per_op": p["sim_ms_per_op"],
        "wire_msgs_per_op": p["wire_msgs_per_op"],
        "failed_frac": p["failed"] / p["attempted"],
    }


def summarize_run(passes: List[dict]) -> Dict[str, dict]:
    """Per end-to-end metric, over the passes of one run: median (the
    run's value), quartiles, range and n; for the timed metrics also
    the median of the raw clock readings."""
    values = [end_to_end(p) for p in passes]
    raws = [end_to_end(p, raw=True) for p in passes]
    out = {}
    for m in contract.end_to_end():
        name = m["name"]
        out[name] = dict(summarize([v[name] for v in values]), unit=m["unit"])
        if name in TIMED:
            out[name]["raw_median"] = summarize(
                [v[name] for v in raws])["median"]
    return out


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def _differences(where: str, got: dict, want: dict) -> List[str]:
    out = []
    for key in sorted(set(got) | set(want)):
        a, b = got.get(key), want.get(key)
        if isinstance(a, dict) and isinstance(b, dict):
            out += _differences(f"{where} {key}", a, b)
        elif a != b:
            out.append(f"{where} {key}: got {a!r}, expected {b!r}")
    return out


def check(workload: str, seed: int, smoke: bool, passes: List[dict]) -> None:
    """Every pass must complete every op, reproduce the first pass's
    simulated results exactly and, on a committed seed, match
    golden.json.  Raises `CheckFailed` naming workload, kernel, field."""
    from passes import SIZES

    problems: List[str] = []
    live = [p for p in passes if p["skipped"] is None]
    for i, p in enumerate(live):
        if p["failed"]:
            problems.append(f"{workload} pass {i}: {p['failed']} of "
                            f"{p['attempted']} ops failed")
        problems += _differences(f"{workload} pass {i} vs pass 0:",
                                 p["exact"], live[0]["exact"])
    golden = load_golden()
    want = golden["seeds"].get(str(seed), {}).get(workload)
    if (live and want is not None and not smoke
            and golden["sizes"][workload] == SIZES["full"][workload]):
        problems += _differences(f"{workload} seed {seed} vs golden.json:",
                                 live[0]["exact"], want)
    if problems:
        raise CheckFailed("\n".join(problems[:20]))


def host_speed(passes: List[dict]) -> Dict[str, float]:
    """The calibration loop over a run's passes, in ms (1.0 = nominal):
    its median, and its interquartile spread — how fast the host was,
    and how unsteadily, while the run was made."""
    calib = summarize([seg[3] * 1e3 for p in passes for seg in p["segments"]])
    return {"bench.calib_ms": calib["median"],
            "bench.calib_spread": spread(calib)}


# ----------------------------------------------------------------------
# a traced run of one workload: the per-layer table
# ----------------------------------------------------------------------
def traced_run(workload: str, seed: int, smoke: bool,
               seconds: float = 0.0) -> Dict[str, object]:
    """Pairs of one end-to-end pass and one traced pass with the probes,
    repeated while another pair fits in ``seconds`` (at least one).
    Returns ``{"layer": name -> median over the pairs, "passes": [...]}``
    with every per-layer name of the contract present (0 where the
    layer does no work on this workload)."""
    pairs = repeat_for(seconds, 1, lambda: [
        spawn_pass(workload, seed, smoke, traced=False),
        spawn_pass(workload, seed, smoke, traced=True)])
    passes = [p for pair in pairs for p in pair]
    check(workload, seed, smoke, passes)
    layer = dict.fromkeys(contract.per_layer_units(), 0.0)
    if passes[0]["skipped"] is None:
        tables = []
        for plain, traced in pairs:
            got = dict(traced["layer"])
            got.update({k: v for k, v in end_to_end(plain).items()
                        if k in contract.EXACT and v is not None})
            got["bench.trace_overhead_frac"] = (
                1.0 - end_to_end(traced)["ops_per_s"]
                / end_to_end(plain)["ops_per_s"])
            got["bench.import_s"] = plain["import_s"]
            tables.append(got)
        unknown = sorted(set().union(*tables) - set(layer))
        if unknown:
            raise CheckFailed(f"{workload}: per-layer names missing from "
                              f"BENCHMARK.json: {unknown}")
        for name in tables[0]:
            layer[name] = summarize([t[name] for t in tables])["median"]
        layer.update(host_speed(passes))
    return {"layer": layer, "passes": passes}


# ----------------------------------------------------------------------
# driver mode: one workload, one JSON line
# ----------------------------------------------------------------------
def driver(args: argparse.Namespace) -> int:
    if args.workload not in contract.workloads():
        sys.exit(f"unknown workload {args.workload!r}; "
                 f"one of {', '.join(contract.workloads())}")
    doc = contract.load()
    if args.trace:
        run = traced_run(args.workload, args.seed, False, args.seconds)
        passes = run["passes"]
        units = contract.per_layer_units()
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in run["layer"].items()}
    else:
        passes = repeat_for(args.seconds, MIN_PASSES, lambda: spawn_pass(
            args.workload, args.seed, smoke=False, traced=False))
        check(args.workload, args.seed, False, passes)
        summary = summarize_run(passes)
        metrics = {m["name"]: {"value": summary[m["name"]]["median"],
                               "unit": m["unit"]}
                   for m in doc["end_to_end"]}
    if any(p["skipped"] for p in passes):
        sys.exit(f"{args.workload}: skipped: {passes[0]['skipped']}")
    print(json.dumps({
        "correct": True,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
    }))
    return 0


# ----------------------------------------------------------------------
# set mode: rotated rounds over every workload, the report, result.json
# ----------------------------------------------------------------------
def run_set(seed: int, smoke: bool) -> dict:
    names = contract.workloads()
    passes: Dict[str, List[dict]] = {w: [] for w in names}
    for r in range(SMOKE_ROUNDS if smoke else ROUNDS):
        shift = r % len(names)
        for w in names[shift:] + names[:shift]:
            passes[w].append(spawn_pass(w, seed, smoke, traced=False))
    result = {"workloads": {}}
    for w in names:
        check(w, seed, smoke, passes[w])
        live = [p for p in passes[w] if p["skipped"] is None]
        result["workloads"][w] = {
            "skipped": passes[w][0]["skipped"],
            "attempted": sum(p["attempted"] for p in live),
            "failed": sum(p["failed"] for p in live),
            "host": host_speed(live) if live else None,
            "metrics": summarize_run(passes[w]),
        }
    return result


def run_traced(seed: int, smoke: bool) -> dict:
    result = {"layers": {}}
    for w in contract.workloads():
        result["layers"][w] = traced_run(w, seed, smoke)["layer"]
    return result


def report(result: dict) -> None:
    for w, row in result.get("workloads", {}).items():
        note = f"  skipped: {row['skipped']}" if row["skipped"] else ""
        print(f"\n{w}  attempted {row['attempted']}  "
              f"failed {row['failed']}{note}")
        print(f"  {'metric':<18}{'unit':<8}{'median':>12}{'q1':>12}"
              f"{'q3':>12}{'n':>4}{'raw median':>14}")
        for name, m in row["metrics"].items():
            print(f"  {name:<18}{m['unit']:<8}{fmt(m['median']):>12}"
                  f"{fmt(m['q1']):>12}{fmt(m['q3']):>12}{m['n']:>4}"
                  f"{fmt(m.get('raw_median')):>14}")
        if row["host"]:
            print(f"  host: calibration loop {row['host']['bench.calib_ms']:.3f}"
                  f" ms (nominal 1), spread "
                  f"{row['host']['bench.calib_spread']:.0%}")
    units = contract.per_layer_units()
    layers = result.get("layers", {})
    if layers:
        names = list(layers)
        print(f"\n{'per-layer metric':<40}{'unit':<8}"
              + "".join(f"{w:>14}" for w in names))
        for name, unit in units.items():
            print(f"{name:<40}{unit:<8}"
                  + "".join(f"{fmt(layers[w][name]):>14}" for w in names))


def update_golden() -> int:
    """Rewrite golden.json from this checkout: the only way to change
    it.  Simulated results move only with the cost model, and a
    recalibration needs a benchmark PR of its own (README)."""
    from passes import SIZES, WORKLOADS

    sim = [w for w in WORKLOADS if w != "net_small"]
    doc = {"format": 1, "sizes": {w: SIZES["full"][w] for w in sim},
           "seeds": {}}
    for seed in GOLDEN_SEEDS:
        doc["seeds"][str(seed)] = {
            w: spawn_pass(w, seed, smoke=False, traced=False)["exact"]
            for w in sim
        }
        print(f"golden: seed {seed} done", file=sys.stderr)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1), help="make the traced run instead")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny op counts, 2 rounds: proves the plumbing")
    ap.add_argument("--out", default=os.path.join(OUT, "result.json"))
    ap.add_argument("--workload", help="driver mode: this workload only")
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="driver mode: repeat passes for this long")
    ap.add_argument("--update-golden", action="store_true")
    ap.add_argument("--pass", dest="run_pass", help=argparse.SUPPRESS)
    ap.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--spawned", type=float, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.run_pass:
        return child(args)
    bootstrap()
    try:
        if args.update_golden:
            return update_golden()
        if args.workload:
            return driver(args)
        result = run_traced(args.seed, args.smoke) if args.trace else \
            run_set(args.seed, args.smoke)
    except CheckFailed as exc:
        print(f"perf/run.py: FAILED\n{exc}", file=sys.stderr)
        return 1
    result.update(format=1, seed=args.seed, smoke=args.smoke)
    report(result)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print(f"\nwrote {os.path.relpath(args.out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
