"""Unit tests for the code-complexity accounting (E2's instrument)."""

import ast
from pathlib import Path

import pytest

import repro.charlotte.runtime
import repro.core.runtime
from repro.analysis.complexity import (
    CHARLOTTE_SPECIAL_CASES,
    _branches,
    _logical_lines,
    analyze_module,
    area_sizes,
    charlotte_special_case_stats,
    comparison,
    runtime_package_stats,
)


def test_analyze_module_counts_are_positive_and_stable():
    a = analyze_module(repro.core.runtime)
    b = analyze_module(repro.core.runtime)
    assert a.logical_loc == b.logical_loc > 100
    assert a.branches == b.branches > 20
    assert "LynxRuntimeBase" in a.units


def test_docstrings_do_not_count_as_logical_lines():
    import types

    mod = types.ModuleType("fake")
    src = '''
def f():
    """A very long docstring.

    Many lines of prose here that must not count.
    """
    return 1
'''
    tree = ast.parse(src)

    # def + return = 2 statements; the docstring Expr is skipped
    assert _logical_lines(tree) == 2
    assert _branches(tree) == 0


def test_special_case_units_exist_in_source():
    """The curated special-case list must stay in sync with the
    Charlotte runtime's actual function names."""
    mod = analyze_module(repro.charlotte.runtime)
    for name in CHARLOTTE_SPECIAL_CASES:
        assert name in mod.units, name


def test_special_case_stats_nonzero():
    s = charlotte_special_case_stats()
    assert s.logical_loc > 40
    assert s.branches > 5


def test_package_stats_shape():
    for kind in ("charlotte", "soda", "chrysalis"):
        stats = runtime_package_stats(kind)
        assert stats.kernel_specific_loc > 0
        assert stats.common_loc > 0
        assert 0.0 < stats.kernel_share < 1.0
        assert stats.total_loc == stats.kernel_specific_loc + stats.common_loc


def test_comparison_reproduces_paper_ordering():
    cmp_ = comparison()
    assert (
        cmp_["chrysalis"]["kernel_specific_loc"]
        < cmp_["charlotte"]["kernel_specific_loc"]
    )
    assert 0.0 < cmp_["charlotte"]["special_case_share_of_specific"] < 1.0


#: ROADMAP item 3's tree-wide size budget, one row per area of
#: `repro.analysis.complexity.SIZE_AREAS` — between them every module
#: of `src/repro`: `analyze_module` logical lines and branches summed
#: over the row's modules, as the PR that shrank it left them.  It
#: only ratchets down, so lower a row when a change shrinks the code
#: and do not raise one to admit growth.
#: `python -m repro sizes` prints the current numbers.
SIZE_BUDGETS = {
    # PR 13: one Engine, three drain policies (before: 733 / 215)
    # the dispatch profile, the trace hook, their stepped loop and the
    # uncalled `call_soon` go: `run` is `_drain`, `_merge` or the
    # window policy (before: 498 / 160)
    # a backend is a row: `BACKENDS` maps a name to its drain policy
    # beside `make_engine`; `SimBackendProfile`, its registration and
    # lookups and the three factories go (before: 446 / 142)
    "engine": (419, 141),
    # PR 15: real-asyncio is ideal plus a codec hook (before: 917 / 170)
    # PR 17: a layout codec, one server loop per wake-up, node stderr
    # kept (before: 621 / 116)
    # the node's per-client dedup windows (+16 / +5) are paid by one
    # retry loop in `load._Client` instead of two nested ones, by
    # supervisor checks that `Popen` already makes, and by two
    # supervisor accessors only tests called (before: 610 / 114)
    # a relocation, not growth: the node's `serve` parser (+19 / +1 with
    # its entry, `net/__main__.py`) left the `cli` row, which fell 7 / 1.
    # Paid for here all but 4 lines by `serve_forever` (folded into
    # the entry), a spawn command without the `--drop-first` branch,
    # `run_load`'s frozen default policy instead of a `None` check, the
    # unread `LoadReport.requests_per_client` and the test-only
    # `NodeProcess.alive`; the two rows together went 1,081 / 203 ->
    # 1,078 / 199 (before: 609 / 114)
    # the node's private dedup window goes: `NodeServer` keeps the
    # runtime's `SeqWindow` per client (before: 613 / 111)
    # unchanged: a load run's nonce and the `__bye__` that drops a
    # finished client's window (+6 / +1) are paid by `NodeProcess` as a
    # `NamedTuple`, the spawn environment in one expression, the
    # `query_stats` drain and the entry's `node` local
    # ideal's handoff yields its delay, importing no `sleep`
    # (before: 602 / 107)
    # the runtime class is `RUNTIME` and the kernel class `KERNEL`:
    # `make_runtime`, `runtime_costs` and `NetCluster._setup_hardware`
    # go, and the package re-exports nothing (before: 601 / 107)
    # unchanged: the node's `selectors` loop (`serve`, `_wake`,
    # `_accept` and the `answer` unit of work: +21 / +8 over the asyncio
    # half, -1 / 0 in the entry) is paid by the supervisor's READY wait
    # reading one line after one `select` instead of a polling buffer
    # loop with its own deadline clock, and by `stop_all` waiting
    # without a kill fallback, since a node runs no SIGTERM handler
    # (supervisor 93 / 18 -> 73 / 10)
    "net+ideal": (597, 107),
    # PR 16: bench owns only exact values, compare is equality
    # (before: 1,182 / 352)
    # PR 18: the eight bench bodies left for the experiment registry;
    # bench.py is the runner and the envelope (before: 1,020 / 292)
    # PR 19: `CausalGraph.by_host` had no caller (before: 783 / 230)
    # PR 20: unchanged — the one-frame `SpanTracker.emit` (+1 / +1) is
    # paid for by `_alloc_span` / `_record` and by `CausalGraph.root`
    # taking the first root instead of listing them all
    # a span record is a row built on read (`_span_event`); the
    # uncalled `CausalGraph.children` goes (before: 777 / 227)
    # `SpanContext` moves to `repro.core.wire`, beside the message that
    # carries it (before: 773 / 225)
    # telemetry keeps what a program reads: the Prometheus exporter,
    # the streaming JSONL writer and `load_trace`, `happens_before` and
    # the histogram's `bucket_bounds` / `to_dict` / `percentiles` go
    # (before: 769 / 225)
    # a flight dump is the trace log's tail and a trigger is
    # `TraceLog.alarm`: the recorder's own ring, its trace subscription,
    # `close`, `header` and the uncalled `trigger_events` / `prefix`
    # options go (before: 631 / 181)
    # a relocation, not growth: `Table` and `paper_vs_measured` came
    # from `repro.analysis.report` (49 / 18 there), less the JSON export
    # (`raw_rows`, `to_dict`) that only the deleted `.json` table twins
    # read (before: 620 / 178)
    # `_fmt(width=)` and `paper_vs_measured(extra_columns=)`, which no
    # caller set, go (before: 664 / 195)
    "obs": (664, 194),
    # PR 18: every paper experiment declared once.  Not growth: these
    # lines came from the 21 `benchmarks/bench_*.py` modules (which no
    # budget row counted) and the eight bodies the `obs` row lost — and
    # the `obs` row's drop is that move, not a saving.  The surface they
    # shared (obs/bench.py + this package + benchmarks/*.py) went
    # 1,475 / 302 -> 1,203 / 245.
    # `chaos_metrics` / `chaos_table` serve E14 and `repro chaos` alike;
    # a kernel's values are one dict (before: 950 / 162)
    # E5 and E10 building their `CostModel`s (+3) are paid by E13's
    # one-use `count` and by E15's `exact_pct` special case for an
    # exact rank, which its interpolation already returns
    # (before: 944 / 162)
    # the Linda exchange's producer yields its delay (before: 944 / 161)
    # a relocation, not growth: `PAPER` (1 / 0 of `costmodel`'s 67 / 0)
    # and E4's `ascii_plot` (52 / 18 in `repro.analysis.plot`) came
    # here; `table_files` lost its `.json` branch and is `table_text`
    # (before: 943 / 161)
    "experiments": (987, 179),
    # PR 19: core/runtime.py's op dispatch, staging and scatter get one
    # table and one owner each (802 / 229 -> 736 / 201); three one-value
    # options and an unused exception go (before: 1,808 / 358)
    # PR 20: `_pick_queue` takes the first eligible queue, `trace_msg`
    # tests `msg` once; the branch they free is `ArrayType.check`
    # refusing an `EndRef` (before: 1,734 / 328)
    # `EndState.unreceived_sent` was `len(outgoing)`; `_handle_op` and
    # `_spanned` inlined at their callers (before: 1,733 / 328)
    # `trace_msg` records a row of values, `_msg_event` builds it on
    # read (before: 1,731 / 327)
    # the package re-exports nothing; `SpanContext` comes from `obs`
    # (before: 1,730 / 327)
    # a spent `TimerWheel` bucket lets go of its event and handles
    # (+2), paid by the no-op `ClusterBase.close` and `release`'s
    # `None` check, which no bucket with a handle can reach
    # (before: 1,727 / 327)
    # `CrashMode` and the fault types import from `repro.sim.faults` in
    # one line each; `KERNEL_RETRANSMIT_MS` (+1) replaces the plan
    # knob and the `faults` local of `_spawn_kernel_retransmit`
    # (before: 1,727 / 326)
    # the link registry's unread transition log goes (before: 1,725 / 326)
    # one `SeqWindow` pair per end replaces three dedup tables and
    # `_cache_reply`; the uncalled `ClusterBase.result_of` and
    # `_block_point`'s dead `live_threads` test go (before: 1,718 / 326)
    # `ClusterBase.close`, the `with` form and dropping a caught kill's
    # traceback (+9 / +1) are paid by the unread `LynxThread.result` /
    # `error`, the uncalled `ProcessHandle.crashed` and the `Protocol`
    # import fallback no supported Python needs (before: 1,715 / 326)
    # `KernelProfile` drops `trace_events`, `cli_default_for` and
    # `cli_migrate_extras`, which only the CLI read (before: 1,714 / 324)
    # the block point runs in `main_generator` (asking `rt_runnable`
    # only of a runtime that overrides it), `_match_requests` folds into
    # `_deliver_pending`, and a send without a fault plane runs no frame
    # of `_transmit`; the branches these add are paid by `_rr` holding
    # exactly the refs of `ends` (two membership tests go) and by
    # `_cleanup` walking end states (before: 1,711 / 324)
    # the freeze is the runtime's `frozen_count` attribute: the
    # `rt_runnable` hook, its default and the dispatcher's override
    # test go (before: 1,698 / 324)
    # the recorder lives on the trace log (`TraceLog.flight`), so the
    # cluster's unread `flight` copy and `install_flight_recorder`'s
    # pass-through `**kw` go (before: 1,696 / 322)
    # a kernel profile names its cluster class, Linda adapter and raw
    # baseline as ``"module:Name"`` strings that `load` resolves: the
    # eleven loader functions, `load_cluster`, the unread `title` and
    # the uncalled `kernel_profiles` go; `TimerWheel` loses its
    # `passthrough` switch and `pending` count; `close` lets an
    # installed flight recorder go (+1) (before: 1,694 / 322)
    # the port keeps only what a backend varies: `rt_shutdown` (the
    # clean-up calls `runtime_exited`) and `runtime_costs` (the
    # cluster's `costs`) leave it, `make_runtime` becomes `RUNTIME`,
    # and `_install_process` and the one-value `lookahead_ms` option
    # go (before: 1,656 / 320)
    # a relocation, not growth: the calibrated hardware
    # `repro.core.costs` came from `repro.analysis.costmodel` (67 / 0
    # there), less `PAPER` (now in `repro.experiments`) and an unused
    # import; `install_flight_recorder` / `install_timeseries` lose the
    # three options no caller set (before: 1,645 / 320)
    # one retry schedule: `RecoveryPolicy.waits` replaces the per-retry
    # wait method, the multiplier field and the runtime's per-fire
    # policy re-reads, which pays for refusing a fault stance installed
    # after a spawn (before: 1,710 / 320)
    "core": (1706, 320),
    # PR 19: the version-1 trace reader goes (before: 674 / 128)
    # PR 20: a wait is one bound listener — `Task._wait_on`, `_fire`,
    # `fail_later` / `_safe_fail` go, `TraceLog.record` comes
    # (before: 673 / 128)
    # a wait on two futures is a tuple `Task` answers itself:
    # `first_of` and the uncalled `gather` go (before: 669 / 128)
    # a trace record is a row built on read: `TraceLog.defer` and the
    # `events` view come; `TraceLog.select` (test callers only) and the
    # uncalled `SimRandom.expovariate` / `shuffle` go (before: 640 / 125)
    # `SimRandom.random` / `uniform`, shadowed by the instance's bound
    # stream methods, go (before: 640 / 118)
    # one fault plane: the uncalled crash plan and its injector go
    # (`CrashMode` moves into `faults`), and the frozen `FaultPlan`
    # keeps `spec` and `partitions` — per-link overrides and their
    # lookup, `empty`, the verdict's partition flag and the retransmit
    # knob go, `_entered` / `_healed` become `_announce`
    # (before: 636 / 118)
    # a wait puts its one listener (`_on_settle`, which also answers a
    # tuple member) on the future itself and checks a tuple's members
    # without a set (+4 branches); paid by the sink loop of
    # `TraceLog.defer` without its guard, `PartitionWindow.severs`
    # without a `dst is None` test its set lookups make, and
    # `MetricSet.diff` / `latency` without a branch (before: 595 / 113)
    # a delay is the task's own timer (`Delay`, `_Timer`, the timed
    # wait in `_step`) and an answered tuple wait takes its listener
    # off the members left pending: tasks.py +20 / +5, with the
    # cooperative yield folded into `_step`'s last `defer`; paid by
    # `Future.is_settled`, which lost its callers, the uncalled
    # `NetworkModel.deliver` / `inflight`, `PartitionWindow.severs`
    # as one expression, `bind_timeseries` reading its sink as
    # `latency` does, `TraceLog.dump` without its empty-log test and
    # the lifelines drawn by one slice (before: 593 / 113)
    # `MetricSet.tree` / `diff` / `reset`, `LatencyRecorder.stddev` with
    # the Welford state it kept, and `LatencyRecorder.total`, which only
    # the Prometheus exporter read, go (before: 591 / 113)
    # one trace ring: `TraceLog`'s sinks, `attach` / `detach` and the
    # loop in `defer` go, `tail` and `alarm` come; the fault plane's
    # trace is required, so `_announce` tests nothing; the unread
    # `LatencyRecorder.__len__` and `MetricSet.latencies` go
    # (before: 548 / 104)
    "sim": (545, 103),
    # PR 19: first budgeted at its size then — 1,710 / 672 less the
    # unused `PackageStats.total_branches`, plus `area_sizes`, the
    # function this test and `repro sizes` share
    # one registry, one `repro lint`: SHARD001, SIM003 and API002 (and
    # the constant folder, callback edges, mutable/constant tables and
    # reachability only they read) go with the second registry and
    # `--deep` (before: 1,721 / 677)
    # `ProgramGraph.main_calls`, read by no rule, goes (before: 1,145 / 405)
    # NET001, its call graph and the program scope go (before: 1,137 / 400)
    # the lint baseline goes: inline allows, policed by ALLOW001, do its
    # job (before: 792 / 273)
    # LAY002, SIM002 and OBS001 go: tier-1 fails each one's mutations
    # by running (before: 722 / 249)
    # the lint package goes: its five checks are plain tier-1 functions
    # (tests/analysis/lint_checks.py) and an exemption table replaces
    # the inline allows (before: 640 / 204)
    # `CostModel.default()` was `CostModel()` (before: 265 / 62)
    # `complexity` alone: the cost model left for `repro.core`, the
    # table for `repro.obs`, the plot and `PAPER` for
    # `repro.experiments`, and the package re-exports nothing
    # (before: 263 / 62)
    "analysis": (93, 26),
    # PR 19: first budgeted — 468 / 88 plus the area table of `sizes`
    # `net serve` forwards to the node's own parser, and argparse's
    # required group replaces the hand check (before: 472 / 89)
    # `lint --deep` goes: every run runs every rule (before: 465 / 88)
    # `figure2`, `linda` and `compare` (the shipped examples' job),
    # `trace --selftest` (test_causal's) and the lint baseline flags go
    # (before: 464 / 88)
    # `chaos` prints `chaos_table(chaos_metrics(...))` (before: 337 / 65)
    # `repro lint` goes with the lint package (before: 331 / 63)
    # the parser is one subcommand table with `--seed`, `--kernel`,
    # `--sim-backend`, `--count` and `--quick` declared once; `chaos`
    # and `top` share one scenario -> `FaultPlan` mapping; `migrate`
    # finds the knobs a cluster lacks by set difference; `top
    # --scenario scale` loses a time-series test no run can fail
    # (before: 311 / 58)
    "cli": (247, 57),
    # PR 19: set at their size then, not yet lowered
    # charlotte and chrysalis: the `first_of` imports, Charlotte's
    # `if ...: pass` and its second unreceived-count write go
    # (before: 754 / 195 and 518 / 85)
    # charlotte: the uncalled `CharlotteKernel.is_dead` goes, and the
    # move lock's self-deferring ``attempt`` closure becomes the
    # method `_attempt` (before: 750 / 193)
    # unchanged: the transfer span table (+1 / +1) is paid by
    # `_begin_transfer`'s `assert` and `MoveCoordinator.move`'s
    # `destroyed` test, which `_attempt` makes again
    # the move agreement is functions of the kernel, not a coordinator
    # object holding it in a cycle (before: 744 / 193)
    # the kernel's `_on_enclosure_lost` branch, which no schedule can
    # reach, goes (before: 737 / 193)
    # the node count is the class constant `NODES` (+1), paid by
    # `process_died`'s do-nothing `if ...: pass` (before: 727 / 189)
    # a transfer's ring time is computed once (before: 726 / 187)
    # a bounded syscall returns a `Delay` (`KernelPort._bounded` goes),
    # `cends` makes an end's state on first lookup (`_ce` and its eager
    # calls go) and `rt_block_wait` reads the Wait's state
    # (before: 725 / 187)
    # charlotte, soda and chrysalis: `make_runtime` becomes `RUNTIME`,
    # `runtime_costs` reads the cluster's `costs`, Charlotte's copy of
    # the default `rt_adopt_end` goes and the package re-exports
    # nothing (before: 716 / 185, 726 / 150 and 500 / 82)
    "charlotte": (705, 185),
    # soda: the uncalled `SodaKernel.request_state` goes (before:
    # 759 / 157)
    # `_release_pair` admits only a live requester's queued request and
    # loses its always-true state check (before: 756 / 156)
    # the request table keeps only requests in flight (before: 755 / 156)
    # soda and chrysalis: the cluster's private copy of its cost profile
    # (`soda_costs` / `chrysalis_costs`) and the option that built it
    # go — `costmodel=` carries the limit and the tuned profile — and
    # the node count is the class constant `NODES`
    # (before: 744 / 154 and 517 / 85)
    # a request that leaves the table while queued leaves its pair's
    # deque (`_forget`, +2), paid by `discover`'s `conclude`, which
    # tested a future only it settles, and by `_release_pair`, whose
    # deques now hold only requests in the table (before: 739 / 153)
    # a bounded call returns a `Delay` (`SodaPort._charged` goes) and
    # the freeze is read as `frozen_count` (`rt_runnable` goes)
    # (before: 737 / 151)
    # the probe's confirm branch arms its backoff through `_arm_timer`
    # instead of a copy of it (before: 731 / 151)
    "soda": (718, 150),
    # a call returns a `Delay` (`ChrysalisPort._charged` goes), the
    # link object's flags are read through masks (`is_full` /
    # `destroyed` go), `cends` raises for a missing end (`_ce` goes)
    # and `rt_block_wait` asks the event wait's state once
    # (before: 512 / 84)
    "chrysalis": (491, 82),
    # one `TupleSpace.match_or_park` replaces `try_match` + `add_waiter`
    # (before: 392 / 60)
    # the uncalled `TupleSpace.remove_waiter` goes (before: 386 / 60)
    "linda": (383, 59),
    # the raw program's idle loop yields its delay (before: 815 / 116)
    # `raw_charlotte_rpc` moves beside the other raw baselines and
    # `rpc.py` drops imports nothing there uses (before: 814 / 116)
    # `raw_chrysalis_rpc` loses a dead store and imports its port with
    # its other kernel names (before: 812 / 116)
    "workloads": (810, 116),
}


@pytest.fixture(scope="module")
def sizes():
    return area_sizes()


def test_size_budgets_only_ratchet_down(sizes):
    assert set(sizes) == set(SIZE_BUDGETS)
    for area, (loc, branches) in sizes.items():
        assert loc <= SIZE_BUDGETS[area][0], area
        assert branches <= SIZE_BUDGETS[area][1], area


def test_area_sizes_count_every_module_of_the_tree_once(sizes):
    """The rows are disjoint and complete: together they equal a walk
    of the source files — nested packages (`sim/backends`) included,
    only ``__main__`` and the root ``__init__`` left out."""
    root = Path(repro.__file__).parent
    files = [p for p in root.rglob("*.py")
             if p not in (root / "__init__.py", root / "__main__.py")]
    assert any(len(p.relative_to(root).parts) > 2 for p in files)
    trees = [ast.parse(p.read_text()) for p in files]
    assert sum(loc for loc, _ in sizes.values()) == sum(map(_logical_lines, trees))
    assert sum(br for _, br in sizes.values()) == sum(map(_branches, trees))
