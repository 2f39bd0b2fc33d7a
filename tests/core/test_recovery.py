"""The runtime recovery layer (`repro.core.recovery` + the wiring in
`LynxRuntimeBase`): policy arithmetic, the retry/exhaustion paths on a
runtime-placement backend, duplicate suppression, and the
kernel-placement contrast on Charlotte (docs/FAULTS.md)."""

import pytest

from repro.core.api import (
    BYTES,
    LINK,
    Operation,
    Proc,
    RecoveryExhausted,
    RecoveryPolicy,
    kernel_profile,
    make_cluster,
    registered_kernels,
)
from repro.core.exceptions import LynxError
from repro.core.links import REPLY_CACHE_LIMIT
from repro.sim.faults import FaultPlan
from repro.sim.rng import SimRandom
from repro.workloads.chaos import (
    chaos_policy,
    lossy_plan,
    run_chaos_workload,
)

ECHO = Operation("echo", (BYTES,), (BYTES,))


# policy arithmetic -----------------------------------------------------


def test_backoff_doubles_from_the_timeout():
    p = RecoveryPolicy(timeout_ms=50.0, max_retries=3, backoff_factor=2.0)
    assert p.backoff_ms(1) == 100.0
    assert p.backoff_ms(2) == 200.0
    assert p.backoff_ms(3) == 400.0


def test_budget_is_timeout_plus_every_backoff_leg():
    p = RecoveryPolicy(timeout_ms=50.0, max_retries=3, backoff_factor=2.0)
    assert p.budget_ms() == 50.0 + 100.0 + 200.0 + 400.0
    assert RecoveryPolicy(timeout_ms=30.0, max_retries=0).budget_ms() == 30.0


def test_jitter_is_bounded_and_seeded():
    p = RecoveryPolicy(timeout_ms=50.0, max_retries=2,
                       backoff_factor=2.0, jitter_frac=0.1)
    rng = SimRandom(3)
    draws = [p.backoff_ms(1, rng) for _ in range(50)]
    assert all(90.0 <= d <= 110.0 for d in draws)
    assert len(set(draws)) > 1  # actually jittered
    assert [p.backoff_ms(1, SimRandom(3)) for _ in range(5)] == \
           [p.backoff_ms(1, SimRandom(3)) for _ in range(5)]


def test_policy_is_frozen():
    p = RecoveryPolicy()
    with pytest.raises(Exception):
        p.timeout_ms = 1.0


# runtime behaviour -----------------------------------------------------


POLICY = RecoveryPolicy(timeout_ms=40.0, max_retries=2,
                        backoff_factor=2.0, jitter_frac=0.0)


class Server(Proc):
    def __init__(self):
        self.served = 0

    def main(self, ctx):
        (end,) = ctx.initial_links
        yield from ctx.register(ECHO)
        yield from ctx.open(end)
        while True:
            try:
                inc = yield from ctx.wait_request((end,))
                yield from ctx.reply(inc, (inc.args[0],))
            except LynxError:
                return
            self.served += 1


class OneShotClient(Proc):
    def __init__(self):
        self.reply = None
        self.error = None
        self.elapsed = None

    def main(self, ctx):
        (end,) = ctx.initial_links
        t0 = yield from ctx.now()
        try:
            (self.reply,) = yield from ctx.connect(end, ECHO, (b"x",))
        except RecoveryExhausted as e:
            self.error = e
        self.elapsed = (yield from ctx.now()) - t0
        try:
            yield from ctx.destroy(end)
        except LynxError:
            pass


def _run(kind, plan, policy=POLICY, seed=0):
    cluster = make_cluster(kind, seed=seed)
    cluster.install_faults(plan)
    if policy is not None:
        cluster.install_recovery(policy)
    client = OneShotClient()
    server = Server()
    c = cluster.spawn(client, "client")
    s = cluster.spawn(server, "server")
    cluster.create_link(c, s)
    cluster.run_until_quiet(max_ms=1e6)
    assert cluster.all_finished, cluster.unfinished()
    cluster.check()
    return cluster, client, server


def test_one_retry_masks_a_transient_partition():
    """The first request dies in a short partition window; the retry
    after the first timeout sails through.  The application only sees
    a slower round trip."""
    plan = FaultPlan().partition(0.0, 30.0)  # heals before the timeout
    cluster, client, server = _run("ideal", plan)
    assert client.error is None
    assert client.reply == b"x"
    assert server.served == 1
    assert cluster.metrics.get("recovery.timeouts") == 1
    assert cluster.metrics.get("recovery.retries") == 1
    assert cluster.metrics.get("recovery.exhausted") == 0
    assert cluster.metrics.get("faults.partition_dropped") == 1
    # the round trip paid roughly one timeout of penalty
    assert client.elapsed >= POLICY.timeout_ms


def test_unreachable_peer_exhausts_the_budget():
    plan = FaultPlan().partition(0.0, 1e6)  # never heals
    cluster, client, server = _run("ideal", plan)
    assert isinstance(client.error, RecoveryExhausted)
    assert client.reply is None
    assert server.served == 0
    assert cluster.metrics.get("recovery.exhausted") == 1
    assert cluster.metrics.get("recovery.retries") == POLICY.max_retries
    # jitter_frac=0: the unwind lands exactly at the policy budget
    assert client.elapsed == pytest.approx(POLICY.budget_ms(), abs=1.0)
    # the typed error says what ran out
    assert "retries" in str(client.error)


def test_duplicates_are_suppressed_not_reexecuted():
    plan = FaultPlan().duplicate(1.0)  # every message delivered twice
    cluster, client, server = _run("ideal", plan)
    assert client.error is None
    assert client.reply == b"x"
    assert server.served == 1  # executed once, however many copies
    assert cluster.metrics.get("faults.duplicated") >= 1
    assert cluster.metrics.get("recovery.duplicates_dropped") >= 1


def test_kernel_placement_retransmits_invisibly():
    """Charlotte under the same transient partition: no runtime
    counters move at all — the kernel retransmits until the window
    heals and the client never learns anything happened."""
    plan = FaultPlan().partition(0.0, 60.0)
    cluster, client, server = _run("charlotte", plan)
    assert client.error is None
    assert client.reply == b"x"
    assert server.served == 1
    assert cluster.metrics.get("faults.kernel_retransmits") >= 1
    assert cluster.metrics.total("recovery.") == 0
    # the blocked connect outwaited the window instead of retrying
    assert client.elapsed >= 60.0


def test_without_a_policy_runtime_backends_just_wait():
    """Faults installed but no policy: a runtime-placement backend has
    nothing to recover with — the lost request hangs the client, which
    is the pre-recovery behaviour, preserved."""
    plan = FaultPlan().partition(0.0, 1e7)
    cluster = make_cluster("ideal", seed=0)
    cluster.install_faults(plan)
    client = OneShotClient()
    c = cluster.spawn(client, "client")
    s = cluster.spawn(Server(), "server")
    cluster.create_link(c, s)
    cluster.run_until_quiet(max_ms=1e5)
    assert "client" in cluster.unfinished()
    assert cluster.metrics.get("faults.messages_lost") == 1
    assert cluster.metrics.total("recovery.") == 0


@pytest.mark.parametrize("kind", registered_kernels())
def test_every_backend_recovers_a_lossy_network_its_own_way(kind):
    """Random loss and duplication on every link: each registered
    backend must actually lose messages, resend them where its recovery
    lives (kernel retransmit vs runtime retry), and still complete
    every operation."""
    c = run_chaos_workload(kind, count=8, seed=1, plan=lossy_plan(),
                           policy=chaos_policy())
    dropped = (c.counters.get("faults.messages_lost", 0)
               + c.counters.get("faults.dropped", 0))
    if kernel_profile(kind).capabilities.recovery_placement == "kernel":
        resent = c.counters.get("faults.kernel_retransmits", 0)
    else:
        resent = (c.counters.get("recovery.retries", 0)
                  + c.counters.get("recovery.reply_retries", 0))
    assert dropped >= 1 and resent >= 1
    assert c.completed == c.count and c.goodput_per_s > 0.0


# duplicate suppression: one SeqWindow pair per end --------------------


def _runtime_placed(kind):
    return kernel_profile(kind).capabilities.recovery_placement == "runtime"


class EchoServer(Proc):
    """Echoes each request; records every *execution*, and computes
    ``compute_ms`` before each reply."""

    def __init__(self, compute_ms=0.0):
        self.compute_ms = compute_ms
        self.executed = []

    def main(self, ctx):
        (end,) = ctx.initial_links
        yield from ctx.register(ECHO)
        yield from ctx.open(end)
        while True:
            try:
                inc = yield from ctx.wait_request((end,))
                self.executed.append(inc.args[0])
                if self.compute_ms:
                    yield from ctx.compute(self.compute_ms)
                yield from ctx.reply(inc, (inc.args[0],))
            except LynxError:
                return


class SequentialClient(Proc):
    def __init__(self, count):
        self.count = count
        self.replies = []

    def main(self, ctx):
        (end,) = ctx.initial_links
        for i in range(self.count):
            (r,) = yield from ctx.connect(end, ECHO, (b"%d" % i,))
            self.replies.append(r)
        yield from ctx.destroy(end)


def _converse(kind, client, server, policy, plan=None):
    cluster = make_cluster(kind, seed=0)
    if plan is not None:
        cluster.install_faults(plan)
    cluster.install_recovery(policy)
    c = cluster.spawn(client, "client")
    s = cluster.spawn(server, "server")
    cluster.create_link(c, s)
    return cluster


@pytest.mark.parametrize("kind", registered_kernels())
def test_a_recovery_policy_alone_suppresses_its_retransmitted_copies(kind):
    """No fault plane, but a server slower than the recovery timeout:
    every retransmission is a copy of a request the server already
    admitted, so each op still executes once and completes (a copy is
    dropped while the request is served, and replays its reply after)."""
    ops = [b"0", b"1", b"2"]
    client, server = SequentialClient(len(ops)), EchoServer(compute_ms=100.0)
    cluster = _converse(kind, client, server, RecoveryPolicy(
        timeout_ms=25.0, max_retries=3, jitter_frac=0.0))
    cluster.run_until_quiet(max_ms=1e6)
    assert cluster.all_finished, cluster.unfinished()
    cluster.check()
    assert client.replies == ops
    assert server.executed == ops
    if _runtime_placed(kind):
        assert cluster.metrics.get("recovery.retries") >= len(ops)
        assert cluster.metrics.get("recovery.replies_replayed") >= 1
    assert cluster.metrics.get("recovery.exhausted") == 0


@pytest.mark.parametrize("kind", registered_kernels())
def test_windows_stay_bounded_over_more_ops_than_two_windows(kind):
    """A lossy run longer than two windows: every op executes exactly
    once, and no end's ``served`` or ``consumed`` outgrows
    2 x `REPLY_CACHE_LIMIT` — the windows evicted as they went."""
    count = 2 * REPLY_CACHE_LIMIT + 100
    client, server = SequentialClient(count), EchoServer()
    cluster = _converse(kind, client, server,
                        RecoveryPolicy(timeout_ms=25.0, max_retries=8,
                                       jitter_frac=0.0),
                        plan=lossy_plan(0.1, 0.05))
    windows = []  # (served, consumed) of every end as it is destroyed
    for proc in cluster.processes.values():
        runtime = proc.runtime
        destroy = runtime._mark_destroyed

        def probe(es, reason, crash, destroy=destroy):
            windows.append((len(es.served), es.served.floor,
                            len(es.consumed), es.consumed.floor))
            destroy(es, reason, crash)

        runtime._mark_destroyed = probe
    cluster.run_until_quiet(max_ms=1e8)
    assert cluster.all_finished, cluster.unfinished()
    cluster.check()
    ops = [b"%d" % i for i in range(count)]
    assert client.replies == ops
    assert server.executed == ops
    assert len(windows) == 2
    for served, _, consumed, _ in windows:
        assert served <= 2 * REPLY_CACHE_LIMIT
        assert consumed <= 2 * REPLY_CACHE_LIMIT
    # each side's window evicted: the server's request seqs, the
    # client's reply seqs
    assert max(w[1] for w in windows) > REPLY_CACHE_LIMIT
    assert max(w[3] for w in windows) > REPLY_CACHE_LIMIT


GIVE = Operation("give", (BYTES,), (LINK,))


class LinkGiver(Proc):
    """Answers one ``give`` with a fresh link end, then waits on —
    and so takes — whatever copies of the request arrive."""

    def __init__(self):
        self.executed = 0

    def main(self, ctx):
        (end,) = ctx.initial_links
        yield from ctx.register(GIVE)
        yield from ctx.open(end)
        while True:
            try:
                inc = yield from ctx.wait_request((end,))
                self.executed += 1
                _, theirs = yield from ctx.new_link()
                yield from ctx.reply(inc, (theirs,))
            except LynxError:
                return


class BusyTaker(Proc):
    """Takes a link end with ``give``; a sibling thread's compute holds
    the process for 150 ms, so the reply waits unconsumed while the
    recovery timer retransmits copies of the request."""

    def __init__(self):
        self.got = None

    def main(self, ctx):
        (end,) = ctx.initial_links

        def busy():
            yield from ctx.compute(150.0)

        yield from ctx.fork(busy())
        (self.got,) = yield from ctx.connect(end, GIVE, (b"x",))
        yield from ctx.destroy(self.got)
        yield from ctx.destroy(end)


@pytest.mark.parametrize("kind", [k for k in registered_kernels()
                                  if _runtime_placed(k)])
def test_a_copy_of_a_request_whose_reply_moved_an_end_is_dropped(kind):
    """A reply that moves a link end is never kept — replaying it would
    move the end twice — so a copy of its request arriving after it is
    dropped and counted, neither re-executed nor replayed."""
    client, server = BusyTaker(), LinkGiver()
    cluster = _converse(kind, client, server, RecoveryPolicy(
        timeout_ms=25.0, max_retries=3, jitter_frac=0.0))
    cluster.run_until_quiet(max_ms=1e6)
    assert cluster.all_finished, cluster.unfinished()
    cluster.check()
    assert client.got is not None
    assert server.executed == 1
    assert cluster.metrics.get("recovery.retries") >= 1
    assert cluster.metrics.get("recovery.duplicates_dropped") >= 1
    assert cluster.metrics.get("recovery.replies_replayed") == 0
