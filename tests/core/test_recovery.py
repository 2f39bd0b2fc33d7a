"""The runtime recovery layer (`repro.core.recovery` + the wiring in
`LynxRuntimeBase`): policy arithmetic, the retry/exhaustion paths on a
runtime-placement backend, duplicate suppression, and the
kernel-placement contrast on Charlotte (docs/FAULTS.md)."""

import pytest

from repro.core.api import (
    BYTES,
    Operation,
    Proc,
    RecoveryExhausted,
    RecoveryPolicy,
    kernel_profile,
    make_cluster,
    registered_kernels,
)
from repro.core.exceptions import LynxError
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
