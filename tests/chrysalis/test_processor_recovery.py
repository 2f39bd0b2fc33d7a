"""§5.2 regression: "Processor failures are currently not detected."

A hard PROCESSOR kill under Chrysalis must keep its paper semantics
with the fault/recovery layer in the tree: peers of the dead node hang
— no eager error, no phantom LinkDestroyed — unless the *runtime* has
been given a `RecoveryPolicy`, in which case the blocked connect is
unwound with a typed `RecoveryExhausted` once the retry budget is
spent.  The kernel still never detects anything; the bound comes from
the language runtime, which is the paper's hints stance (§4.1, §6).
"""

from repro.core.api import (
    BYTES,
    Operation,
    Proc,
    RecoveryExhausted,
    RecoveryPolicy,
    make_cluster,
)
from repro.sim.faults import CrashMode

ECHO = Operation("echo", (BYTES,), (BYTES,))

POLICY = RecoveryPolicy(timeout_ms=50.0, max_retries=3,
                        backoff_factor=2.0, jitter_frac=0.1)


class StuckServer(Proc):
    """Accepts the link but never serves: the request sits unreceived,
    exactly where a processor failure strands it."""

    def main(self, ctx):
        (end,) = ctx.initial_links
        yield from ctx.register(ECHO)
        yield from ctx.open(end)
        yield from ctx.delay(1e6)


class Client(Proc):
    def __init__(self):
        self.error = None
        self.finished_at = None

    def main(self, ctx):
        (end,) = ctx.initial_links
        try:
            yield from ctx.connect(end, ECHO, (b"x",))
        except RecoveryExhausted as e:
            self.error = e
        self.finished_at = yield from ctx.now()


def _run(policy):
    cluster = make_cluster("chrysalis", seed=4)
    if policy is not None:
        cluster.install_recovery(policy)
    client = Client()
    s = cluster.spawn(StuckServer(), "server")
    c = cluster.spawn(client, "client")
    cluster.create_link(s, c)
    cluster.engine.schedule(10.0, cluster.crash_process, "server",
                            CrashMode.PROCESSOR)
    cluster.run_until_quiet(max_ms=2e6)
    return cluster, client


def test_processor_crash_hangs_without_a_policy():
    """No recovery installed: the client must block forever — a
    runtime that eagerly errored here would be *detecting* the
    processor failure the paper says Chrysalis cannot."""
    cluster, client = _run(None)
    assert client.error is None
    assert client.finished_at is None
    assert "client" in cluster.unfinished()


def test_processor_crash_bounded_by_recovery_policy():
    """Recovery installed: the same crash surfaces as a typed
    `RecoveryExhausted` within ~the policy budget (plus jitter), and
    the cluster winds down cleanly."""
    cluster, client = _run(POLICY)
    assert isinstance(client.error, RecoveryExhausted)
    assert cluster.all_finished, cluster.unfinished()
    budget = POLICY.budget_ms()  # 750 ms at these knobs
    # first timeout at t0+50, then three jittered backoffs; jitter is
    # at most 10% per leg, so the unwind lands inside [budget, 1.1x]
    assert client.finished_at is not None
    elapsed = client.finished_at
    assert budget * 0.9 <= elapsed <= budget * 1.2, (elapsed, budget)
    assert cluster.metrics.get("recovery.exhausted") == 1
    assert cluster.metrics.get("recovery.timeouts") == POLICY.max_retries + 1
    assert cluster.metrics.get("recovery.retries") == POLICY.max_retries
    cluster.check()
