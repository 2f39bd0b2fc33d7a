"""Adversarial workloads: the §3.2.1 unwanted-message scenarios.

These generate exactly the situations that force the Charlotte runtime
into its retry/forbid/allow machinery, repeatedly and measurably (E6):

* `ReverseRequestPair` — the paper's first scenario: B requests on L in
  the reverse direction while A awaits a reply on L;
* `OpenCloseRacer` — the second: A opens then closes its queue while B
  requests in the window, so A's Cancel fails and the message bounces.

Run on SODA/Chrysalis the same programs produce *zero* bounce traffic —
the §6 comparison E6 prints.
"""

from __future__ import annotations

from typing import Dict

from repro.core.api import BYTES, INT, Operation, Proc, make_cluster
from repro.core.ports import kernel_metric_digest

ECHO = Operation("echo", (BYTES,), (BYTES,))
ADD = Operation("add", (INT, INT), (INT,))


class ReverseRequestPair:
    """Factory for the two `Proc`s of scenario 1, repeated ``rounds``
    times back to back."""

    class A(Proc):
        def __init__(self, rounds: int) -> None:
            self.rounds = rounds
            self.ok = 0

        def main(self, ctx):
            (end,) = ctx.initial_links
            yield from ctx.register(ECHO, ADD)
            for _ in range(self.rounds):
                r = yield from ctx.connect(end, ECHO, (b"ping",))
                assert r == (b"ping",)
                yield from ctx.open(end)
                inc = yield from ctx.wait_request()
                yield from ctx.reply(inc, (inc.args[0] + inc.args[1],))
                yield from ctx.close(end)
                self.ok += 1

    class B(Proc):
        def __init__(self, rounds: int, reply_delay_ms: float = 1.0) -> None:
            self.rounds = rounds
            self.reply_delay_ms = reply_delay_ms
            self.ok = 0

        def reverse(self, ctx, end):
            r = yield from ctx.connect(end, ADD, (2, 3))
            assert r == (5,)
            self.ok += 1

        def main(self, ctx):
            (end,) = ctx.initial_links
            yield from ctx.register(ECHO, ADD)
            yield from ctx.open(end)
            for _ in range(self.rounds):
                inc = yield from ctx.wait_request()
                t = yield from ctx.fork(self.reverse(ctx, end), "rev")
                # the longer B sits on the reply, the longer A stays in
                # its unwanted-message window (A1 amplifies this)
                yield from ctx.delay(self.reply_delay_ms)
                yield from ctx.reply(inc, (inc.args[0],))
                # wait for the reverse coroutine's round to finish
                # before starting the next (keeps rounds independent)
                while t.live:
                    yield from ctx.delay(5.0)


def run_reverse_scenario(
    kind: str, rounds: int = 3, seed: int = 0, reply_delay_ms: float = 1.0,
    **cluster_kw,
) -> Dict[str, float]:
    with make_cluster(kind, seed=seed, **cluster_kw) as cluster:
        a_prog = ReverseRequestPair.A(rounds)
        b_prog = ReverseRequestPair.B(rounds, reply_delay_ms)
        a = cluster.spawn(a_prog, "A")
        b = cluster.spawn(b_prog, "B")
        cluster.create_link(a, b)
        cluster.run_until_quiet(max_ms=1e7)
        if not cluster.all_finished:
            raise RuntimeError(f"reverse scenario hung on {kind}: "
                               f"{cluster.unfinished()}")
        assert a_prog.ok == rounds and b_prog.ok == rounds
        m = cluster.metrics
        digest = {
            "rounds": float(rounds),
            "unwanted": m.get("runtime.unwanted"),
            "messages": m.total("wire.messages."),
            "useful_messages": 4.0 * rounds,  # 2 RPCs/round x 2 messages
            "sim_time_ms": cluster.engine.now,
        }
    # bounce-machinery counters exist only where the machinery does;
    # consumers must test `key in digest`
    digest.update(kernel_metric_digest(kind, m, {
        "forbid": "charlotte.forbid_sent",
        "allow": "charlotte.allow_sent",
        "retry": "charlotte.retry_sent",
        "resends": "charlotte.resends",
    }))
    return digest


class OpenCloseRacer:
    """Scenario 2: A opens then immediately closes its request queue,
    with B's request racing into the window."""

    class A(Proc):
        def __init__(self, rounds: int) -> None:
            self.rounds = rounds

        def main(self, ctx):
            (end,) = ctx.initial_links
            yield from ctx.register(ADD)
            for _ in range(self.rounds):
                yield from ctx.delay(50.0)  # B's send parks at the kernel
                yield from ctx.open(end)   # match fires
                yield from ctx.close(end)  # Cancel fails -> bounce
                yield from ctx.delay(100.0)
                yield from ctx.open(end)
                inc = yield from ctx.wait_request()
                yield from ctx.reply(inc, (inc.args[0] + inc.args[1],))
                yield from ctx.close(end)

    class B(Proc):
        def __init__(self, rounds: int) -> None:
            self.rounds = rounds
            self.ok = 0

        def main(self, ctx):
            (end,) = ctx.initial_links
            for i in range(self.rounds):
                r = yield from ctx.connect(end, ADD, (i, 1))
                assert r == (i + 1,)
                self.ok += 1


def run_open_close_scenario(
    kind: str, rounds: int = 3, seed: int = 0, **cluster_kw
) -> Dict[str, float]:
    with make_cluster(kind, seed=seed, **cluster_kw) as cluster:
        a_prog = OpenCloseRacer.A(rounds)
        b_prog = OpenCloseRacer.B(rounds)
        a = cluster.spawn(a_prog, "A")
        b = cluster.spawn(b_prog, "B")
        cluster.create_link(a, b)
        cluster.run_until_quiet(max_ms=1e7)
        if not cluster.all_finished:
            raise RuntimeError(f"open/close scenario hung on {kind}: "
                               f"{cluster.unfinished()}")
        m = cluster.metrics
        digest = {
            "rounds": float(rounds),
            "unwanted": m.get("runtime.unwanted"),
            "messages": m.total("wire.messages."),
            "useful_messages": 2.0 * rounds,
            "sim_time_ms": cluster.engine.now,
        }
    digest.update(kernel_metric_digest(kind, m, {
        "retry": "charlotte.retry_sent",
        "resends": "charlotte.resends",
    }))
    return digest
