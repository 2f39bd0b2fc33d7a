"""`EndState.movable` through a sent message's whole life, on every
paper kernel and the ideal one.

§2.1: an end with sent messages not yet known to be received cannot
move.  The runtime keeps exactly one record of those — ``outgoing``,
which `LynxRuntimeBase._stage` fills and `_retract_outgoing` /
`_mark_destroyed` empty — and ``movable`` reads it.  The test follows
one link through a request that races an open/close (Charlotte bounces
it with RETRY and re-sends it), a reply slower than the recovery
timeout (a runtime-placement backend re-stages the received request),
and the server's destroy, and pins ``movable`` on both ends after every
step.  Mutations it catches: ``movable`` ignoring ``outgoing``;
`_recovery_fire` or Charlotte's `_recv_bounce` not re-staging the
message; `_retract_outgoing` leaving the message behind on receipt.
"""

import pytest

from repro.core.api import INT, Operation, Proc, RecoveryPolicy, make_cluster

ADD = Operation("add", (INT, INT), (INT,))

#: far above a fault-free round trip, below the slow reply's serve time
TIMEOUT_MS = 400.0


class Client(Proc):
    def main(self, ctx):
        (end,) = ctx.initial_links
        for i in range(2):
            r = yield from ctx.connect(end, ADD, (i, 1))
            assert r == (i + 1,)
        yield from ctx.delay(100.0)  # the server's destroy arrives


class Server(Proc):
    def main(self, ctx):
        (end,) = ctx.initial_links
        yield from ctx.register(ADD)
        # round 1: open and close while the request is on its way — the
        # §3.2.1 race that makes Charlotte bounce it with RETRY
        yield from ctx.delay(50.0)
        yield from ctx.open(end)
        yield from ctx.close(end)
        yield from ctx.delay(100.0)
        yield from ctx.open(end)
        inc = yield from ctx.wait_request()
        yield from ctx.reply(inc, (sum(inc.args),))
        # round 2: a reply slower than the client's recovery timeout
        inc = yield from ctx.wait_request()
        yield from ctx.delay(TIMEOUT_MS + 100.0)
        yield from ctx.reply(inc, (sum(inc.args),))
        yield from ctx.destroy(end)


def _probe(runtime, log):
    """Record ``(process, step, movable)`` for the process's first
    initial end after each step of a sent message's life."""
    ref = runtime.initial_links[0].end_ref

    def note(step):
        log.append((runtime.name, step, runtime.ends[ref].movable))

    def plain(name, step):
        original = getattr(runtime, name)

        def wrapped(*args, **kwargs):
            result = original(*args, **kwargs)
            note(step)
            return result

        setattr(runtime, name, wrapped)

    plain("_stage", "staged")
    plain("notify_receipt", "receipt")
    plain("_recovery_fire", "recovery-fired")
    plain("_mark_destroyed", "destroyed")
    resend = getattr(runtime, "_resend", None)
    if resend is not None:  # Charlotte: a RETRY bounce re-sends
        def wrapped_resend(es, logical):
            note("resend")
            yield from resend(es, logical)

        runtime._resend = wrapped_resend


#: a round with no bounce and no retransmission: staged, then received,
#: on each leg
_PLAIN_ROUND = [
    ("client", "staged", False), ("client", "receipt", True),
    ("server", "staged", False), ("server", "receipt", True),
]
#: round 2 under runtime-placement recovery: the timeout fires on a
#: request the server already received; the retransmission is outgoing
#: again, so the end may not move — and stays so, since the server never
#: takes the duplicate before it destroys the link
_RECOVERY_ROUND = [
    ("client", "staged", False), ("client", "receipt", True),
    ("client", "recovery-fired", False),
    ("server", "staged", False), ("server", "receipt", True),
]
_DESTROYED = [("server", "destroyed", False), ("client", "destroyed", False)]

EXPECTED = {
    # kernel placement: no runtime recovery; the request is bounced after
    # send-completion already counted as its receipt, so it is re-staged
    "charlotte": [
        ("client", "staged", False), ("client", "receipt", True),
        ("client", "resend", False), ("client", "receipt", True),
        ("server", "staged", False), ("server", "receipt", True),
        *_PLAIN_ROUND, *_DESTROYED,
    ],
    # an accept moves both directions at once: the reply is staged
    # before the request's receipt reaches the client
    "soda": [
        ("client", "staged", False), ("server", "staged", False),
        ("client", "receipt", True), ("server", "receipt", True),
        *_RECOVERY_ROUND, *_DESTROYED,
    ],
    "chrysalis": [*_PLAIN_ROUND, *_RECOVERY_ROUND, *_DESTROYED],
    "ideal": [*_PLAIN_ROUND, *_RECOVERY_ROUND, *_DESTROYED],
}


@pytest.mark.parametrize("kind", sorted(EXPECTED))
def test_movable_through_receipt_bounce_recovery_and_destroy(kind):
    cluster = make_cluster(kind, seed=0)
    cluster.install_recovery(RecoveryPolicy(timeout_ms=TIMEOUT_MS,
                                            max_retries=2))
    server = cluster.spawn(Server(), "server")
    client = cluster.spawn(Client(), "client")
    cluster.create_link(server, client)
    log = []
    _probe(server.runtime, log)
    _probe(client.runtime, log)
    cluster.run_until_quiet()
    assert cluster.all_finished
    cluster.check()
    assert log == EXPECTED[kind]
