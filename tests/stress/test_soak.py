"""Randomised soak: a small society of LYNX processes under churn.

Seeded random clients issue mixed RPC traffic at a farm of entry-style
servers while crash injection removes some clients mid-run.  On every
kernel, for every seed: surviving clients observe correct replies,
servers wind down cleanly when their links die, the registry's
structural invariants hold, and nothing is lost.

This is the repository's integration pressure test: it crosses the
entry layer, the queue/fairness machinery, typed marshalling, link
destruction on termination, and each kernel's full transport.
"""

import pytest

from repro.core.api import (
    BYTES,
    INT,
    KERNEL_KINDS,
    LinkDestroyed,
    Operation,
    Proc,
)
from repro.core.api import make_cluster
from repro.core.entries import call, serve
from repro.sim.faults import CrashMode
from repro.sim.rng import SimRandom

ECHO = Operation("echo", (BYTES,), (BYTES,))
MUL = Operation("mul", (INT, INT), (INT,))

SERVERS = 2
CLIENTS = 4
OPS_PER_CLIENT = 6


class FarmServer(Proc):
    def __init__(self):
        self.served = None

    def main(self, ctx):
        self.served = yield from serve(
            ctx,
            ctx.initial_links,
            {
                ECHO: lambda b: (b,),
                MUL: lambda a, b: (a * b,),
            },
        )


class RandomClient(Proc):
    def __init__(self, ident: int, rng: SimRandom):
        self.ident = ident
        self.rng = rng.child(f"client{ident}")
        self.checked = 0
        self.failed = None

    def main(self, ctx):
        links = list(ctx.initial_links)
        try:
            for _ in range(OPS_PER_CLIENT):
                link = self.rng.choice(links)
                if self.rng.bernoulli(0.3):
                    yield from ctx.delay(self.rng.uniform(0.0, 40.0))
                if self.rng.bernoulli(0.5):
                    blob = bytes(
                        self.rng.randint(0, 255)
                        for _ in range(self.rng.randint(0, 64))
                    )
                    out = yield from call(ctx, link, ECHO, blob)
                    assert out == blob
                else:
                    a = self.rng.randint(-99, 99)
                    b = self.rng.randint(-99, 99)
                    out = yield from call(ctx, link, MUL, a, b)
                    assert out == a * b
                self.checked += 1
        except LinkDestroyed as e:  # a crashed sibling we depended on?
            self.failed = e  # links here are client<->server only; a
            # server never crashes in this test, so record and fail


@pytest.mark.parametrize("kind", KERNEL_KINDS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_soak_with_client_crashes(kind, seed):
    rng = SimRandom(seed, f"soak/{kind}")
    cluster = make_cluster(kind, seed=seed)
    servers = [FarmServer() for _ in range(SERVERS)]
    server_handles = [
        cluster.spawn(s, f"server{i}") for i, s in enumerate(servers)
    ]
    clients = [RandomClient(i, rng) for i in range(CLIENTS)]
    client_handles = [
        cluster.spawn(c, f"client{i}") for i, c in enumerate(clients)
    ]
    for ch in client_handles:
        for sh in server_handles:
            cluster.create_link(sh, ch)
    # crash one or two clients mid-run, orderly (TERMINATE): their
    # termination destroys their links, which the servers must absorb
    doomed = rng.sample(range(CLIENTS), rng.randint(1, 2))
    for i in doomed:
        when = rng.uniform(10.0, 400.0)
        cluster.engine.schedule(
            when, cluster.crash_process, f"client{i}", CrashMode.TERMINATE
        )
    cluster.run_until_quiet(max_ms=1e6)

    assert cluster.all_finished, (kind, seed, cluster.unfinished())
    survivors = [c for i, c in enumerate(clients) if i not in doomed]
    for c in survivors:
        assert c.failed is None, (kind, seed, c.ident, c.failed)
        assert c.checked == OPS_PER_CLIENT
    # servers wound down once every client link died
    for s in servers:
        assert s.served is not None
    total_served = sum(s.served for s in servers)
    assert total_served >= len(survivors) * OPS_PER_CLIENT
    # nothing lost, registry consistent
    assert cluster.registry.lost_ends() == []
    cluster.check()
