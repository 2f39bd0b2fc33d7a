"""Grand chaos: migration + crashes + degraded broadcasts, together.

The nastiest combination the paper discusses: link ends moving between
processes *while* processes crash and (on SODA) broadcasts are lossy —
"node crashes ... would tend to precipitate a large number of
broadcast searches for lost links" (§4.2).  The test asserts only the
invariants that must survive any interleaving:

* the simulation quiesces (no livelock);
* no process dies of an internal error (`cluster.check`);
* the registry stays structurally consistent;
* every capability that was successfully used produced a correct
  answer;
* nothing is LOST except, on Charlotte, enclosures caught by a crash
  inside the §3.2.2 window (the documented deviation).
"""

import pytest

from repro.core.api import (
    INT,
    KERNEL_KINDS,
    LINK,
    LinkDestroyed,
    LynxError,
    Operation,
    Proc,
    make_cluster,
)
from repro.sim.faults import CrashMode
from repro.sim.rng import SimRandom

GIVE = Operation("give", (LINK,), ())
WORK = Operation("work", (INT,), (INT,))


class Churner(Proc):
    """Mints links, serves work on kept ends, passes moving ends to a
    random neighbour, repeatedly; absorbs whatever failures arrive."""

    def __init__(self, ident: int, rng: SimRandom, rounds: int) -> None:
        self.ident = ident
        self.rng = rng.child(f"churner{ident}")
        self.rounds = rounds
        self.correct = 0
        self.wrong = 0

    def serve_kept(self, ctx, end):
        try:
            yield from ctx.open(end)
            inc = yield from ctx.wait_request([end])
            yield from ctx.reply(inc, (inc.args[0] * 7,))
        except LynxError:
            pass

    def use_received(self, ctx, end, probe):
        try:
            (v,) = yield from ctx.connect(end, WORK, (probe,))
            if v == probe * 7:
                self.correct += 1
            else:
                self.wrong += 1
        except LynxError:
            pass  # the holder crashed or the link died: acceptable

    def main(self, ctx):
        neighbours = list(ctx.initial_links)
        yield from ctx.register(GIVE, WORK)
        for link in neighbours:
            yield from ctx.open(link)
        # every round: maybe mint-and-send, maybe serve an incoming GIVE
        for r in range(self.rounds):
            if self.rng.bernoulli(0.6) and neighbours:
                try:
                    mine, theirs = yield from ctx.new_link()
                    yield from ctx.fork(
                        self.serve_kept(ctx, mine), f"serve{r}"
                    )
                    target = self.rng.choice(neighbours)
                    yield from ctx.connect(target, GIVE, (theirs,))
                except LynxError:
                    pass
            else:
                yield from ctx.delay(self.rng.uniform(1.0, 30.0))
            # drain any GIVEs that arrived, using them as capabilities
            while True:
                drained = False
                for link in neighbours:
                    es = ctx._runtime.ends.get(link.end_ref)
                    if es is None:
                        continue
                    if ctx._runtime.rt_request_available(es):
                        try:
                            inc = yield from ctx.wait_request(neighbours)
                        except LynxError:
                            break
                        if inc.op.name == "give":
                            cap = inc.args[0]
                            try:
                                yield from ctx.reply(inc, ())
                            except LynxError:
                                break
                            yield from ctx.fork(
                                self.use_received(ctx, cap, r + 1),
                                f"use{r}",
                            )
                        else:
                            try:
                                yield from ctx.reply(
                                    inc, (inc.args[0] * 7,)
                                )
                            except LynxError:
                                break
                        drained = True
                        break
                if not drained:
                    break
        yield from ctx.delay(200.0)


@pytest.mark.parametrize("kind", KERNEL_KINDS)
@pytest.mark.parametrize("seed", [11, 12])
def test_grand_chaos(kind, seed):
    rng = SimRandom(seed, f"chaos/{kind}")
    kw = {}
    if kind == "soda":
        kw["broadcast_loss"] = 0.4
    cluster = make_cluster(kind, seed=seed, **kw)
    N = 4
    progs = [Churner(i, rng, rounds=5) for i in range(N)]
    handles = [cluster.spawn(p, f"ch{i}") for i, p in enumerate(progs)]
    for i in range(N):
        for j in range(i + 1, N):
            cluster.create_link(handles[i], handles[j])
    # one orderly crash mid-run
    victim = rng.randint(0, N - 1)
    cluster.engine.schedule(
        rng.uniform(50.0, 400.0),
        cluster.crash_process,
        f"ch{victim}",
        CrashMode.TERMINATE,
    )
    cluster.run_until_quiet(max_ms=1e6)

    # quiescence and internal health
    cluster.check()
    # every exercised capability gave the right answer
    for p in progs:
        assert p.wrong == 0, (kind, seed, p.ident)
    # conservation: the hint-based kernels lose nothing, ever.  On
    # Charlotte an enclosure that was kernel-matched into the victim
    # but never delivered to its runtime is in limbo when the crash
    # lands — the §3.2.2 deviation family — so losses there are
    # possible (and each must involve the crashed process's kernel
    # table, which the registry records as a lost end).
    lost = cluster.registry.lost_ends()
    if kind == "charlotte":
        assert len(lost) <= 3, (seed, lost)
    else:
        assert lost == [], (kind, seed, lost)
    problems = cluster.registry.check_invariants()
    assert problems == []
