"""What Charlotte's high-level primitives cost the run-time package
(§3.2): the enclosure protocol of figure 2 (E3), unwanted messages
(E6, and why forbid/allow exists: A1), the rejected reply
acknowledgment (E7) and the enclosure-loss window (A3)."""

from __future__ import annotations

from repro.core.api import (
    BYTES,
    INT,
    KERNEL_KINDS,
    LINK,
    LinkDestroyed,
    Operation,
    Proc,
    ThreadAborted,
    make_cluster,
)
from repro.core.registry import EndDisposition
from repro.experiments import PAPER, Experiment, near, register_experiment
from repro.obs.report import Table, paper_vs_measured
from repro.sim.faults import CrashMode
from repro.workloads.adversarial import (
    run_open_close_scenario,
    run_reverse_scenario,
)

ADD = Operation("add", (INT, INT), (INT,))
ECHO = Operation("echo", (BYTES,), (BYTES,))
GIVE = Operation("give", (LINK,), ())


# ----------------------------------------------------------------------
# E3 — figure 2: the link-enclosure protocol
#
#   "To move more than one link end with a single LYNX message, a
#   request or reply must be broken into several Charlotte messages.
#   The first packet contains nonlink data, together with the first
#   enclosure.  Additional enclosures are passed in empty enc
#   messages.  For requests, the receiver must return an explicit
#   goahead message after the first packet ... No goahead is needed
#   for requests with zero or one enclosures." (§3.2.2)
#
# So the kernel-message count for one remote operation moving n ends is
# 2 for n <= 1 and n + 2 for n >= 2 under Charlotte (request packet +
# goahead + (n-1) enc packets + reply); SODA / Chrysalis: 2 always —
# names travel inside the message.  The operation runs for n = 0..5 on
# all three kernels and actual wire messages are counted.
# ----------------------------------------------------------------------
E3_ENCLOSURES = range(6)


def _give_op(n):
    return Operation(f"give{n}", tuple([LINK] * n), ())


class _Giver(Proc):
    def __init__(self, n):
        self.n = n

    def main(self, ctx):
        (to_b,) = ctx.initial_links
        ends = []
        for _ in range(self.n):
            mine, theirs = yield from ctx.new_link()
            ends.append(theirs)
        yield from ctx.connect(to_b, _give_op(self.n), tuple(ends))


class _Taker(Proc):
    def __init__(self, n):
        self.n = n

    def main(self, ctx):
        (from_a,) = ctx.initial_links
        yield from ctx.register(_give_op(self.n))
        yield from ctx.open(from_a)
        inc = yield from ctx.wait_request()
        assert len(inc.args) == self.n
        yield from ctx.reply(inc, ())


def _e3_measure(seed, quick):
    out = {}
    for kind in KERNEL_KINDS:
        for n in E3_ENCLOSURES:
            with make_cluster(kind, seed=seed) as cluster:
                a = cluster.spawn(_Giver(n), "giver")
                b = cluster.spawn(_Taker(n), "taker")
                cluster.create_link(a, b)
                cluster.run_until_quiet(max_ms=1e7)
                assert cluster.all_finished, (kind, n, cluster.unfinished())
                out[f"{kind}_n{n}_msgs"] = cluster.metrics.total(
                    "wire.messages.")
    return out


def _fig2_model(n):
    return 2 if n <= 1 else n + 2


def _e3_claims(m):
    for n in E3_ENCLOSURES:
        assert m[f"charlotte_n{n}_msgs"] == _fig2_model(n)
        assert m[f"soda_n{n}_msgs"] == 2
        assert m[f"chrysalis_n{n}_msgs"] == 2


def _e3_table(m):
    t = Table(
        "E3: kernel messages per remote operation moving n link ends (fig. 2)",
        ["n enclosures", "charlotte (fig.2 model)", "charlotte measured",
         "soda measured", "chrysalis measured"],
    )
    for n in E3_ENCLOSURES:
        t.add(n, _fig2_model(n), m[f"charlotte_n{n}_msgs"],
              m[f"soda_n{n}_msgs"], m[f"chrysalis_n{n}_msgs"])
    return t


register_experiment(Experiment(
    id="E3", table_name="e3_enclosures", paper_section="figure 2, §3.2.2",
    measure=_e3_measure, claims=_e3_claims, table=_e3_table,
))


# ----------------------------------------------------------------------
# E6 — §3.2.1's unwanted-message machinery, measured
#
# The two scenarios the paper walks through — a reverse-direction
# request while a reply is awaited, and an open-then-close race — run
# for several rounds on all three kernels.  Charlotte pays bounce
# traffic (retry/forbid/allow) and resends; SODA and Chrysalis, whose
# kernels never hand the runtime an unwanted message, pay nothing (§6:
# "be sure that all received messages are wanted").
# ----------------------------------------------------------------------
E6_ROUNDS = 4
_E6_SCENARIOS = (
    ("rev", "reverse-request", run_reverse_scenario),
    ("oc", "open/close race", run_open_close_scenario),
)
_E6_COUNTERS = ("unwanted", "retry", "forbid", "allow", "resends",
                "messages", "useful_messages")


def _e6_measure(seed, quick):
    out = {}
    for scen, _, run in _E6_SCENARIOS:
        for kind in KERNEL_KINDS:
            d = run(kind, rounds=E6_ROUNDS, seed=seed)
            out.update({f"{scen}_{kind}_{key}": d[key]
                        for key in _E6_COUNTERS if key in d})
    return out


def _e6_claims(m):
    # Charlotte: one bounce round-trip per adversarial round, per §3.2.1
    assert m["rev_charlotte_unwanted"] >= E6_ROUNDS
    assert m["rev_charlotte_forbid"] >= E6_ROUNDS
    assert m["rev_charlotte_allow"] >= E6_ROUNDS
    assert m["oc_charlotte_retry"] >= E6_ROUNDS
    assert m["oc_charlotte_resends"] >= E6_ROUNDS
    # SODA and Chrysalis: zero, structurally — and the bounce counters
    # do not even exist in their digests
    for scen in ("rev", "oc"):
        for kind in ("soda", "chrysalis"):
            assert m[f"{scen}_{kind}_unwanted"] == 0
            assert f"{scen}_{kind}_retry" not in m
            assert f"{scen}_{kind}_forbid" not in m
            # and no overhead messages at all beyond the useful ones
            assert (m[f"{scen}_{kind}_messages"]
                    == m[f"{scen}_{kind}_useful_messages"])


def _e6_table(m):
    t = Table(
        f"E6: unwanted-message traffic over {E6_ROUNDS} adversarial rounds",
        ["scenario", "kernel", "unwanted", "retry", "forbid", "allow",
         "resends", "total msgs", "useful msgs"],
    )
    for scen, label, _ in _E6_SCENARIOS:
        for kind in KERNEL_KINDS:
            t.add(label, kind, *(m.get(f"{scen}_{kind}_{key}")
                                 for key in _E6_COUNTERS))
    return t


register_experiment(Experiment(
    id="E6", table_name="e6_unwanted", paper_section="§3.2.1",
    measure=_e6_measure, claims=_e6_claims, table=_e6_table,
))


# ----------------------------------------------------------------------
# E7 — §3.2's rejected design: top-level reply acknowledgments
#
#   "Such exceptions are not provided under Charlotte because they
#   would require a final, top-level acknowledgment for reply
#   messages, increasing message traffic by 50%."
#
# The ablated Charlotte runtime (``reply_acks=True``) implements exactly
# that acknowledgment; the experiment confirms the 50 % figure (that
# the ablation buys back the server-side `RequestAborted` exception is
# asserted in tests/charlotte/test_runtime_protocol.py).
# ----------------------------------------------------------------------
E7_OPS = 12


class _AddServer(Proc):
    def main(self, ctx):
        (end,) = ctx.initial_links
        yield from ctx.register(ADD)
        yield from ctx.open(end)
        for _ in range(E7_OPS):
            inc = yield from ctx.wait_request()
            yield from ctx.reply(inc, (inc.args[0] + inc.args[1],))


class _AddClient(Proc):
    def main(self, ctx):
        (end,) = ctx.initial_links
        for i in range(E7_OPS):
            yield from ctx.connect(end, ADD, (i, i))


def _e7_messages(reply_acks, seed):
    with make_cluster("charlotte", seed=seed, reply_acks=reply_acks) as cluster:
        s = cluster.spawn(_AddServer(), "server")
        c = cluster.spawn(_AddClient(), "client")
        cluster.create_link(s, c)
        cluster.run_until_quiet(max_ms=1e7)
        assert cluster.all_finished
        return cluster.metrics.total("wire.messages.")


def _e7_measure(seed, quick):
    base, acked = _e7_messages(False, seed), _e7_messages(True, seed)
    return {
        "base_messages": base,
        "acked_messages": acked,
        "traffic_increase": (acked - base) / base,
    }


def _e7_claims(m):
    assert m["base_messages"] == 2 * E7_OPS
    assert m["acked_messages"] == 3 * E7_OPS
    assert near(m["traffic_increase"], PAPER["reply_ack_traffic_increase"],
                1e-6)


def _e7_table(m):
    return paper_vs_measured(
        f"E7: reply acknowledgments over {E7_OPS} remote operations", [
            ("messages without acks", 2 * E7_OPS, m["base_messages"]),
            ("messages with reply acks", 3 * E7_OPS, m["acked_messages"]),
            ("traffic increase", PAPER["reply_ack_traffic_increase"],
             m["traffic_increase"]),
        ])


register_experiment(Experiment(
    id="E7", table_name="e7_reply_ack", paper_section="§3.2",
    measure=_e7_measure, claims=_e7_claims, table=_e7_table,
))


# ----------------------------------------------------------------------
# A1 (ablation) — why forbid/allow exists at all (§3.2.1)
#
#   "If A simply returned requests to B in retry messages, it might be
#   subjected to an arbitrary number of retransmissions.  To prevent
#   these retransmissions we must introduce the forbid and allow
#   messages."
#
# The ablated runtime (``no_forbid=True``) answers every unwanted
# request with a bare retry.  In the reverse-direction scenario A keeps
# a Receive posted for the reply it expects, so B's retried request
# matches it *again* immediately — a bounce loop that runs until B's
# reply finally arrives.  B's reply delay is scaled and retransmissions
# grow without bound in the ablated runtime while the real one stays at
# one bounce per round.
# ----------------------------------------------------------------------
A1_DELAYS = (1.0, 150.0, 400.0)
A1_ROUNDS = 2
_A1_VARIANTS = (("forbid", {}), ("retry-only", {"no_forbid": True}))
_A1_COUNTERS = ("unwanted", "retry", "resends", "messages")


def _a1_measure(seed, quick):
    out = {}
    for variant, kw in _A1_VARIANTS:
        for delay in A1_DELAYS:
            d = run_reverse_scenario("charlotte", rounds=A1_ROUNDS, seed=seed,
                                     reply_delay_ms=delay, **kw)
            out.update({f"{variant}_{delay:g}ms_{key}": d[key]
                        for key in _A1_COUNTERS})
    return out


def _a1_claims(m):
    for delay in A1_DELAYS:
        # the real runtime bounces each unwanted request exactly once,
        # independent of how long B sits on the reply
        assert m[f"forbid_{delay:g}ms_unwanted"] == A1_ROUNDS
        assert m[f"forbid_{delay:g}ms_resends"] == A1_ROUNDS
        # the ablation's bounce count grows with the reply delay
        assert (m[f"retry-only_{delay:g}ms_resends"]
                >= m[f"forbid_{delay:g}ms_resends"])
    slow = m[f"retry-only_{A1_DELAYS[-1]:g}ms_resends"]
    assert slow > m[f"retry-only_{A1_DELAYS[0]:g}ms_resends"], (
        "retransmissions should grow with the unwanted window"
    )
    assert slow >= 3 * A1_ROUNDS


def _a1_table(m):
    t = Table(
        f"A1: forbid/allow vs bare retry ({A1_ROUNDS} reverse-request rounds)",
        ["variant", "B's reply delay ms", "unwanted received",
         "retries sent", "resends", "total msgs"],
    )
    for variant, _ in _A1_VARIANTS:
        for delay in A1_DELAYS:
            t.add(variant, delay, *(m[f"{variant}_{delay:g}ms_{key}"]
                                    for key in _A1_COUNTERS))
    return t


register_experiment(Experiment(
    id="A1", table_name="a1_retry_only", paper_section="§3.2.1",
    measure=_a1_measure, claims=_a1_claims, table=_a1_table,
))


# ----------------------------------------------------------------------
# A3 (ablation) — the §3.2.2 loss window, measured as a curve
#
#   "a) Process A sends a request to process B, enclosing the end of a
#   link.  b) B receives the request unintentionally ...  c) The
#   sending coroutine in A feels an exception, aborting the request.
#   d) B crashes before it can send the enclosure back to A in a
#   forbid message.  From the point of view of language semantics, the
#   message to B was never sent, yet the enclosure has been lost."
#
# The deviation only bites inside a *window*: after the kernel has
# matched the request into B (too late to cancel) and before B's forbid
# returns the enclosure.  B's crash time slides across that window on
# all three kernels — Charlotte loses the enclosure exactly inside the
# window; SODA and Chrysalis never lose it at any crash time (§6
# item 3).
# ----------------------------------------------------------------------
#: crash instants (ms).  B's Receive is pre-posted (that is what makes
#: it receive the request "unintentionally"), so the kernel matches
#: A's send almost immediately: the ambiguity window opens at ~1 ms
#: and closes when B's forbid returns the enclosure (~70 ms here).
A3_CRASH_TIMES = (5.0, 45.0, 60.0, 75.0, 200.0)
A3_ABORT_AT = 40.0


class _Aborter(Proc):
    def __init__(self):
        self.given_ref = None

    def requester(self, ctx, to_b, enc):
        try:
            yield from ctx.connect(to_b, GIVE, (enc,))
        except (ThreadAborted, LinkDestroyed):
            pass

    def main(self, ctx):
        (to_b,) = ctx.initial_links
        mine, theirs = yield from ctx.new_link()
        self.given_ref = theirs.end_ref
        t = yield from ctx.fork(self.requester(ctx, to_b, theirs), "req")
        yield from ctx.delay(A3_ABORT_AT)
        yield from ctx.abort(t)
        yield from ctx.delay(1e9)  # outlive the horizon (see E-divergence)


class _ReplyWaiter(Proc):
    def main(self, ctx):
        (to_a,) = ctx.initial_links
        try:
            yield from ctx.connect(to_a, ECHO, (b"never answered",))
        except LinkDestroyed:
            pass
        yield from ctx.delay(1e9)


def _enclosure_safe(kind, crash_at, seed):
    """1.0 when A still owns the enclosure it tried to give away after
    B crashed at ``crash_at``, 0.0 when the enclosure was lost."""
    with make_cluster(kind, seed=seed) as cluster:
        a_prog = _Aborter()
        a = cluster.spawn(a_prog, "A")
        b = cluster.spawn(_ReplyWaiter(), "B")
        cluster.create_link(a, b)
        cluster.engine.schedule(crash_at, cluster.crash_process, "B",
                                CrashMode.PROCESSOR)
        cluster.run_until_quiet(max_ms=5e4)
        ref = a_prog.given_ref
        disp = cluster.registry.disposition_of(ref)
        if (disp is EndDisposition.OWNED
                and cluster.registry.owner_of(ref) == "A"):
            return 1.0
        assert (disp is EndDisposition.LOST
                or cluster.registry.is_destroyed(ref.link)), (
                    kind, crash_at, disp)
        return 0.0


def _a3_measure(seed, quick):
    out = {}
    for kind in KERNEL_KINDS:
        # Chrysalis is ~25x faster: scale its window
        scale = 25.0 if kind == "chrysalis" else 1.0
        for crash_at in A3_CRASH_TIMES:
            out[f"{kind}_crash{crash_at:g}ms_safe"] = _enclosure_safe(
                kind, crash_at / scale, seed)
    return out


def _a3_claims(m):
    # SODA and Chrysalis never lose the enclosure, at any instant
    for kind in ("soda", "chrysalis"):
        for crash_at in A3_CRASH_TIMES:
            assert m[f"{kind}_crash{crash_at:g}ms_safe"] == 1.0, (kind,
                                                                  crash_at)
    # Charlotte: lost everywhere inside the window, safe once the
    # forbid has returned the enclosure
    for crash_at in (5.0, 45.0, 60.0):
        assert m[f"charlotte_crash{crash_at:g}ms_safe"] == 0.0, crash_at
    for crash_at in (75.0, 200.0):
        assert m[f"charlotte_crash{crash_at:g}ms_safe"] == 1.0, crash_at


def _a3_table(m):
    t = Table(
        f"A3: enclosure fate vs crash instant (abort at {A3_ABORT_AT} ms)",
        ["crash at (ms)", *KERNEL_KINDS],
    )
    for crash_at in A3_CRASH_TIMES:
        t.add(crash_at, *("safe" if m[f"{kind}_crash{crash_at:g}ms_safe"]
                          else "LOST" for kind in KERNEL_KINDS))
    return t


register_experiment(Experiment(
    id="A3", table_name="a3_crash_window", paper_section="§3.2.2",
    measure=_a3_measure, claims=_a3_claims, table=_a3_table,
))
