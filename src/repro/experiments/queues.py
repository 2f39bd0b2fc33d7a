"""What the language promises about request queues, and where a
kernel limit leaks through it: SODA's outstanding-request limit (E10,
§4.2.1) and the fairness guarantee (E12, §2.1)."""

from __future__ import annotations

from repro.core.api import INT, KERNEL_KINDS, Operation, Proc, make_cluster
from repro.core.costs import CostModel, SodaCosts
from repro.experiments import Experiment, register_experiment
from repro.obs.report import Table
from repro.sim.metrics import ordered_mean
from repro.workloads.skew import run_skewed_load

ADD = Operation("add", (INT, INT), (INT,))


# ----------------------------------------------------------------------
# E10 — §4.2.1: the outstanding-request limit
#
#   "The implementation described in the previous section would work
#   easily if the limit were large enough to accommodate three
#   requests for every link between the processes ... Too small a
#   limit on outstanding requests would leave the possibility of
#   deadlock when many links connect the same pair of processes.  In
#   practice, a limit of half a dozen or so is unlikely to be
#   exceeded ... but there is no way to reflect the limit to the user
#   in a semantically-meaningful way.  Correctness would start to
#   depend on global characteristics of the process-interconnection
#   graph."
#
# The workload concentrates ``E10_LINKS`` links between one process
# pair, parks a request on each, and opens only the last link's queue.
# The sweep finds the smallest pair-limit under which the served
# request can still get through — below it, the system deadlocks with
# no error anywhere, exactly the paper's complaint.
# ----------------------------------------------------------------------
E10_LINKS = 4
E10_LIMITS = range(1, 2 * E10_LINKS + 2)


class _LastQueueServer(Proc):
    def __init__(self):
        self.served = 0

    def main(self, ctx):
        ends = ctx.initial_links
        yield from ctx.register(ADD)
        yield from ctx.open(ends[-1])
        inc = yield from ctx.wait_request()
        self.served += 1
        yield from ctx.reply(inc, (0,))


class _EveryLinkClient(Proc):
    def one(self, ctx, end):
        yield from ctx.connect(end, ADD, (1, 1))

    def main(self, ctx):
        for end in ctx.initial_links:
            yield from ctx.fork(self.one(ctx, end), "c")
        yield from ctx.delay(1.0)


def _e10_measure(seed, quick):
    out = {"threshold": None}  # stays None when every limit deadlocks
    for limit in E10_LIMITS:
        costs = CostModel(soda=SodaCosts(pair_request_limit=limit))
        with make_cluster("soda", seed=seed, costmodel=costs) as cluster:
            server = _LastQueueServer()
            s = cluster.spawn(server, "server")
            c = cluster.spawn(_EveryLinkClient(), "client")
            for _ in range(E10_LINKS):
                cluster.create_link(c, s)
            cluster.run_until_quiet(max_ms=3000.0)
            out[f"limit{limit}_served"] = server.served
            out[f"limit{limit}_queued"] = cluster.metrics.get(
                "soda.pair_limit_queued")
            if out["threshold"] is None and server.served:
                out["threshold"] = limit
    return out


def _e10_claims(m):
    threshold = m["threshold"]
    assert threshold is not None
    # deadlock region exists (the paper's warning is real) ...
    assert m["limit1_served"] == 0
    assert m["limit2_served"] == 0
    # ... and monotone above the threshold
    for limit in E10_LIMITS:
        if limit >= threshold:
            assert m[f"limit{limit}_served"] == 1
    # the workload posts ~2 requests per link (put + status signal)
    # before the served one can flow: threshold tracks the topology,
    # which is §4.2.1's point about the interconnection graph
    assert 2 * (E10_LINKS - 1) <= threshold <= 2 * E10_LINKS


def _e10_table(m):
    t = Table(
        f"E10: {E10_LINKS} links between one pair; open queue on the last",
        ["pair limit", "request served", "requests queued at kernel"],
    )
    for limit in E10_LIMITS:
        t.add(limit, "yes" if m[f"limit{limit}_served"] else "DEADLOCK",
              m[f"limit{limit}_queued"])
    t.add("threshold", m["threshold"], "")
    return t


register_experiment(Experiment(
    id="E10", table_name="e10_request_limit", paper_section="§4.2.1",
    measure=_e10_measure, claims=_e10_claims, table=_e10_table,
))


# ----------------------------------------------------------------------
# E12 — §2.1's fairness guarantee, measured
#
#   "For the sake of fairness, an implementation must guarantee that
#   no queue is ignored forever."
#
# One chatty client floods the server's first link; quiet clients
# arrive on other links mid-flood.  The measure is the longest run of
# chatty services a quiet request had to sit through — which must stay
# bounded (round-robin gives ~1) and must not grow with the flood
# length.
# ----------------------------------------------------------------------
E12_FLOODS = (8, 24)
E12_QUIET = 3


def _e12_measure(seed, quick):
    out = {}
    for kind in KERNEL_KINDS:
        for flood in E12_FLOODS:
            d = run_skewed_load(kind, quiet_clients=E12_QUIET,
                                chatty_requests=flood, seed=seed)
            lats = d["quiet_latencies_ms"]
            out[f"{kind}_flood{flood}_worst_chatty_run"] = (
                d["worst_chatty_run_before_quiet"])
            out[f"{kind}_flood{flood}_quiet_mean_ms"] = ordered_mean(lats)
            out[f"{kind}_flood{flood}_quiet_max_ms"] = max(lats)
    return out


def _e12_claims(m):
    small, large = E12_FLOODS
    for kind in KERNEL_KINDS:
        for flood in E12_FLOODS:
            # a quiet request never waits behind more than a handful of
            # chatty services once it is deliverable
            assert m[f"{kind}_flood{flood}_worst_chatty_run"] <= 6, (kind,
                                                                     flood)
        # latency does not scale with the flood length
        assert (m[f"{kind}_flood{large}_quiet_mean_ms"]
                < m[f"{kind}_flood{small}_quiet_mean_ms"] * (large / small)
                ), kind


def _e12_table(m):
    t = Table(
        f"E12: fairness under skew ({E12_QUIET} quiet clients vs a flood)",
        ["kernel", "flood len", "worst chatty run", "quiet mean ms",
         "quiet max ms"],
    )
    for kind in KERNEL_KINDS:
        for flood in E12_FLOODS:
            t.add(kind, flood, *(m[f"{kind}_flood{flood}_{key}"] for key in (
                "worst_chatty_run", "quiet_mean_ms", "quiet_max_ms")))
    return t


register_experiment(Experiment(
    id="E12", table_name="e12_fairness", paper_section="§2.1",
    measure=_e12_measure, claims=_e12_claims, table=_e12_table,
))
