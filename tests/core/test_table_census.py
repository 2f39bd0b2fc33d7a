"""The table census: every table a live cluster holds is bounded or
declared, and a table that grows with ops is named.

`test_host_cost.py`'s alive-bytes guard sees *that* a kept cluster
grows; this guard says *which* table does.  It keeps every cluster a
workload builds alive, with `ClusterBase.close` made a no-op as in that
guard, and walks it: from the cluster through ``vars()`` and
``__slots__`` of every `repro` object, and through the keys and values
of every ``dict`` / ``list`` / ``set`` / ``deque`` it meets.  Each
table's ``len()`` is summed per attribute path (``Owner.attr``, over
every instance of the owner), and a 100-op run is subtracted from a
300-op run.  A path that gains one entry per ten ops or more grows
with ops and fails the test, named.  A table inside a table that grows
(`Interrupt.oob` of each interrupt `_SodaEnd.incoming_rids` keeps) is
that table's growth, not a second finding.  What a generator frame or
a closure holds is not walked.

Three kinds are declared, and exempt from the growth test:

- a ``deque`` with ``maxlen`` (the trace log's rows): the bound is read
  from the object;
- a `SeqWindow`, held instead to its own bound of twice
  `repro.core.links.REPLY_CACHE_LIMIT`.  The census shrinks that limit
  to `WINDOW_LIMIT`, so the bound falls inside a 100-op run and a window
  that stops evicting overflows it.  Destroying an end empties its
  windows, and every run ends by destroying its links, so each end is
  walked once more as it is destroyed;
- a workload's own result list (`WORKLOAD_RESULTS`).

The cases are rpc / move / chaos on all four kernels, plus an
in-process `NodeServer` driven by `_run_load` clients that finish.  The
walk named each bounded table when its bound was taken out again on a
copy of the tree: SODA's request table keeping finished requests
(`SodaKernel._requests`), a `SeqWindow` that never evicts
(`EndState.served` / `EndState.consumed`, over their bound), and the
link registry's transition log (`LinkRegistry.log`).
"""

import asyncio
from collections import Counter, deque
from typing import Dict, NamedTuple, Set

import pytest

from repro.core import links
from repro.core.cluster import ClusterBase
from repro.core.links import SeqWindow
from repro.core.recovery import RecoveryPolicy
from repro.core.runtime import LynxRuntimeBase
from repro.net.load import LoadReport, _run_load
from repro.net.server import NodeServer
from tests.core.test_host_cost import GARBAGE_RUNS, _keep_every_cluster
from tests.net.node_protocol import serve_unix

#: a path grows with ops when it gains this many entries per op or more
GROWTH_PER_OP = 0.1

#: the eviction limit the census runs with: a window's bound, twice
#: this, is reached inside the 100-op run
WINDOW_LIMIT = 8

#: what a workload returns to its caller, not what the system keeps
WORKLOAD_RESULTS = frozenset({
    "PingClient.rtts", "ChaosClient.rtts",
    "Observer.rtts", "Observer.servers",
})

#: the paths known to grow, by case: each is an open finding
KNOWN_GROWTH = {
    # SODA's parked status signals: the receiver keeps one withdrawn
    # signal per open / close cycle of the far end
    ("chaos_lossy", "soda"): {"_SodaEnd.incoming_rids"},
}

KERNELS = ("charlotte", "soda", "chrysalis", "ideal")

_TABLES = (dict, list, set, deque)


class Census(NamedTuple):
    """One walk: the summed ``len()`` of every table by path, the
    table paths each path was reached inside, and the paths of windows
    that hold more than their bound."""

    sizes: Counter
    inside: Dict[str, Set[str]]
    overflow: Set[str]


def census(roots) -> Census:
    """Walk everything ``roots`` reach (see the module docstring)."""
    found = Census(Counter(), {}, set())
    bound = 2 * links.REPLY_CACHE_LIMIT
    seen = set()
    todo = [(root, type(root).__name__, ()) for root in roots]
    while todo:
        obj, path, via = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, SeqWindow):
            if len(obj) > bound:
                found.overflow.add(path)
        elif isinstance(obj, deque) and obj.maxlen is not None:
            pass
        elif isinstance(obj, _TABLES):
            found.sizes[path] += len(obj)
            found.inside.setdefault(path, set()).update(via)
            elements = ([*obj.keys(), *obj.values()]
                        if isinstance(obj, dict) else obj)
            todo.extend((e, path, via + (path,)) for e in elements)
        elif isinstance(obj, tuple):
            todo.extend((e, path, via) for e in obj)
        elif type(obj).__module__.startswith("repro."):
            owner = type(obj).__name__
            attrs = dict(getattr(obj, "__dict__", {}))
            for klass in type(obj).__mro__:
                for slot in getattr(klass, "__slots__", ()):
                    if hasattr(obj, slot):
                        attrs[slot] = getattr(obj, slot)
            todo.extend((v, f"{owner}.{attr}", via)
                        for attr, v in attrs.items())
    return found


def grown_paths(small: Census, large: Census, ops: int) -> Set[str]:
    """The paths that gain at least `GROWTH_PER_OP` entries per op
    from ``small`` to ``large``, ``ops`` ops apart, leaving out the
    declared results and whatever sits inside a table that grows."""
    assert not small.overflow | large.overflow, (
        f"a SeqWindow holds more than its bound at "
        f"{sorted(small.overflow | large.overflow)}"
    )
    grown = {path for path, size in large.sizes.items()
             if path not in WORKLOAD_RESULTS
             and size - small.sizes[path] >= GROWTH_PER_OP * ops}
    return {path for path in grown
            if not (large.inside[path] - {path}) & grown}


@pytest.fixture
def small_windows(monkeypatch):
    """Shrinks the eviction limit to `WINDOW_LIMIT`, and walks every
    end as it is destroyed: the paths found over their bound."""
    monkeypatch.setattr(links, "REPLY_CACHE_LIMIT", WINDOW_LIMIT)
    overflow = set()
    destroy = LynxRuntimeBase._mark_destroyed

    def walked(runtime, es, reason, crash):
        overflow.update(census([es]).overflow)
        destroy(runtime, es, reason, crash)

    monkeypatch.setattr(LynxRuntimeBase, "_mark_destroyed", walked)
    return overflow


@pytest.mark.parametrize("kind", KERNELS)
@pytest.mark.parametrize("workload", sorted(GARBAGE_RUNS))
def test_no_table_of_a_kept_cluster_grows_with_ops(
    workload, kind, monkeypatch, small_windows
):
    clusters = _keep_every_cluster(monkeypatch)
    monkeypatch.setattr(ClusterBase, "close", lambda self: None)
    run = GARBAGE_RUNS[workload]

    def taken(count):
        clusters.clear()
        run(kind, count)
        return census(clusters)

    grown = grown_paths(taken(100), taken(300), 200)
    assert grown == KNOWN_GROWTH.get((workload, kind), set()), (
        f"{workload} on {kind}: tables that grow with ops: {sorted(grown)}"
    )
    assert not small_windows, (
        f"{workload} on {kind}: a dying end's SeqWindow holds more than "
        f"its bound at {sorted(small_windows)}"
    )


#: the node's load: runs of twenty clients that each send five
#: requests, then say ``__bye__``; the first replies are withheld, so
#: retries are replayed
NODE_CLIENTS, NODE_REQUESTS = 20, 5
NODE_POLICY = RecoveryPolicy(timeout_ms=50.0, max_retries=3, jitter_frac=0.0)


def test_no_table_of_a_node_grows_with_its_clients(tmp_path, small_windows):
    """One node serves runs of clients that finish, and is walked after
    it has executed 100 and 300 requests."""
    endpoint = str(tmp_path / "node.sock")
    node = NodeServer("census", drop_first=2)
    taken = {}

    async def drive():
        server = await serve_unix(node, endpoint)
        async with server:
            while node.executed_unique < 300:
                await _run_load([endpoint], NODE_CLIENTS, NODE_REQUESTS,
                                32, NODE_POLICY,
                                LoadReport(clients=NODE_CLIENTS))
                for _ in range(200):  # the last byes may be in flight
                    if not node.windows:
                        break
                    await asyncio.sleep(0.01)
                taken[node.executed_unique] = census([node])

    asyncio.run(asyncio.wait_for(drive(), 60.0), debug=False)
    assert sorted(taken) == [100, 200, 300]
    grown = grown_paths(taken[100], taken[300], 200)
    assert not grown, f"the node's tables that grow with ops: {sorted(grown)}"
