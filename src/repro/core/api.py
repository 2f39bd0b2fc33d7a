"""The public API of the reproduction.

Most users need exactly this module::

    from repro.core.api import (
        Proc, Operation, INT, STR, BYTES, LINK, make_cluster,
    )

    PING = Operation("ping", request=(BYTES,), reply=(BYTES,))

    class Server(Proc):
        def main(self, ctx):
            (end,) = ctx.initial_links
            yield from ctx.register(PING)
            yield from ctx.open(end)
            inc = yield from ctx.wait_request()
            yield from ctx.reply(inc, (inc.args[0],))

    class Client(Proc):
        def main(self, ctx):
            (end,) = ctx.initial_links
            (echo,) = yield from ctx.connect(end, PING, (b"hi",))

    cluster = make_cluster("chrysalis")
    s = cluster.spawn(Server())
    c = cluster.spawn(Client())
    cluster.create_link(s, c)
    cluster.run_until_quiet()

The ``kind`` argument of `make_cluster` selects the kernel substrate
from the registry in `repro.core.ports` — the paper's three kernels
(``"charlotte"``, ``"soda"``, ``"chrysalis"``) plus the ``"ideal"``
reference backend.  The same program runs on any of them, which is the
paper's experimental setup.
"""

from __future__ import annotations

from typing import Optional

from repro.core.cluster import ClusterBase, ProcessHandle
from repro.core.context import LynxContext
from repro.core.costs import CostModel
from repro.core.exceptions import (
    LinkDestroyed,
    LinkMoved,
    LynxError,
    MoveRestricted,
    RecoveryExhausted,
    RemoteCrash,
    RequestAborted,
    ThreadAborted,
    TypeClash,
)
from repro.core.links import LinkEnd
from repro.core.ports import (
    KernelCapabilities,
    KernelProfile,
    KernelRuntimePort,
    kernel_profile,
    load,
    paper_kernels,
    register_kernel,
    registered_kernels,
)
from repro.core.program import Incoming, Proc
from repro.core.recovery import RecoveryPolicy
from repro.core.types import (
    BOOL,
    BYTES,
    INT,
    LINK,
    REAL,
    STR,
    ArrayType,
    Operation,
    RecordType,
)
from repro.sim.backends import make_engine, registered_sim_backends
from repro.sim.faults import CrashMode, FaultPlan, FaultSpec

#: the paper's kernel substrates (the experimental setup's three
#: systems); `registered_kernels()` additionally lists reference
#: backends such as ``"ideal"``
KERNEL_KINDS = paper_kernels()


def make_cluster(
    kind: str,
    seed: int = 0,
    costmodel: Optional[CostModel] = None,
    **kwargs,
) -> ClusterBase:
    """Build a cluster of the requested kernel family.

    ``kind`` is any backend registered in `repro.core.ports`.  Extra
    keyword arguments are forwarded to the cluster constructor (e.g.
    ``broadcast_loss=`` for SODA, ``reply_acks=True`` for Charlotte's
    E7 ablation, and ``sim_backend=``/``shards=`` to run the cluster on
    an engine from `repro.sim.backends`).  ``costmodel`` is the one way
    to change a calibrated constant, e.g. the §5.3 tuned Chrysalis
    profile ``CostModel(chrysalis=ChrysalisCosts().tuned())``.
    """
    cluster_cls = load(kernel_profile(kind).factory)
    return cluster_cls(seed=seed, costmodel=costmodel, **kwargs)


__all__ = [
    "make_cluster",
    "KERNEL_KINDS",
    "KernelRuntimePort",
    "KernelCapabilities",
    "KernelProfile",
    "register_kernel",
    "registered_kernels",
    "paper_kernels",
    "kernel_profile",
    "make_engine",
    "registered_sim_backends",
    "CostModel",
    "ClusterBase",
    "ProcessHandle",
    "LynxContext",
    "Proc",
    "Incoming",
    "LinkEnd",
    "Operation",
    "INT",
    "REAL",
    "BOOL",
    "STR",
    "BYTES",
    "LINK",
    "ArrayType",
    "RecordType",
    "CrashMode",
    "FaultPlan",
    "FaultSpec",
    "RecoveryPolicy",
    "LynxError",
    "LinkDestroyed",
    "RemoteCrash",
    "TypeClash",
    "RequestAborted",
    "MoveRestricted",
    "LinkMoved",
    "ThreadAborted",
    "RecoveryExhausted",
]
