"""The reified kernel/runtime interface (the paper's thesis, §2.3).

Two things live here:

`KernelRuntimePort`
    the explicit contract between the kernel-independent LYNX runtime
    (`repro.core.runtime.LynxRuntimeBase`) and a kernel substrate: the
    ``rt_*`` *downcalls* the runtime makes into the kernel glue, and
    the ``notify_*`` / ``deliver_*`` *upcalls* the glue makes back.
    The paper argues the placement of exactly this line decides how
    awkward the language implementation becomes; here the line is a
    single documented protocol instead of folklore spread over three
    runtime files.

`KernelProfile` + the registry
    one entry per backend: its cluster class as a ``"module:Name"``
    string that `load` resolves on first use, capability / divergence
    flags and everything the workloads / benches previously derived
    from ``if kind == "charlotte"`` string comparisons.  New backends
    register here and every layer above — `make_cluster`, the CLI,
    the conformance suite, the benches, the E2 complexity table —
    picks them up without modification.

The ``ideal`` backend (`repro.ideal`) exists to prove the port is
sufficient: it is written only against this module's contract and
passes the same conformance suite as the paper's three kernels.

See docs/PORTS.md for the contract in prose and a registration
walkthrough.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module
from typing import (
    Any,
    Dict,
    Generator,
    Mapping,
    Optional,
    Protocol,
    Tuple,
    TYPE_CHECKING,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.cluster import ClusterBase
    from repro.core.links import EndRef, EndState
    from repro.core.wire import WireMessage


class KernelRuntimePort(Protocol):
    """What a kernel-specific runtime owes the shared LYNX core.

    `repro.core.runtime.LynxRuntimeBase` implements every LYNX
    language operation (connect/reply, enclosure staging, queue
    control, thread scheduling) in kernel-independent code and calls
    the ``rt_*`` hooks below at the points where kernel primitives
    differ.  A backend implements this protocol by subclassing
    `LynxRuntimeBase` and overriding the hooks; the upcalls at the
    bottom are inherited and may be invoked from kernel callbacks.

    Unless marked *plain*, every downcall is a simulation generator:
    it may ``yield`` sim futures/sleeps and its ``return`` value is
    what ``yield from`` produces.  Plain methods must not block.

    Downcalls (runtime → kernel glue):

    ``rt_startup()``
        Runs once before the program's ``main``.  Post: kernel-side
        tables for this process exist; initial links are usable.

    ``rt_new_link()``
        Allocate a fresh link; return ``(my_ref, peer_ref)``.  Post:
        both `EndRef`\\ s are registered with the link registry and
        both ends are immediately usable by this process.

    ``rt_send_request(es, msg)``
        Transmit a REQUEST on owned end ``es``.  Pre: enclosures are
        staged (IN_TRANSIT) and ``es.outgoing[msg.seq]`` is recorded —
        `LynxRuntimeBase._stage` is the one place that establishes
        both.
        Post (eventually): the peer runtime sees the message via its
        request queue and the sender gets `notify_receipt` (receipt
        confirmed) or `notify_bounce` (returned undelivered).  When a
        `repro.sim.faults.FaultInjector` is installed, the shared core
        judges the message *before* making this downcall (a dropped
        message never reaches the kernel glue); retransmissions reuse
        ``msg.seq``, and duplicate deliveries are suppressed by the
        shared core, so backends need no fault awareness of their own.

    ``rt_send_reply(es, msg)``
        Transmit a REPLY for request ``msg.reply_to``.  Pre: the
        request seq is in ``es.owed_replies``.  Raises
        `RequestAborted` *before* any state change on kernels that
        can feel a withdrawn request at reply time.  Post: either the
        requester's `deliver_reply` runs, or the reply is dropped
        because the requester withdrew.

    ``rt_sync_interest(es)``
        The process newly awaits traffic on ``es`` (opened the queue
        or blocked on a reply).  Kernels with explicit flow control
        (Charlotte's allow/forbid) act here; others no-op.

    ``rt_block_wait()``
        Block until kernel activity may have changed runtime state.
        Pre: the calling thread found nothing deliverable.  Post:
        returns after any event that could unblock a thread
        (level-triggered wakeup is fine).

    ``rt_request_available(es)`` *(plain, no side effect)*
        True when a request on ``es`` could be consumed right now
        without blocking.  Must not block, must not consume, must not
        change any state: a pure query.  `_pick_queue` stops asking at
        the first end that answers True, so how many ends are asked
        (and which) depends on the round-robin order.

    ``rt_take_request(es)``
        Dequeue and return the next incoming REQUEST `WireMessage`
        on ``es``.  Pre: ``rt_request_available(es)`` was true.
        Post: receipt is confirmed to the sender (its
        `notify_receipt` ran) on kernels that acknowledge at
        consumption time.

    ``rt_destroy(es, reason)``
        Destroy the link owning ``es``.  Pre: core bookkeeping for
        the local end is already torn down (`_mark_destroyed` ran).
        Post: the peer (if any) eventually gets `notify_destroyed`;
        in-flight enclosures are bounced or lost per the kernel's
        semantics; the registry records the destruction.

    ``rt_abort_connect(es, waiter)``
        The client thread blocked on request ``waiter.seq`` was
        aborted.  Return True if the request was withdrawn unseen
        (the server will never observe it; the base then restores the
        enclosures), False if the server already has it — then a
        later ``rt_send_reply`` may raise `RequestAborted` on capable
        kernels.

    ``rt_export_end(es)`` *(plain)*
        Kernel-specific metadata dict describing ``es`` for enclosure
        in a message (e.g. SODA names, Chrysalis object
        capabilities).  Pure; must not mutate state.

    ``rt_adopt_end(ref, meta)``
        Adopt a received enclosure: ``meta`` is the sender's
        ``rt_export_end`` payload.  Post: the end is OWNED here,
        pending traffic for it is routed here, and if the link died
        in transit the adopter observes `notify_destroyed`.

    Upcalls (kernel glue → shared runtime, all *plain* and safe from
    kernel callbacks):

    ``deliver_reply(ref, msg)``
        Hand a REPLY to the owner of ``ref``; matched against the
        connect waiter (dropped silently if the waiter aborted).

    ``notify_receipt(ref, seq)``
        Our message ``seq`` on ``ref`` was received: pops
        ``outgoing``, finalises enclosures (IN_TRANSIT → MOVED),
        resumes the stop-and-wait sender.

    ``notify_bounce(ref, seq)``
        Our message ``seq`` came back undelivered: pops ``outgoing``
        and restores enclosures to OWNED.

    ``notify_reply_aborted(ref, seq)``
        The request we were serving was withdrawn; the replier
        thread feels `RequestAborted`.

    ``notify_destroyed(ref, reason, crash=False)``
        The link of ``ref`` is gone: marks local state destroyed and
        wakes every thread blocked on it (errors carry ``reason``;
        ``crash=True`` — or a ``"crash: ..."`` reason, see
        `LynxRuntimeBase.destroyed_error` — raises `RemoteCrash`).
    """

    def rt_startup(self) -> Generator: ...
    def rt_new_link(self) -> Generator: ...
    def rt_send_request(self, es: "EndState", msg: "WireMessage") -> Generator: ...
    def rt_send_reply(self, es: "EndState", msg: "WireMessage") -> Generator: ...
    def rt_sync_interest(self, es: "EndState") -> Generator: ...
    def rt_block_wait(self) -> Generator: ...
    def rt_request_available(self, es: "EndState") -> bool: ...
    def rt_take_request(self, es: "EndState") -> Generator: ...
    def rt_destroy(self, es: "EndState", reason: str) -> Generator: ...
    def rt_abort_connect(self, es: "EndState", waiter: Any) -> Generator: ...
    def rt_export_end(self, es: "EndState") -> dict: ...
    def rt_adopt_end(self, ref: "EndRef", meta: dict) -> Generator: ...
    def deliver_reply(self, ref: "EndRef", msg: "WireMessage") -> None: ...
    def notify_receipt(self, ref: "EndRef", seq: int) -> None: ...
    def notify_bounce(self, ref: "EndRef", seq: int) -> None: ...
    def notify_reply_aborted(self, ref: "EndRef", seq: int) -> None: ...
    def notify_destroyed(
        self, ref: "EndRef", reason: str, crash: bool = False
    ) -> None: ...


@dataclass(frozen=True)
class KernelCapabilities:
    """Observable semantic divergences between backends (§6).

    These drive the conformance suite's expectations and the
    capability-conditional metric digests in ``repro.workloads``.
    """

    #: unwanted messages are bounced back and resent (Charlotte's
    #: no-buffering rule) rather than queued kernel-side
    bounces_unwanted: bool
    #: a server replying to a withdrawn request feels `RequestAborted`
    server_feels_abort: bool
    #: enclosures of an aborted-but-unconsumed request return to the
    #: sender (OWNED) instead of being lost with the link
    recovers_aborted_enclosures: bool
    #: peers of a crashed *processor* observe `RemoteCrash`
    detects_processor_failure: bool
    #: where loss-recovery lives when the network misbehaves
    #: (`repro.sim.faults`): ``"runtime"`` — the kernel delivers hints
    #: and the runtime's `repro.core.recovery.RecoveryPolicy` does
    #: bounded timeout/retry, surfacing `RecoveryExhausted`;
    #: ``"kernel"`` — the kernel promises absolute delivery and
    #: retransmits invisibly, unboundedly (Charlotte, §2.2/§4.1)
    recovery_placement: str = "runtime"


@dataclass(frozen=True)
class KernelProfile:
    """Registry entry describing one kernel backend."""

    #: the ``kind`` string accepted by `make_cluster`
    name: str
    #: the ClusterBase subclass, as a ``"module:Name"`` for `load`
    factory: str
    #: True for the paper's three kernels (drives paper-shaped tables
    #: and anchors); False for reference baselines like ``ideal``
    paper: bool
    capabilities: KernelCapabilities
    #: dotted module paths of the kernel-specific runtime half,
    #: measured by the E2 complexity bench
    runtime_modules: Tuple[str, ...]
    #: kernel-specific metric prefixes (``charlotte.*`` etc.); digest
    #: keys in these namespaces are emitted only for backends that
    #: declare the namespace
    metric_namespaces: frozenset
    #: multiplier for conformance-scenario timings (fast kernels use
    #: small scales so scenario races land in the same regime)
    time_scale: float = 1.0
    #: this backend's Linda adapter class as a ``"module:Name"``, or
    #: None when no second-language port exists
    linda_adapter: Optional[str] = None
    #: the hand-coded raw-RPC baseline function (E1's "no LYNX runtime"
    #: floor) as a ``"module:Name"``, or None
    raw_rpc: Optional[str] = None


def load(name: str) -> Any:
    """Import what a ``"module:Name"`` string names.  The module is
    imported only now, so no kernel package loads before a profile
    lookup chose it."""
    module, _, attr = name.partition(":")
    return getattr(import_module(module), attr)


_REGISTRY: Dict[str, KernelProfile] = {}


def register_kernel(profile: KernelProfile) -> KernelProfile:
    """Register a backend; later registrations may not reuse a name."""
    if profile.name in _REGISTRY:
        raise ValueError(f"kernel {profile.name!r} already registered")
    _REGISTRY[profile.name] = profile
    return profile


def registered_kernels() -> Tuple[str, ...]:
    """Every registered backend name, in registration order."""
    return tuple(_REGISTRY)


def paper_kernels() -> Tuple[str, ...]:
    """The backends that reproduce the paper's systems (§3–§5)."""
    return tuple(n for n, p in _REGISTRY.items() if p.paper)


def kernel_profile(kind: str) -> KernelProfile:
    """Look up one backend, with a helpful error listing what exists."""
    try:
        return _REGISTRY[kind]
    except KeyError:
        raise ValueError(
            f"unknown kernel kind {kind!r}; registered kernels: "
            f"{', '.join(registered_kernels())}"
        ) from None


def kernel_metric_digest(kind, metrics, keys: Mapping) -> dict:
    """Capability-driven slice of a metrics digest.

    ``keys`` maps digest labels to metric names; a label is included
    only when its metric's namespace (the first dotted component) is
    one the backend declares in ``metric_namespaces``.  Machinery a
    kernel does not have is therefore *absent* from the digest rather
    than a misleading ``None``/``0.0`` — consumers test ``key in d``.
    """
    profile = kernel_profile(kind)
    out = {}
    for label, metric in keys.items():
        if metric.split(".", 1)[0] in profile.metric_namespaces:
            out[label] = metrics.get(metric)
    return out


register_kernel(KernelProfile(
    name="charlotte",
    factory="repro.charlotte.cluster:CharlotteCluster",
    paper=True,
    capabilities=KernelCapabilities(
        bounces_unwanted=True,
        server_feels_abort=False,
        recovers_aborted_enclosures=False,
        detects_processor_failure=True,
        recovery_placement="kernel",
    ),
    runtime_modules=("repro.charlotte.runtime",),
    metric_namespaces=frozenset({"charlotte"}),
    raw_rpc="repro.workloads.raw:raw_charlotte_rpc",
    linda_adapter="repro.linda.charlotte_adapter:CharlotteLinda",
))

register_kernel(KernelProfile(
    name="soda",
    factory="repro.soda.cluster:SodaCluster",
    paper=True,
    capabilities=KernelCapabilities(
        bounces_unwanted=False,
        server_feels_abort=True,
        recovers_aborted_enclosures=True,
        detects_processor_failure=True,
    ),
    runtime_modules=("repro.soda.runtime", "repro.soda.freeze"),
    metric_namespaces=frozenset({"soda", "freeze"}),
    raw_rpc="repro.workloads.raw:raw_soda_rpc",
    linda_adapter="repro.linda.soda_adapter:SodaLinda",
))

register_kernel(KernelProfile(
    name="chrysalis",
    factory="repro.chrysalis.cluster:ChrysalisCluster",
    paper=True,
    capabilities=KernelCapabilities(
        bounces_unwanted=False,
        server_feels_abort=True,
        recovers_aborted_enclosures=True,
        detects_processor_failure=False,
    ),
    runtime_modules=("repro.chrysalis.runtime", "repro.chrysalis.linkobject"),
    metric_namespaces=frozenset({"chrysalis"}),
    time_scale=0.05,
    raw_rpc="repro.workloads.raw:raw_chrysalis_rpc",
    linda_adapter="repro.linda.chrysalis_adapter:ChrysalisLinda",
))

register_kernel(KernelProfile(
    name="ideal",
    factory="repro.ideal.cluster:IdealCluster",
    paper=False,
    capabilities=KernelCapabilities(
        bounces_unwanted=False,
        server_feels_abort=True,
        recovers_aborted_enclosures=True,
        detects_processor_failure=True,
    ),
    runtime_modules=("repro.ideal.runtime", "repro.ideal.kernel"),
    metric_namespaces=frozenset({"ideal"}),
    time_scale=0.05,
))

register_kernel(KernelProfile(
    name="real-asyncio",
    factory="repro.net.ideal_framed:NetCluster",
    paper=False,
    capabilities=KernelCapabilities(
        bounces_unwanted=False,
        server_feels_abort=True,
        recovers_aborted_enclosures=True,
        detects_processor_failure=True,
    ),
    runtime_modules=("repro.net.ideal_framed",),
    metric_namespaces=frozenset({"net"}),
    time_scale=0.05,
))


__all__ = [
    "KernelRuntimePort",
    "KernelCapabilities",
    "KernelProfile",
    "register_kernel",
    "registered_kernels",
    "paper_kernels",
    "kernel_profile",
    "load",
    "kernel_metric_digest",
]
