"""Charlotte's three-party link-move agreement protocol.

Paper §6, lesson one: "The Charlotte kernel admits that a link end has
been moved only when all three parties agree.  The protocol for
obtaining such agreement was a major source of problems in the kernel,
particularly in the presence of failures and simultaneously-moving
ends [3]."

The three parties for a move of end E (of link M), enclosed in a
message from process S to process R, are the kernels of S, R, and F —
the process holding M's *other* end.  The protocol here:

1. S's kernel acquires M's move lock.  A concurrent move of M's other
   end holds the same lock; the loser retries after a backoff (each
   retry costs a NACK round trip — counted under
   ``charlotte.move_retries``).
2. S's kernel sends FREEZE to F's kernel and waits for the ACK — two
   inter-kernel messages on the critical path of the carrying
   message's delivery.
3. After the carrying message is delivered, R's kernel sends COMMIT to
   F's kernel (off the critical path) and the lock is released.

This yields **3 inter-kernel messages per moved end** (plus 2 per lock
retry), versus zero extra kernel messages for SODA/Chrysalis hints —
experiment E11's comparison.

Simultaneously-moving ends (paper figure 1) are exercised by the
conformance suite: the per-link lock serialises the two moves and both
far ends remain oblivious.

The protocol is functions of the kernel, not an object the kernel
keeps: an object holding its kernel would be a reference cycle, and a
finished cluster could not go by reference counting
(`repro.core.cluster.ClusterBase.close`).
"""

from __future__ import annotations

from typing import Callable, TYPE_CHECKING

from repro.core.links import EndRef

if TYPE_CHECKING:  # pragma: no cover
    from repro.charlotte.kernel import CharlotteKernel, _KLink

#: backoff before retrying a contended move lock, ms
MOVE_RETRY_BACKOFF_MS = 5.0
#: bytes of an inter-kernel control frame
CONTROL_FRAME_BYTES = 32


def _msg_cost(k: "CharlotteKernel") -> float:
    """One inter-kernel protocol message: kernel processing plus a
    control frame on the ring."""
    k.metrics.count("charlotte.move_msgs")
    return k.costs.move_protocol_msg_ms + k.ring.transit_time(
        CONTROL_FRAME_BYTES
    )


def move(
    k: "CharlotteKernel", enc: EndRef, on_ready: Callable[[float], None]
) -> None:
    """Begin the agreement for moving ``enc``.  Calls
    ``on_ready(extra_ms)`` once the freeze handshake is done;
    ``extra_ms`` is protocol time added to the carrying message's
    delivery.  The caller must later invoke `commit` when the carrying
    message is delivered."""
    klink = k.links.get(enc.link)
    if klink is None:
        on_ready(0.0)
        return
    _attempt(k, klink, on_ready, 0.0)


def _attempt(
    k: "CharlotteKernel", klink: "_KLink", on_ready: Callable[[float], None],
    extra_acc: float,
) -> None:
    """One try at ``klink``'s move lock; ``extra_acc`` is the
    protocol time the earlier tries already cost."""
    if klink.destroyed:
        on_ready(extra_acc)
        return
    if klink.move_locked:
        # lost the race with a move of the other end: NACK round
        # trip plus backoff, then try again (fig. 1 serialiser)
        k.metrics.count("charlotte.move_retries")
        extra_acc += _msg_cost(k) + _msg_cost(k)
        k.engine.defer(
            MOVE_RETRY_BACKOFF_MS, _attempt, k, klink, on_ready, extra_acc
        )
        return
    klink.move_locked = True
    # FREEZE to F's kernel and its ACK, on the critical path
    on_ready(extra_acc + (_msg_cost(k) + _msg_cost(k)))


def commit(k: "CharlotteKernel", enc: EndRef, to_proc: str) -> None:
    """All three parties agree; ownership changes and the lock
    drops.  The COMMIT message to F's kernel is off the critical
    path (charged to metrics, not to the delivery latency)."""
    klink = k.links.get(enc.link)
    if klink is None:
        return
    kend = klink.ends[enc.side]
    kend.owner = to_proc
    kend.node = k.node_of(to_proc)
    kend.moving = False
    klink.move_locked = False
    _msg_cost(k)  # COMMIT
    k.metrics.count("charlotte.moves_committed")
    if not klink.destroyed:
        # a sender parked on the far end may now be matchable again
        k._try_match(klink)
