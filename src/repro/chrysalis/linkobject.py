"""The shared-memory link object (paper §5.2).

"A link is represented by a memory object, mapped into the address
spaces of the two connected processes.  The memory object contains
buffer space for a single request and a single reply in each
direction.  It also contains a set of flag bits and the names of the
dual queues for the processes at each end of the link."

Layout notes:

* A buffer slot exists per (kind, sending side): four in all.
* Flag bits mirror the slots (`FULL`) plus `DESTROYED`; they are only
  ever changed through `ChrysalisPort.atomic` (the cheap 16-bit
  microcoded op).
* ``dq_names[side]`` is the dual queue of the process at that end —
  *a hint*, updated non-atomically on adoption (§5.2's wide-write
  discussion); stale values send notices to the wrong queue, whose
  owner discards them, and correctness is preserved because flags are
  the absolute truth.
* ``aborted[side]`` records request seqs whose client coroutine was
  aborted after the request was consumed — shared memory is what lets
  Chrysalis "detect all the exceptional conditions described in the
  language definition, without any extra acknowledgments" (§6).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.wire import WireMessage


class NoticeCode(enum.Enum):
    NEW_REQ = "new-req"
    NEW_REP = "new-rep"
    CONSUMED_REQ = "consumed-req"
    CONSUMED_REP = "consumed-rep"
    DESTROYED = "destroyed"


@dataclass(frozen=True)
class Notice:
    """A dual-queue datum: (link object, what happened, which side did
    it, message seq).  Notices are hints; every consumer validates
    against the flags before acting (§5.2)."""

    oid: int
    link: int
    code: NoticeCode
    side: int  # the side that *performed* the action
    seq: int = 0


#: flag masks: a FULL bit per (kind, sender side), and DESTROYED.  A
#: reader tests ``obj.flags & FULL[kind, side]`` or ``obj.flags &
#: DESTROYED``: reads of shared memory are free at this grain
FULL = {("req", 0): 1, ("req", 1): 2, ("rep", 0): 4, ("rep", 1): 8}
DESTROYED = 16


class LinkObject:
    """Contents of one link's memory object.  All mutation must go
    through `ChrysalisPort.atomic` / `wide_write` so costs are charged;
    reads of shared memory are free at this grain."""

    def __init__(self, link: int, dq_a: int, dq_b: int) -> None:
        self.link = link
        self.flags: int = 0
        #: dual-queue name hints, by side
        self.dq_names: List[int] = [dq_a, dq_b]
        #: message buffers by (kind, sender side)
        self.buffers: Dict[Tuple[str, int], Optional[WireMessage]] = {
            ("req", 0): None,
            ("req", 1): None,
            ("rep", 0): None,
            ("rep", 1): None,
        }
        #: aborted request seqs, by requester side
        self.aborted: Tuple[Set[int], Set[int]] = (set(), set())
        self.destroy_reason: str = ""

    # flag writers (call inside port.atomic) ------------------------------
    def set_full(self, kind: str, side: int) -> None:
        self.flags |= FULL[kind, side]

    def clear_full(self, kind: str, side: int) -> None:
        self.flags &= ~FULL[kind, side]

    def set_destroyed(self, reason: str = "") -> None:
        self.flags |= DESTROYED
        self.destroy_reason = reason
