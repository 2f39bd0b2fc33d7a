"""The logical link registry: ground truth for invariants and tests.

The paper's figure 1 and §3.2.2 hinge on questions like *who really
owns this end right now?* and *was this enclosure lost?*  Real systems
have no such oracle — that is rather the point of the paper's hint
systems — but the reproduction needs one to *verify* the hint systems.
Runtimes report every lifecycle transition here, and it keeps each
end's current owner and disposition, not their history; nothing in the
simulated protocols ever reads it (tests assert that by construction:
it exposes no query API that runtimes import).

It also allocates global link ids, standing in for each kernel's
name-generation facility.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.links import EndRef


class EndDisposition(enum.Enum):
    OWNED = "owned"
    IN_TRANSIT = "in-transit"
    LOST = "lost"  # the §3.2.2 deviation: enclosure vanished


@dataclass
class EndRecord:
    owner: Optional[str]  # process name, None while in transit / lost
    disposition: EndDisposition = EndDisposition.OWNED


@dataclass
class LinkRecord:
    link: int
    ends: Tuple[EndRecord, EndRecord]
    destroyed: bool = False
    destroy_reason: str = ""


class LinkRegistry:
    """Global truth about links; see module docstring."""

    def __init__(self) -> None:
        self._next_link = 1
        self.links: Dict[int, LinkRecord] = {}

    # ------------------------------------------------------------------
    # allocation / transitions (called by runtimes and clusters)
    # ------------------------------------------------------------------
    def alloc_link(self, owner_a: str, owner_b: str) -> int:
        link = self._next_link
        self._next_link += 1
        self.links[link] = LinkRecord(
            link, (EndRecord(owner_a), EndRecord(owner_b))
        )
        return link

    def record_in_transit(self, ref: EndRef) -> None:
        rec = self.links[ref.link].ends[ref.side]
        rec.owner = None
        rec.disposition = EndDisposition.IN_TRANSIT

    def record_adopted(self, ref: EndRef, new_owner: str) -> None:
        rec = self.links[ref.link].ends[ref.side]
        rec.owner = new_owner
        rec.disposition = EndDisposition.OWNED

    def record_bounced(self, ref: EndRef, restored_owner: str) -> None:
        """An unwanted message returned its enclosure to the sender."""
        rec = self.links[ref.link].ends[ref.side]
        rec.owner = restored_owner
        rec.disposition = EndDisposition.OWNED

    def record_lost(self, ref: EndRef) -> None:
        """The Charlotte deviation (§3.2.2): an enclosure in an aborted
        message vanished when the tentative holder crashed."""
        rec = self.links[ref.link].ends[ref.side]
        rec.owner = None
        rec.disposition = EndDisposition.LOST

    def record_destroyed(self, link: int, reason: str = "") -> None:
        rec = self.links[link]
        if not rec.destroyed:
            rec.destroyed = True
            rec.destroy_reason = reason

    # ------------------------------------------------------------------
    # queries (FOR TESTS AND BENCHES ONLY — simulated protocols must
    # never consult the registry; that would defeat the hint systems
    # under study)
    # ------------------------------------------------------------------
    def owner_of(self, ref: EndRef) -> Optional[str]:
        return self.links[ref.link].ends[ref.side].owner

    def disposition_of(self, ref: EndRef) -> EndDisposition:
        return self.links[ref.link].ends[ref.side].disposition

    def is_destroyed(self, link: int) -> bool:
        return self.links[link].destroyed

    def lost_ends(self) -> List[EndRef]:
        out = []
        for link, rec in self.links.items():
            for side, end in enumerate(rec.ends):
                if end.disposition is EndDisposition.LOST:
                    out.append(EndRef(link, side))
        return out

    def live_links(self) -> List[int]:
        return [l for l, rec in self.links.items() if not rec.destroyed]

    def check_invariants(self) -> List[str]:
        """Structural invariants that must hold at quiescence:
        every end of every live link is either owned by exactly one
        process or explicitly accounted as lost/in-transit."""
        problems = []
        for link, rec in self.links.items():
            for side, end in enumerate(rec.ends):
                if end.disposition is EndDisposition.OWNED and end.owner is None:
                    problems.append(f"L{link} side {side}: owned by nobody")
        return problems
