"""The registered ``real-asyncio`` backend: `ideal` plus the frame codec.

A conservative extension of the ideal backend, not a sibling of it.
Routes, mailboxes, receipt-at-consumption, abort/destroy bookkeeping,
crash unwinding and the runtime (`IdealRuntime` itself) are inherited;
the one difference is that no message reaches a mailbox or a requester
by reference.  `post` and `deliver` encode the `WireMessage` into the
frame the node processes speak (`repro.net.frames`), decode those
bytes, and hand the ideal kernel the *decoded* copy — so every
registry-parametrized suite runs its contracts over the wire format
(payload, enclosure refs and their metadata, error code, causal span),
bit-identical to ``ideal`` per seed on every simulation backend.

No socket is involved: bytes that cross a real one are the business of
`repro.net.server` / `repro.net.supervisor` / `repro.net.load`, which
is where wall-clock transport cost is measured (E17, ``net_small``).
"""

from __future__ import annotations

from repro.core.links import EndRef
from repro.core.wire import WireMessage
from repro.ideal.cluster import IdealCluster
from repro.ideal.kernel import IdealKernel
from repro.net.frames import decode_frame, encode_frame


class NetKernel(IdealKernel):
    """The ideal kernel, delivering the wire's copy of every message."""

    HANDOFFS = "net.handoffs"
    WITHDRAWALS = "net.withdrawals"

    def _transit(self, msg: WireMessage) -> WireMessage:
        """Put ``msg`` on the wire and return what the wire carries.
        Callers must use the returned message, not the original — that
        substitution is the whole point."""
        body = encode_frame(msg)
        self.metrics.count("net.frames")
        self.metrics.count("net.frame_bytes", len(body))
        return decode_frame(body)

    def post(self, dest: EndRef, msg: WireMessage) -> None:
        super().post(dest, self._transit(msg))

    def deliver(self, dest: EndRef, msg: WireMessage) -> None:
        super().deliver(dest, self._transit(msg))


class NetCluster(IdealCluster):
    """An ideal cluster whose kernel frames every message."""

    KIND = "real-asyncio"
    KERNEL = NetKernel
