"""The LYNX exception model.

Paper §2.2: "Any attempt to send or receive a message on a link that
has been destroyed must fail in a way that can be reflected back into
the user program as a run-time exception."  These classes are those
run-time exceptions; they are raised *inside simulated LYNX threads*
(i.e. thrown into user generators at their yield points) and may be
caught by simulated code.

The conformance suite distinguishes which implementations can raise
which exceptions: e.g. `RequestAborted` on the server side cannot be
provided by the Charlotte implementation without a 50 %-traffic reply
acknowledgment (paper §3.2 end / E7), so the Charlotte runtime's
inability to raise it in that scenario is itself asserted.
"""

from __future__ import annotations


class LynxError(Exception):
    """Base class for all LYNX-visible runtime exceptions."""


class LinkDestroyed(LynxError):
    """The link was destroyed (explicitly, or because the process at the
    far end terminated) while this process tried to use it."""


class RemoteCrash(LinkDestroyed):
    """Specialisation of `LinkDestroyed`: the far-end process crashed.

    Subclasses `LinkDestroyed` because the language treats both the
    same way — termination of a process destroys all its links (§2.2) —
    but tests sometimes want to know which occurred.
    """


class TypeClash(LynxError):
    """Operation name/type-signature mismatch between requester and
    server — the run-time package's type confirmation (§3.3) failed."""


class RequestAborted(LynxError):
    """Felt by a *server* when it attempts to reply to a request whose
    client coroutine has since been aborted (§3.2: "the server should
    feel an exception when it attempts to send a no-longer-wanted
    reply")."""


class MoveRestricted(LynxError):
    """Attempt to enclose a link end that may not move: the process has
    sent unreceived messages on it, or owes a reply on it (§2.1), or it
    is an end of the very link the message is being sent on."""


class LinkMoved(LynxError):
    """Attempt to use a link end this process no longer owns (it was
    enclosed in a message and moved away)."""


class ThreadAborted(LynxError):
    """Raised inside a LYNX thread that another thread aborted; used to
    build the §3.2.1 scenario where an exception aborts an outstanding
    request."""


class RecoveryExhausted(LynxError):
    """A connect's recovery budget ran out: the runtime-side
    `repro.core.recovery.RecoveryPolicy` timed out, retransmitted up to
    its bounded retry limit, and never saw receipt or reply.  Only
    backends whose `KernelCapabilities.recovery_placement` is
    ``"runtime"`` (hints — SODA, Chrysalis, ideal) can raise it; a
    kernel-placement backend (Charlotte's absolutes) hides loss by
    retransmitting forever instead (§2.2, §4.1)."""


class ProtocolViolation(LynxError):
    """Internal consistency failure of a runtime package — never
    expected in a correct run; exists so tests can assert it never
    fires."""
