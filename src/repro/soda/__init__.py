"""SODA: Kepecs's "Simplified Operating system for Distributed
Applications" (paper §4), and the LYNX design for it.

SODA is the *minimal* kernel of the paper's comparison — "might better
be described as a communications protocol": processes advertise names,
request data transfers toward (process id, name) pairs, feel software
interrupts, and accept past requests whenever they please.  Screening
is therefore entirely receiver-side — an unaccepted request simply
waits — which is exactly why the LYNX runtime for SODA needs none of
Charlotte's retry/forbid/allow machinery (§6).

The paper's SODA implementation of LYNX "was designed on paper only"
(§4.2); this package builds that design: links as name pairs, location
*hints*, the link cache, discover-based hint repair, and the
freeze/unfreeze absolute search (`repro.soda.freeze`).

One liberty, documented in DESIGN.md: the kernel here offers
``withdraw`` so a requester can retract an unaccepted request (needed
when a connect is aborted before receipt).  The paper's kernel has no
such call but already handles requester disappearance (crashes), of
which withdrawal is the scoped version.

Failure semantics (§4.1, docs/FAULTS.md): SODA guarantees almost
nothing — its profile declares ``recovery_placement="runtime"``, so
under an installed `FaultPlan` a dropped message is simply lost and
the runtime's `RecoveryPolicy` (timeout, bounded retry, typed
`RecoveryExhausted`) owns the damage.  E14 shows this hints stance
riding out a partition that stalls Charlotte's absolutes.
"""
