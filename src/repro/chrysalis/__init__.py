"""Chrysalis: the BBN Butterfly's operating system, and LYNX on it.

Chrysalis (paper §5) provides no messages at all: "processes, memory
objects, event blocks, and dual queues", many microcoded.  The LYNX
implementation builds links out of shared memory — a mapped memory
object per link with message buffers and atomic flag bits, plus one
dual queue and event block per process for notifications — and relies
on *hints* throughout: "Both the dual queue names in link objects and
the notices on the dual queues themselves are considered to be hints.
Absolute information ... is known only to the owners of the ends
[and] the link object flags" (§5.2).

It is the smallest and fastest of the three implementations (§5.3):
2.4 ms per simple remote operation against Charlotte's 57 ms.

Failure semantics (§5.2, docs/FAULTS.md): "Processor failures are
currently not detected" — a hard `CrashMode.PROCESSOR` kill leaves
peers blocked forever (`tests/chrysalis/test_processor_recovery.py`).
The profile declares ``recovery_placement="runtime"``: only an
installed `RecoveryPolicy` bounds that hang, with a typed
`RecoveryExhausted` once the retry budget is spent.
"""
