"""Kernel-independent LYNX semantics.

This package is the part of the reproduction that corresponds to the
LYNX *language definition* (paper §2): typed remote operations on
movable duplex links, coroutine threads executing in mutual exclusion
inside each process, per-link request/reply queues drained at block
points, and the exception model.

It contains no kernel-specific code; the three run-time packages
(`repro.charlotte.runtime`, `repro.soda.runtime`,
`repro.chrysalis.runtime`) subclass `repro.core.runtime.LynxRuntimeBase`
and implement its transport hooks against their kernels.  User programs
written against `repro.core.api` run unmodified on all three — that is
the paper's central experimental setup.

Import from the modules, not from the package: `repro.core.api` is the
public surface.  The package itself imports nothing, so a node process
that needs only `repro.core.wire` pays for nothing else.
"""
