"""repro — reproduction of M. L. Scott, "The Interface Between
Distributed Operating System and High-Level Programming Language"
(ICPP 1986 / Butterfly Project Report 6).

The package implements the LYNX distributed programming language's
run-time semantics three times, over from-scratch simulations of the
three kernels the paper studied — Charlotte, SODA and Chrysalis — plus
the measurement harness that regenerates the paper's tables and
figures.  Start with `repro.core.api`.
"""

__version__ = "1.0.0"
