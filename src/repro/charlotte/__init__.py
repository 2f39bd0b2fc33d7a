"""Charlotte: a high-level distributed kernel, and LYNX on top of it.

Charlotte (paper §3) ran on the Crystal multicomputer — 20 VAX 11/750s
on a 10 Mbit/s Proteon token ring — with the kernel replicated per
node.  It is the *high-level* kernel of the paper's comparison: links
are a kernel abstraction, the kernel matches send and receive
activities, moves link ends with a three-party agreement protocol, and
guarantees that process termination destroys the process's links.

The irony the paper documents — and this package reproduces — is that
Charlotte's link abstraction, which directly inspired LYNX links, made
the LYNX runtime *harder* to build: the runtime package here carries
the full §3.2.1 unwanted-message machinery (retry / forbid / allow) and
the §3.2.2 multi-enclosure protocol (goahead / enc), none of which the
SODA or Chrysalis runtimes need.

Failure semantics (§2.2, docs/FAULTS.md): Charlotte promises delivery
as an *absolute* — its profile declares ``recovery_placement="kernel"``,
so under an installed `FaultPlan` the simulated kernel retransmits
lost messages invisibly and forever (``faults.kernel_retransmits``).
The runtime never learns of loss, which is exactly why a connect
issued into a partition blocks until the window heals (E14).
"""
