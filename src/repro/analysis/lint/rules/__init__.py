"""The shipped rule set.  Importing this package registers every rule
with the one registry in `repro.analysis.lint.core`; the catalog with
rationale lives in docs/LINT.md.

=========  ==========================================================
``DET001``  wall-clock / entropy outside `repro.sim.rng`
``DET002``  iteration over unordered sets in order-sensitive modules
``LAY001``  kernel imports that bypass `repro.core.ports`
``API001``  `RecoveryExhausted` swallowed without trace
``SIM001``  float equality on simulated timestamps
``ALLOW001``  stale or unknown `# repro: allow[...]` suppressions
=========  ==========================================================

Every rule reads one module.  A blocking call inside a `repro.net`
coroutine is a run-time fact, so a run-time guard catches it instead
(the audit hook in ``tests/net/conftest.py``).
"""

import repro.analysis.lint.rules.determinism  # noqa: F401
import repro.analysis.lint.rules.hygiene  # noqa: F401
import repro.analysis.lint.rules.layering  # noqa: F401
import repro.analysis.lint.rules.semantics  # noqa: F401
