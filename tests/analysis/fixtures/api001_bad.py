"""API001 seed: the hint from §4.1, silently swallowed.

Only parsed by the checks.  The first handler neither re-raises
nor records a ``recovery.*`` metric; the second does, and must not
be flagged.
"""

from repro.core.api import RecoveryExhausted


def swallow(op):
    try:
        op()
    except RecoveryExhausted:
        pass  # the network misbehaved and nobody will ever know


def keeps_signal(op, metrics):
    try:
        op()
    except RecoveryExhausted:
        metrics.count("recovery.give_ups")
