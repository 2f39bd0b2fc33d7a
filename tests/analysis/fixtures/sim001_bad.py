"""SIM001 seed: float equality on simulated timestamps.

Only parsed by the checks.  Simulated instants are accumulated
floats; exact equality is a coincidence of one cost profile.
"""


def same_instant(t0, t1):
    return t0 == t1


def still_waiting(msg, now):
    return msg.sent_at != now


def fine(t0, t1, eps=1e-9):
    # tolerance comparison: not a violation
    return abs(t1 - t0) < eps
