"""DET002 seed: set iteration feeding scheduling decisions.

Only parsed by the checks; a fixture file has no package under
``src/repro``, so DET002 treats it as order-sensitive.
"""


def deliver_all(pending, deliver):
    # set iteration order depends on hash values — the delivery
    # schedule diverges between same-seed runs
    for msg in set(pending):
        deliver(msg)


def snapshot(waiters):
    return list({w.name for w in waiters})


def merge(a, b):
    return [x for x in a.union(b)]
