"""DET001 seed: ambient wall-clock and entropy reads.

Never imported by the suite — only parsed by the checks, which
must flag every hazard below.
"""

import random
import time
from uuid import uuid4  # noqa: F401  (the import itself is the hazard)


def jittered_delay(base_ms):
    # entropy outside repro.sim.rng: different schedule every run
    return base_ms * (1.0 + random.random())


def stamp():
    # the host clock leaks into simulated state
    return time.time()


def allocator_order(events):
    # id() is an address: sorted order is an accident of the allocator
    return sorted(events, key=id)
