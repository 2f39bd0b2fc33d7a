"""Seeded randomness for the simulation.

All nondeterminism in the reproduction — CSMA backoff, SODA broadcast
loss, workload arrival jitter, crash times — flows through a `SimRandom`
so that a run is exactly reproducible from its seed.  Components take a
`SimRandom` (or fork one with `child`) rather than touching the `random`
module directly.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence, TypeVar

T = TypeVar("T")


class SimRandom:
    """A named, seeded random stream.

    ``child(name)`` derives an independent stream deterministically from
    the parent seed and the name, so adding a new consumer of randomness
    does not perturb the draws seen by existing consumers — important
    when comparing benchmark runs across code versions.
    """

    def __init__(self, seed: int = 0, name: str = "root") -> None:
        self.seed = seed
        self.name = name
        self._rng = random.Random(f"{seed}\x00{name}")
        # `random` and `uniform` are drawn on simulator hot paths (every
        # event draws jitter): the stream's own methods, one call a draw
        self.random = self._rng.random
        self.uniform = self._rng.uniform

    def child(self, name: str) -> "SimRandom":
        """Derive an independent stream tied to ``name``."""
        return SimRandom(self.seed, f"{self.name}/{name}")

    # thin wrappers -----------------------------------------------------
    def randint(self, lo: int, hi: int) -> int:
        return self._rng.randint(lo, hi)

    def choice(self, seq: Sequence[T]) -> T:
        return self._rng.choice(seq)

    def bernoulli(self, p: float) -> bool:
        """True with probability ``p``."""
        if p <= 0.0:
            return False
        if p >= 1.0:
            return True
        return self._rng.random() < p

    def sample(self, seq: Sequence[T], k: int) -> list[T]:
        return self._rng.sample(seq, k)

    def jitter(self, base: float, fraction: float = 0.1) -> float:
        """``base`` perturbed uniformly by ±``fraction``; never negative."""
        return max(0.0, base * self._rng.uniform(1.0 - fraction, 1.0 + fraction))
