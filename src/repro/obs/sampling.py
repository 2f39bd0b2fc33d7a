"""Deterministic head-based trace sampling.

At full rate every message in a million-client run mints spans and
trace events, so the tracing plane's memory and time grow linearly
with load.  `TraceSampler` makes the keep/drop decision *once per
trace*, at `SpanTracker.new_trace`, by hashing ``(seed, trace_id)``
with a splitmix64-style mixer and comparing against the configured
rate; children inherit the decision through `SpanContext.sampled`,
so a trace is always complete-or-absent (head-based sampling — no
torn causal graphs).

Because the decision is a pure function of the seed and the trace id
— and trace ids are minted deterministically by the simulator — two
same-seed runs sample *identical* trace ids, preserving the repo's
determinism contract (the DET checks and same-seed tests).
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1

#: odd constants from the splitmix64 reference mixer
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix64(x: int) -> int:
    """splitmix64 finaliser: a cheap, well-distributed 64-bit mixer."""
    x = x & _MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return x ^ (x >> 31)


class TraceSampler:
    """Seeded head-based sampler: keep a trace iff
    ``mix(seed, trace_id) < rate * 2**64``.

    ``rate`` is clamped to [0, 1]; 1.0 keeps everything (the default
    cluster behaviour when no sampler is installed) and 0.0 drops
    everything (the obs-off mode of the E15 overhead bench).  The
    decision is order-independent: it depends only on the trace id,
    not on how many traces were sampled before it.
    """

    __slots__ = ("rate", "seed", "_threshold")

    def __init__(self, rate: float, seed: int = 0) -> None:
        self.rate = min(1.0, max(0.0, rate))
        self.seed = seed
        self._threshold = int(self.rate * float(1 << 64))

    def sample(self, trace_id: int) -> bool:
        if self._threshold >= (1 << 64):
            return True
        if self._threshold <= 0:
            return False
        key = ((self.seed + 1) * _GAMMA + trace_id) & _MASK64
        return _mix64(key) < self._threshold

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TraceSampler rate={self.rate} seed={self.seed}>"
