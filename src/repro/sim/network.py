"""Interconnect models for the three testbeds.

The paper's three systems ran on very different interconnects, and those
differences drive its performance story (§4.3 footnote 2: "SODA's slow
network exacted a heavy toll"):

* **Crystal / Charlotte** — 10 Mbit/s Proteon token ring joining 20
  VAX 11/750s.  Modelled by `TokenRing`: a fixed media-access delay
  (average half-rotation token wait) plus serialisation at 10 Mbit/s.
* **SODA** — 1 Mbit/s CSMA bus over PDP-11/23s.  Modelled by `CSMABus`:
  serialisation at 1 Mbit/s, random backoff on collision-prone load, and
  optional Bernoulli loss **for broadcasts only** (SODA's ``discover``
  uses *unreliable* broadcast; point-to-point requests are
  kernel-retried, which we model at the kernel layer).
* **Butterfly / Chrysalis** — shared memory through the Butterfly
  switch; there are no messages at all, only memory copies, so
  `SharedMemoryInterconnect` charges a per-byte copy cost and a small
  switch-contention term.

A network model answers one question: *how long after the send
instant does a frame of n bytes arrive?* Kernels add their own CPU
costs on top (see `repro.core.costs`).

Each model also exposes `min_latency_ms`, a guaranteed lower bound on
any frame's transit time (the zero-byte, zero-backoff case).  Models
report it to the engine (`Engine.note_link_floor`), where it becomes
the conservative-synchronization lookahead for the sharded backends
(`repro.sim.backends`): no message can cross shards faster than that
bound, so event windows of that width are safe.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.engine import Engine
from repro.sim.metrics import MetricSet
from repro.sim.rng import SimRandom

#: bits per byte, for converting link rates
_BITS = 8.0


class NetworkModel:
    """Base class: the latency model a kernel prices its frames with.

    Subclasses implement `transit_time` and `min_latency_ms`; a kernel
    schedules each frame's arrival itself, after the transit time, and
    counts it under ``wire.frames`` / ``wire.bytes``.
    """

    #: human-readable name used in reports
    name = "abstract"

    def __init__(
        self,
        engine: Engine,
        metrics: Optional[MetricSet] = None,
        rng: Optional[SimRandom] = None,
    ) -> None:
        self.engine = engine
        self.metrics = metrics if metrics is not None else MetricSet()
        self.rng = rng if rng is not None else SimRandom(0, f"net/{self.name}")

    # ------------------------------------------------------------------
    def transit_time(self, nbytes: int) -> float:
        """Milliseconds from send to delivery for an ``nbytes`` frame."""
        raise NotImplementedError

    @property
    def min_latency_ms(self) -> float:
        """Guaranteed lower bound on `transit_time` for any frame —
        the lookahead for conservative sharded execution."""
        raise NotImplementedError

    def _register_floor(self) -> None:
        """Report the latency floor to the engine (subclasses call this
        once their rate parameters are set)."""
        self.engine.note_link_floor(self.min_latency_ms)


class TokenRing(NetworkModel):
    """10 Mbit/s token ring (Crystal's Proteon ring).

    ``access_delay`` models the mean token-rotation wait before a node
    may transmit; ``per_byte`` is serialisation time at the ring rate.
    Defaults follow the hardware in the paper (§3.1).
    """

    name = "token-ring"

    def __init__(
        self,
        engine: Engine,
        metrics: Optional[MetricSet] = None,
        rng: Optional[SimRandom] = None,
        rate_mbit: float = 10.0,
        access_delay_ms: float = 0.05,
        stations: int = 20,
    ) -> None:
        super().__init__(engine, metrics, rng)
        self.rate_mbit = rate_mbit
        self.access_delay_ms = access_delay_ms
        self.stations = stations
        #: ms per byte at the ring rate
        self.per_byte_ms = _BITS / (rate_mbit * 1e3)
        self._register_floor()

    def transit_time(self, nbytes: int) -> float:
        # token wait + serialisation; ring propagation is negligible at
        # building scale and folded into access_delay.
        return self.access_delay_ms + nbytes * self.per_byte_ms

    @property
    def min_latency_ms(self) -> float:
        # every frame waits at least the token-access delay
        return self.access_delay_ms


class CSMABus(NetworkModel):
    """1 Mbit/s CSMA bus (SODA's network, §4.1/§4.3).

    ``broadcast_loss`` is the probability an *unreliable broadcast*
    frame is lost; SODA's ``discover`` is the only user of broadcast.
    Point-to-point frames are never dropped here (the SODA kernel's
    periodic retry handles flow control above us); they do pay a random
    contention backoff.
    """

    name = "csma-bus"

    def __init__(
        self,
        engine: Engine,
        metrics: Optional[MetricSet] = None,
        rng: Optional[SimRandom] = None,
        rate_mbit: float = 1.0,
        base_access_ms: float = 0.2,
        max_backoff_ms: float = 0.4,
        broadcast_loss: float = 0.0,
    ) -> None:
        super().__init__(engine, metrics, rng)
        self.rate_mbit = rate_mbit
        self.base_access_ms = base_access_ms
        self.max_backoff_ms = max_backoff_ms
        self.broadcast_loss = broadcast_loss
        self.per_byte_ms = _BITS / (rate_mbit * 1e3)
        self._register_floor()

    def transit_time(self, nbytes: int) -> float:
        backoff = self.rng.uniform(0.0, self.max_backoff_ms)
        return self.base_access_ms + backoff + nbytes * self.per_byte_ms

    @property
    def min_latency_ms(self) -> float:
        # the zero-backoff case still pays the base bus-access time
        return self.base_access_ms

    def broadcast(
        self,
        nbytes: int,
        callbacks: list[Callable[[], None]],
        kind: str = "broadcast",
    ) -> int:
        """Unreliable broadcast: each receiver independently hears the
        frame with probability ``1 - broadcast_loss``.  Returns how many
        receivers the frame reached (for test observability; simulated
        senders must not look at it)."""
        self.metrics.count(f"wire.frames.{kind}")
        self.metrics.count("wire.bytes", nbytes)
        reached = 0
        dt = self.transit_time(nbytes)
        for cb in callbacks:
            if self.rng.bernoulli(self.broadcast_loss):
                self.metrics.count("wire.broadcast_lost")
                continue
            reached += 1
            self.engine.defer(dt, cb)
        return reached


class SharedMemoryInterconnect(NetworkModel):
    """The Butterfly switch: remote memory access, not messaging.

    "Transit" for a notice or a buffer copy is a per-byte copy charge
    plus a tiny fixed switch hop.  Used by the Chrysalis kernel to price
    block copies into link memory objects; control operations (event
    post, dual-queue ops, atomic flags) are priced by the cost model,
    not the network.
    """

    name = "shared-memory"

    def __init__(
        self,
        engine: Engine,
        metrics: Optional[MetricSet] = None,
        rng: Optional[SimRandom] = None,
        per_byte_us: float = 0.55,
        hop_us: float = 4.0,
    ) -> None:
        super().__init__(engine, metrics, rng)
        #: microsecond inputs are converted to ms, the project-wide unit
        self.per_byte_ms = per_byte_us / 1e3
        self.hop_ms = hop_us / 1e3
        self._register_floor()

    def transit_time(self, nbytes: int) -> float:
        return self.hop_ms + nbytes * self.per_byte_ms

    @property
    def min_latency_ms(self) -> float:
        # a zero-byte control hop still crosses the switch once
        return self.hop_ms
