"""The frame protocol, in-process and over real sockets.

Two halves share one wire format (`repro.net.frames`):

* **in-process** — `repro.net.ideal_framed` registers ``real-asyncio``:
  the ideal backend with every kernel message encoded to a frame and
  decoded again before delivery.  No socket, thread or event loop; it
  is deterministic, bit-identical to ``ideal`` per seed on every
  simulation backend, and exists so the conformance, divergence and
  property suites run their contracts over the bytes the node
  processes speak (the causal `SpanContext` rides inside the frame, so
  tracing and flight-recorder dumps work unchanged).
* **distributed** — real node processes (``python -m repro.net``)
  spawned and monitored by `repro.net.supervisor`, served by
  `repro.net.server`, and driven by the `repro.net.load` generator
  with wall-clock `RecoveryPolicy` timeout/retry/backoff.  This is the
  only place bytes cross an OS socket, and what the E17 bench and the
  ``net_small`` workload measure against the simulator's shapes
  (docs/PORTS.md, "Real transport").
"""

from repro.net.supervisor import SpawnFailed, TransportUnavailable

__all__ = ["SpawnFailed", "TransportUnavailable"]
