"""The load generator: thousands of client coroutines over real sockets.

One asyncio loop runs every client concurrently; each client owns its
connection, issues pipelined-one-at-a-time requests, and runs the
paper's *runtime-placement* recovery discipline — the same
`repro.core.recovery.RecoveryPolicy` knobs the simulator uses, but
driven by wall-clock timers (``asyncio.wait_for``) instead of engine
events:

* each attempt waits the next of ``policy.waits()`` for the reply (no
  jitter), so the schedule the simulated runtime walks *is* the
  widening wait window;
* once that schedule runs dry on an address the client fails over to
  the next address (sticky, like the chaos workload) — or, with no
  addresses left, records the request as
  **exhausted**: the wall-clock analogue of `RecoveryExhausted`,
  reported as a count rather than raised so a million-request run
  aggregates instead of dying;
* a refused or reset connection is crash detection: no timeout is
  waited, the client fails over immediately.

A client's id on the wire names its run as well as its index, so a
second run against a node that is still up executes afresh instead of
being replayed from the first run's dedup windows; a client that
finishes says ``__bye__`` and the node drops its window.

Client-observed **exactly-once** is an accounting identity the E17
bench machine-checks: ``completed + exhausted == issued``, each
completed request matched to exactly one reply, with the server-side
``duplicates`` counter proving retransmissions were absorbed by the
dedup table rather than re-executed.
"""

from __future__ import annotations

import asyncio
import json
import os
from dataclasses import dataclass, field
from time import perf_counter  # measuring real-transport wall-clock RTT is the purpose of this module
from typing import List, Optional, Tuple

from repro.core.recovery import RecoveryPolicy
from repro.core.wire import MsgKind, WireMessage
from repro.net.frames import (
    FrameError,
    decode_frame,
    encode_frame,
    pack_frame,
    read_frame,
)
from repro.net.server import BYE_OP, STATS_OP
from repro.obs.hist import StreamingHistogram

#: wall-clock knobs suited to a loaded asyncio loop (the simulator's
#: chaos policy times out in 25 ms — realistic for simulated links,
#: flappy for a thousand coroutines sharing one real event loop)
DEFAULT_LOAD_POLICY = RecoveryPolicy(
    timeout_ms=1000.0, max_retries=3, jitter_frac=0.0
)


@dataclass
class LoadReport:
    """Aggregate outcome of one `run_load` call."""

    clients: int
    issued: int = 0
    completed: int = 0
    exhausted: int = 0
    retries: int = 0
    failovers: int = 0
    connect_errors: int = 0
    wall_s: float = 0.0
    rtt: StreamingHistogram = field(default_factory=StreamingHistogram)

    @property
    def throughput_per_s(self) -> float:
        return self.completed / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def exactly_once(self) -> bool:
        """The client-side half of the exactly-once check: every issued
        request has exactly one outcome."""
        return self.completed + self.exhausted == self.issued


async def _open(endpoint: str) -> Tuple[asyncio.StreamReader,
                                        asyncio.StreamWriter]:
    if ":" in endpoint and not os.path.exists(endpoint):
        host, port = endpoint.rsplit(":", 1)
        return await asyncio.open_connection(host, int(port))
    return await asyncio.open_unix_connection(endpoint)


class _Client:
    """One client coroutine's connection + recovery state.

    ``sighash`` is the client's identity on the wire: its run's nonce
    in the high 32 bits and its index in the low 32.  Every request
    carries it, and the node keys its dedup window for this client on
    it (`repro.net.server`).  Seqs run 1, 2, 3, ... per client, so a
    retry of the request in flight is always inside that window; a
    later run is a new client, not a retransmission of this one."""

    __slots__ = ("sighash", "endpoints", "addr_idx", "reader", "writer")

    def __init__(self, sighash: int, endpoints: List[str]) -> None:
        self.sighash = sighash
        self.endpoints = endpoints
        self.addr_idx = 0  # sticky: failover advances, never returns
        self.reader = self.writer = None  # the connection, once opened

    def _drop_connection(self, last: bytes = b"") -> None:
        """Close the connection, if any, after writing ``last`` on it."""
        if self.writer is not None:
            self.writer.write(last)
            self.writer.close()
        self.reader = self.writer = None

    async def _attempt(self, frame: bytes, seq: int,
                       wait_ms: float) -> Optional[WireMessage]:
        """One send + bounded wait.  None = timed out (retry);
        ConnectionError propagates = the server is gone (fail over)."""
        self.writer.write(frame)
        await self.writer.drain()
        deadline = perf_counter() + wait_ms / 1000.0
        while (remaining := deadline - perf_counter()) > 0:
            try:
                msg = decode_frame(await asyncio.wait_for(
                    read_frame(self.reader), timeout=remaining
                ))
            except asyncio.TimeoutError:
                return None
            except (asyncio.IncompleteReadError, FrameError) as exc:
                raise ConnectionResetError("server closed mid-read") from exc
            if msg.kind is MsgKind.REPLY and msg.reply_to == seq:
                return msg
            # a stale reply to an attempt we already timed out on:
            # ignore it and keep waiting inside the same window
        return None  # the window closed: time out

    async def _exchange(self, frame: bytes, seq: int,
                        policy: RecoveryPolicy, report: LoadReport) -> bool:
        """Spend one address's retry budget on a request: True once its
        reply arrived, False when the address is out of budget or dead."""
        for wait in policy.waits():
            if self.writer is None:
                try:
                    self.reader, self.writer = await _open(
                        self.endpoints[self.addr_idx]
                    )
                except OSError:
                    report.connect_errors += 1
                    return False  # crash detection: fail over at once
            try:
                msg = await self._attempt(frame, seq, wait)
            except (ConnectionError, OSError):
                self._drop_connection()
                return False  # reset mid-flight: fail over at once
            if msg is not None:
                return True
            report.retries += 1
        return False

    async def run(self, requests: int, payload: bytes,
                  policy: RecoveryPolicy, report: LoadReport) -> None:
        for seq in range(1, requests + 1):
            report.issued += 1
            frame = pack_frame(encode_frame(WireMessage(
                kind=MsgKind.REQUEST, seq=seq, opname="ping",
                sighash=self.sighash, payload=payload, sent_at=0.0,
            )))
            t0 = perf_counter()
            while not await self._exchange(frame, seq, policy, report):
                # this address is out of budget (or dead): fail over
                self._drop_connection()
                if self.addr_idx + 1 == len(self.endpoints):
                    report.exhausted += 1
                    break
                self.addr_idx += 1
                report.failovers += 1
            else:
                report.completed += 1
                report.rtt.record((perf_counter() - t0) * 1000.0)
        # finished: the node may drop this client's window
        self._drop_connection(pack_frame(encode_frame(WireMessage(
            kind=MsgKind.REQUEST, seq=0, opname=BYE_OP,
            sighash=self.sighash, sent_at=0.0,
        ))))


async def _run_load(endpoints: List[str], clients: int, requests: int,
                    payload_bytes: int, policy: RecoveryPolicy,
                    report: LoadReport) -> None:
    payload = b"x" * payload_bytes
    # the run's nonce: a node still up from an earlier run must not
    # read this run's seqs as that run's retransmissions
    nonce = int.from_bytes(os.urandom(4), "big") << 32  # a real node outlives a run, so the run's identity comes from entropy
    tasks = [
        _Client(nonce | cid, list(endpoints)).run(requests, payload,
                                                   policy, report)
        for cid in range(clients)
    ]
    await asyncio.gather(*tasks)


def run_load(endpoints: List[str], clients: int = 8, requests: int = 4,
             payload_bytes: int = 32,
             policy: RecoveryPolicy = DEFAULT_LOAD_POLICY) -> LoadReport:
    """Drive ``clients`` concurrent coroutines against ``endpoints``.

    Each client issues ``requests`` sequential pings, retrying and
    failing over per ``policy`` (`DEFAULT_LOAD_POLICY` when omitted;
    a `RecoveryPolicy` is frozen, so one instance serves every call).
    """
    report = LoadReport(clients=clients)
    t0 = perf_counter()
    asyncio.run(_run_load(endpoints, clients, requests, payload_bytes,
                          policy, report))
    report.wall_s = perf_counter() - t0
    return report


def query_stats(endpoint: str) -> dict:
    """Ask a live node for its dedup counters (the ``__stats__`` op)."""

    async def _query() -> dict:
        reader, writer = await _open(endpoint)
        try:
            writer.write(pack_frame(encode_frame(WireMessage(
                kind=MsgKind.REQUEST, seq=0, opname=STATS_OP, sent_at=0.0,
            ))))
            return json.loads(decode_frame(await read_frame(reader)).payload)
        finally:
            writer.close()

    return asyncio.run(_query())
