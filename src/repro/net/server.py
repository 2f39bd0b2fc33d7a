"""A real node process: the asyncio server behind ``python -m repro.net``
(`repro.net.__main__`, which ``repro net serve`` forwards to).

Speaks the frame protocol of `repro.net.frames` over a Unix-domain or
TCP socket.  Semantics are the paper's server half, reduced to what
the E17 measurements need:

* a REQUEST executes **at most once per server**.  On this path the
  frame's ``sighash`` is the *client id* (`repro.net.load` puts its
  run's nonce beside the client's index, so an id names one client of
  one run), and it keys one dedup window per client: a
  `repro.core.links.SeqWindow`, the table the simulated runtime keeps
  per end, holding the replies to that client's last
  `REPLY_CACHE_LIMIT` seqs.  A retransmission inside the
  window replays the cached reply bytes instead of re-executing (the
  `duplicates` stat is the proof that retransmissions happened and
  were absorbed).  One *left* of the window — at or below its
  ``floor``, the highest seq it evicted — is absorbed without a reply
  and also counted `expired`: its reply is gone, and running it again
  would break at-most-once, so the client's bounded retry reports it
  exhausted, as `LynxRuntimeBase._consume_request` drops a copy left
  of an end's ``served`` window.  A node keeps O(clients x
  window) replies, not O(requests served);
* a finished client sends ``__bye__`` last on its connection, and the
  node drops its window without counting or answering it.  Windows of
  clients that died or failed over stay: a client id is all the node
  knows;
* ``--drop-first N`` makes the first arrival of the first ``N``
  distinct requests execute but *withholds the reply*, deterministically
  forcing the client's wall-clock timeout/retry path so a test run can
  assert ``retries >= 1`` and ``duplicates >= 1`` without real packet
  loss;
* the ``__stats__`` operation returns the counters as JSON, so the
  harness can interrogate a server before crashing it.

The unit of work on a connection is a **wake-up, not a frame**: one
``read`` is de-framed by a `FrameReader`, every complete frame it
delivered is handled in request order, and the replies leave in one
``write`` followed by one ``drain()`` (a pipelining client hands the
server a dozen frames per wake-up; three awaits and a ``send(2)`` per
frame were a quarter of the node's CPU — docs/PERFORMANCE.md §2.4).
``drain()``
is also the backpressure: a peer that stops reading its replies stops
being read from.  A protocol violation anywhere in a read drops the
connection without writing that read's replies; requests ahead of it
in the same read have executed and are cached, so the client's retry on
a fresh connection is a replay.  EOF, with or without a partial frame
buffered, closes the connection.

On startup the process prints ``REPRO-NET READY <endpoint>`` on stdout
— the supervisor's spawn handshake.
"""

from __future__ import annotations

import asyncio
import json
from collections import defaultdict
from typing import DefaultDict, Optional

from repro.core.links import SeqWindow
from repro.core.wire import MsgKind, WireMessage
from repro.net.frames import (
    FrameError,
    FrameReader,
    decode_frame,
    encode_frame,
    pack_frame,
)

#: the control operation answered with the server's counters
STATS_OP = "__stats__"
#: the control operation a finished client sends last: the node drops
#: its window and answers nothing
BYE_OP = "__bye__"

#: stdout handshake line, watched by `repro.net.supervisor`
READY_PREFIX = "REPRO-NET READY"


class NodeServer:
    """One node's request executor + per-client dedup windows."""

    def __init__(self, name: str, drop_first: int = 0) -> None:
        self.name = name
        self.drop_first = drop_first
        #: client id (the frame's ``sighash``) -> its dedup window of
        #: reply frame bodies
        self.windows: DefaultDict[int, SeqWindow] = defaultdict(SeqWindow)
        self.requests_seen = 0
        self.executed_unique = 0
        self.duplicates = 0
        self.expired = 0
        self.dropped_replies = 0
        self._reply_seq = 0

    # -- request handling ----------------------------------------------
    def _reply_to(self, req: WireMessage, payload: bytes) -> bytes:
        self._reply_seq += 1
        return encode_frame(WireMessage(
            kind=MsgKind.REPLY,
            seq=self._reply_seq,
            reply_to=req.seq,
            opname=req.opname,
            sighash=req.sighash,
            payload=payload,
            sent_at=0.0,
            span=req.span,
        ))

    def handle(self, req: WireMessage) -> Optional[bytes]:
        """Process one request; return the reply frame body to send,
        or None when the reply is deliberately withheld or has expired."""
        if req.opname == STATS_OP:
            return self._reply_to(req, json.dumps(self.stats()).encode())
        if req.opname == BYE_OP:
            # no frame of the client's run can follow its bye on this
            # connection, so no retransmission can need the window
            self.windows.pop(req.sighash, None)
            return None
        self.requests_seen += 1
        seq = req.seq
        window = self.windows[req.sighash]
        cached = window.get(seq)
        if cached is not None or seq <= window.floor:
            # a retransmission: exactly-once means replay, not
            # re-execute — and left of the window, where the reply is
            # gone, it means silence
            self.duplicates += 1
            self.expired += cached is None
            return cached
        self.executed_unique += 1
        reply = self._reply_to(req, req.payload)
        window.add(seq, reply)
        if self.drop_first > 0:
            # execute, cache, but stay silent: the client must time out
            # and retransmit, and the retransmit must hit the cache
            self.drop_first -= 1
            self.dropped_replies += 1
            return None
        return reply

    def stats(self) -> dict:
        return {
            "name": self.name,
            "requests_seen": self.requests_seen,
            "executed_unique": self.executed_unique,
            "duplicates": self.duplicates,
            "expired": self.expired,
            "dropped_replies": self.dropped_replies,
        }

    # -- the asyncio half ----------------------------------------------
    async def _connection(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        deframe = FrameReader()
        try:
            # the unit of work is a wake-up, not a frame: answer every
            # complete frame a read delivered, in order, with one write;
            # `drain()` is the backpressure — a peer that does not read
            # its replies stops being read from
            while data := await reader.read(1 << 16):
                writer.write(b"".join(
                    pack_frame(reply) for body in deframe.feed(data)
                    if (reply := self.handle(decode_frame(body))) is not None
                ))
                await writer.drain()
        except (FrameError, ConnectionError, OSError):
            pass  # protocol violation or peer gone: drop the connection
        finally:
            writer.close()

    async def serve(self, socket_path: Optional[str] = None,
                    port: Optional[int] = None) -> None:
        """Bind, announce readiness on stdout, and serve forever."""
        # backlog: E17's full mode opens 1000 connections at once, and
        # asyncio's default of 100 resets the overflow — which a client
        # reads as a crashed server and fails over off a live node
        if socket_path is not None:
            server = await asyncio.start_unix_server(
                self._connection, path=socket_path, backlog=1024
            )
            endpoint = socket_path
        else:
            server = await asyncio.start_server(
                self._connection, host="127.0.0.1", port=port or 0,
                backlog=1024,
            )
            endpoint = "127.0.0.1:%d" % server.sockets[0].getsockname()[1]
        print(f"{READY_PREFIX} {endpoint}", flush=True)
        async with server:
            await server.serve_forever()
