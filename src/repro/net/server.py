"""A real node process: the `selectors` loop behind ``python -m repro.net``
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
  `REPLY_CACHE_LIMIT` seqs, as the frame bodies that were sent.  A
  retransmission inside the window replays those bytes instead of
  re-executing (the `duplicates` stat is the proof that
  retransmissions happened and were absorbed).  One *left* of the window — at or below its
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

A node **answers from the frame**: each request body is walked once
(`repro.net.frames.walk_frame`, which makes every check a body gets),
the at-most-once logic above runs on the walked fields, and a fresh
reply is built from the request's own opname and payload bytes
(`reply_body`), so an ordinary request builds no `WireMessage` and
encodes none — only ``__stats__`` does.  `NodeServer.handle` takes a
`WireMessage` and encodes it first, for callers that hold one.

The unit of work on a connection is a **wake-up, not a frame**:
`NodeServer.answer` feeds one ``recv`` to the connection's
`FrameReader`, serves every complete frame it delivered in request
order, and returns the replies packed and joined, which leave in one
``send`` (a pipelining client hands the server a dozen frames per
wake-up; three awaits and a ``send(2)`` per frame were a quarter of the
node's CPU — docs/PERFORMANCE.md §2.4).  ``answer`` is sans-IO: the
loop around it is one `selectors.DefaultSelector` over a non-blocking
listener and its connections, and no event loop is imported (asyncio,
with the ``ssl`` it loads, was 8 MB of a node's 23 MB peak).

Backpressure is parking: replies that do not all fit in the socket are
kept, and the connection is registered for ``EVENT_WRITE`` only until
they drain, so a peer that stops reading its replies stops being read
from, and stalls no other connection.  A protocol violation anywhere in
a read drops the connection without sending that read's replies;
requests ahead of it in the same read have executed and are cached, so
the client's retry on a fresh connection is a replay.  EOF, with or
without a partial frame buffered, closes the connection, and so does
any `OSError` on it.  Any other exception is a bug (`walk_frame`
raises only `FrameError`, and raises it before the frame moves any
counter), and it ends the node process: its traceback
lands in the node's stderr file and the supervisor sees the exit code.

On startup the process prints ``REPRO-NET READY <endpoint>`` on stdout
— the supervisor's spawn handshake.
"""

from __future__ import annotations

import json
import selectors
import socket
from collections import defaultdict
from itertools import count
from typing import DefaultDict, Optional

from repro.core.links import SeqWindow
from repro.core.wire import MsgKind, WireMessage
from repro.net.frames import (
    FrameError,
    FrameReader,
    encode_frame,
    pack_frame,
    reply_body,
    walk_frame,
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
        self.requests_seen = self.executed_unique = self.duplicates = \
            self.expired = self.dropped_replies = 0
        self._reply_seqs = count(1)

    # -- request handling ----------------------------------------------
    def handle(self, req: WireMessage) -> Optional[bytes]:
        """Process one request; return the reply frame body to send,
        or None when the reply is deliberately withheld or has expired."""
        return self._serve(encode_frame(req))

    def _serve(self, body: bytes) -> Optional[bytes]:
        """`handle` on the request's frame body: walked once, and a
        fresh reply built from its own bytes (`reply_body`).  Raises
        `FrameError` before any counter moves."""
        fields, end = walk_frame(body)
        seq, opname, client = fields[1], fields[3], fields[4]
        if opname == STATS_OP:
            return encode_frame(WireMessage(
                kind=MsgKind.REPLY, seq=next(self._reply_seqs), reply_to=seq,
                opname=opname, sighash=client,
                payload=json.dumps(self.stats()).encode(), span=fields[11]))
        if opname == BYE_OP:
            # no frame of the client's run can follow its bye on this
            # connection, so no retransmission can need the window
            self.windows.pop(client, None)
            return None
        self.requests_seen += 1
        window = self.windows[client]
        cached = window.get(seq)
        if cached is not None or seq <= window.floor:
            # a retransmission: exactly-once means replay, not
            # re-execute — and left of the window, where the reply is
            # gone, it means silence
            self.duplicates += 1
            self.expired += cached is None
            return cached
        self.executed_unique += 1
        reply = reply_body(body, fields, end, next(self._reply_seqs))
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

    # -- the unit of work ----------------------------------------------
    def answer(self, deframe: FrameReader, data: bytes) -> bytes:
        """One wake-up: feed one read to the connection's reader, handle
        every complete frame it delivered in order, and return the
        replies packed and joined.  A `FrameError` raises before any of
        the read's replies is returned."""
        return b"".join(
            pack_frame(reply) for body in deframe.feed(data)
            if (reply := self._serve(body)) is not None
        )

    # -- the select loop -----------------------------------------------
    def serve(self, socket_path: Optional[str] = None,
              port: Optional[int] = None) -> None:
        """Bind, announce readiness on stdout, and serve until killed."""
        # backlog: E17's full mode opens 1000 connections at once, and
        # a listen queue of 100 resets the overflow — which a client
        # reads as a crashed server and fails over off a live node
        if socket_path is not None:
            listener = socket.create_server(
                socket_path, family=socket.AF_UNIX, backlog=1024)
            endpoint = socket_path
        else:
            listener = socket.create_server(("127.0.0.1", port or 0),
                                            backlog=1024)
            endpoint = "127.0.0.1:%d" % listener.getsockname()[1]
        listener.setblocking(False)
        sel = selectors.DefaultSelector()
        sel.register(listener, selectors.EVENT_READ)
        print(f"{READY_PREFIX} {endpoint}", flush=True)
        while True:
            for key, _ in sel.select():
                if key.fileobj is listener:
                    _accept(sel, listener)
                else:
                    self._wake(sel, key)

    def _wake(self, sel: selectors.BaseSelector,
              key: selectors.SelectorKey) -> None:
        """A connection is ready.  With nothing parked on it, read and
        answer it; then send what fits of its replies and park the rest.
        EOF, a protocol violation or a dead peer drops it, and a read's
        replies are sent only if all of it decoded."""
        conn, (deframe, out) = key.fileobj, key.data
        try:
            if not out:
                data = conn.recv(1 << 16)
                if not data:  # EOF, with or without a partial frame
                    raise EOFError
                out = self.answer(deframe, data)
            out = out[conn.send(out):]
        except BlockingIOError:  # the socket's send buffer is full
            pass
        except (FrameError, EOFError, OSError):
            sel.unregister(conn)
            conn.close()
            return
        # backpressure: a connection whose replies did not all fit is
        # parked for writing only, so a peer that does not read its
        # replies stops being read from — and stalls no one else
        sel.modify(conn, selectors.EVENT_WRITE if out
                   else selectors.EVENT_READ, (deframe, out))


def _accept(sel: selectors.BaseSelector, listener: socket.socket) -> None:
    """Register one queued connection, with its reader and nothing
    parked."""
    try:
        conn = listener.accept()[0]
    except OSError:  # a queued peer that left, or no descriptor free
        return
    conn.setblocking(False)
    sel.register(conn, selectors.EVENT_READ, (FrameReader(), b""))
