"""The benchmark's own load generator for the real transport.

`repro.net.load.run_load` is a depth-1 ping-pong per client: with two
processes on two cores it measures the wake-up latency between them,
not the program.  This generator keeps a *fixed window* of outstanding
requests per connection (a closed loop: a request is sent only when an
earlier one completed), with frames pre-encoded in set-up so the timed
region prices the server's per-frame work and the generator's decode.

Reader and writer are separate tasks on purpose: the server
``drain()``s after every reply, so a single coroutine that wrote its
window and only then read would deadlock against it as soon as a
window's replies outgrow the socket buffer (window 16 x 32 KiB does).

Run as ``python netgen.py --echo SOCKET`` this file is also the
codec-free echo server behind ``bench.asyncio_echo_floor_us_per_op``:
the same framing, reads, write and per-frame drain as
`repro.net.server.NodeServer._connection`, minus decode and handle.
"""

from __future__ import annotations

import asyncio
import os
import random
import sys
from time import perf_counter
from typing import List, Optional, Sequence

#: seconds without a single reply before a drain is declared stuck
STALL_S = 5.0


class Conn:
    """One connection's pre-encoded requests and its outcome."""

    def __init__(self, cid: int, payloads: Sequence[bytes],
                 frames: Sequence[bytes]) -> None:
        self.cid = cid
        self.payloads = payloads
        self.frames = frames
        self.received = 0
        self.mismatched = 0
        #: wall stamps at write / round-trip seconds, when asked for
        self.sent_at: Optional[List[float]] = None
        self.rtts: Optional[List[float]] = None
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    @property
    def failed(self) -> int:
        """Replies missing or not matching their request."""
        return len(self.frames) - self.received + self.mismatched


def make_conn(cid: int, count: int, payload_bytes: int,
              rng: random.Random) -> Conn:
    """Pre-encode ``count`` pings with distinct seeded payloads.  The
    server dedups on ``(sighash, seq)``; ``cid`` is the sighash."""
    from repro.core.wire import MsgKind, WireMessage
    from repro.net.frames import encode_frame, pack_frame

    payloads = [rng.randbytes(payload_bytes) for _ in range(count)]
    frames = [
        pack_frame(encode_frame(WireMessage(
            kind=MsgKind.REQUEST, seq=i + 1, opname="ping", sighash=cid,
            payload=p, sent_at=0.0,
        )))
        for i, p in enumerate(payloads)
    ]
    return Conn(cid, payloads, frames)


async def connect(conn: Conn, endpoint: str) -> None:
    conn.reader, conn.writer = await asyncio.open_unix_connection(endpoint)


async def _send(conn: Conn, credit: asyncio.Semaphore) -> None:
    writer, stamps = conn.writer, conn.sent_at
    for frame in conn.frames:
        await credit.acquire()
        if stamps is not None:
            stamps.append(perf_counter())
        writer.write(frame)
        await writer.drain()


async def _recv(conn: Conn, credit: asyncio.Semaphore, verify: bool) -> None:
    from repro.core.wire import MsgKind
    from repro.net.frames import FrameReader, decode_frame

    deframe = FrameReader()
    total = len(conn.frames)
    payloads, stamps, rtts = conn.payloads, conn.sent_at, conn.rtts
    while conn.received < total:
        data = await conn.reader.read(1 << 16)
        if not data:
            return  # server closed: the rest count as missing
        for body in deframe.feed(data):
            i = conn.received
            if verify:
                msg = decode_frame(body)
                if (msg.kind is not MsgKind.REPLY or msg.reply_to != i + 1
                        or msg.sighash != conn.cid
                        or msg.payload != payloads[i]):
                    conn.mismatched += 1
            if rtts is not None:
                rtts.append(perf_counter() - stamps[i])
            conn.received = i + 1
            credit.release()


async def drain_window(conns: Sequence[Conn], window: int,
                       verify: bool = True) -> None:
    """Send every connection's frames with ``window`` outstanding and
    check each reply; returns when all are answered, the server hangs
    up, or nothing arrives for `STALL_S` seconds."""
    tasks = []
    for conn in conns:
        credit = asyncio.Semaphore(window)
        tasks.append(asyncio.ensure_future(_send(conn, credit)))
        tasks.append(asyncio.ensure_future(_recv(conn, credit, verify)))
    readers = tasks[1::2]
    try:
        seen = -1
        while True:
            done, _ = await asyncio.wait(readers, timeout=STALL_S)
            if len(done) == len(readers):
                break
            now = sum(c.received for c in conns)
            if now == seen:
                break  # stalled: whatever is outstanding is failed
            seen = now
    finally:
        for task in tasks:
            task.cancel()
        results = await asyncio.gather(*tasks, return_exceptions=True)
    for res in results:
        if isinstance(res, Exception) and not isinstance(
                res, (asyncio.CancelledError, ConnectionError)):
            raise res


def close(conns: Sequence[Conn]) -> None:
    for conn in conns:
        if conn.writer is not None:
            conn.writer.close()


# -- /proc readers for the node process --------------------------------
def proc_cpu_s(pid: int) -> float:
    """utime + stime of another process, in seconds."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_mem_mb(pid: int, key: str) -> float:
    """``VmRSS`` or ``VmHWM`` of another process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return int(line.split()[1]) / 1024.0
    raise KeyError(key)


# -- the codec-free echo server ----------------------------------------
async def _echo_connection(reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
    try:
        while True:
            head = await reader.readexactly(4)
            body = await reader.readexactly(int.from_bytes(head, "big"))
            writer.write(head + body)
            await writer.drain()
    except (asyncio.IncompleteReadError, ConnectionError, OSError):
        pass
    finally:
        writer.close()


async def _echo_serve(path: str) -> None:
    server = await asyncio.start_unix_server(_echo_connection, path=path)
    print("ECHO READY", flush=True)
    async with server:
        await server.serve_forever()


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] != "--echo":
        sys.exit("usage: netgen.py --echo SOCKET")
    try:
        asyncio.run(_echo_serve(sys.argv[2]))
    except KeyboardInterrupt:
        pass
