"""The real path's blocking-call guard: one process-wide audit hook.

A blocking call inside a coroutine stalls every coroutine on its loop,
and a blocking call in a node's unit of work stalls every connection
of its select loop; on the real path either one silently serializes
what E17 measures.  In process, the node's unit of work
(`NodeServer.answer`) runs on the test's loop (`node_protocol.py`), so
one guard covers both halves.
CPython raises an audit event for the calls that block (`open`,
`time.sleep`, `subprocess.Popen`, `socket.connect` / `socket.bind`), so
the guard watches them while a test drives a node, and records each one
raised on a thread whose asyncio loop is running.  It never raises:
the test asserts on the record, so a failure lists every site at once.

An audit hook cannot be removed, so the hook is installed once per
process and the `blocking_guard` fixture arms and disarms it.  The
socket events count only on a blocking socket: asyncio's own sockets
are non-blocking.  The guard is armed only once the server listens,
because `create_unix_server` binds its socket before making it
non-blocking.  Work handed to a thread (`run_in_executor`,
`asyncio.to_thread`) has no running loop and is not recorded.

`time.sleep` raises its event only from CPython 3.13 on; below that
the fixture wraps it so that it does (`sys.audit`).  What no event
covers: a nested `Engine.run` and a `recv` on a socket that is already
blocking.  No code in `repro.net` does either.
"""

import asyncio
import contextlib
import sys
import time

import pytest

from tests.net.node_protocol import serve_unix

#: the audit events that block the calling thread
BLOCKING_EVENTS = frozenset({
    "open", "time.sleep", "subprocess.Popen",
    "socket.connect", "socket.bind",
})


class _Guard:
    """The one hook's switch: ``events`` is the armed record, or None."""

    installed = False
    events = None


def _hook(event, args):
    if _Guard.events is None or event not in BLOCKING_EVENTS:
        return
    try:
        asyncio.get_running_loop()
    except RuntimeError:
        return  # no loop runs on this thread: nothing to stall
    if event.startswith("socket."):
        if not args[0].getblocking():
            return
        args = args[1:]  # the address: keep no socket alive
    _Guard.events.append((event, args))


@pytest.fixture
def blocking_guard(tmp_path, monkeypatch):
    """``(serve, events)``: ``async with serve(node) as endpoint``
    serves a `NodeServer` in process on a Unix socket and arms the
    guard for the body; ``events`` lists what the guard recorded."""
    if sys.version_info < (3, 13):
        sleep = time.sleep

        def audited_sleep(secs):
            sys.audit("time.sleep", secs)
            sleep(secs)

        monkeypatch.setattr(time, "sleep", audited_sleep)
    if not _Guard.installed:
        sys.addaudithook(_hook)
        _Guard.installed = True
    events = []

    @contextlib.asynccontextmanager
    async def serve(node):
        endpoint = str(tmp_path / "node.sock")
        server = await serve_unix(node, endpoint)
        _Guard.events = events
        try:
            async with server:
                yield endpoint
        finally:
            _Guard.events = None

    return serve, events
