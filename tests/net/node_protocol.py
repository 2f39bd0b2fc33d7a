"""An in-process node for the harnesses that watch it from the test's
own event loop (the blocking-call guard, the table census).

The node process serves from a `selectors` loop; in process, one
`asyncio.Protocol` stands in for that loop and does what it does per
wake-up: each read is one `NodeServer.answer`, whose replies are
written at once, and a `FrameError` drops the connection unanswered.
So the node's whole unit of work runs on a thread whose loop is
running, where the guard sees every call that blocks.  What the select
loop adds around it (accepting, parking replies a peer does not read)
runs only in real node processes (`tests/net/test_distributed.py`).
"""

import asyncio

from repro.net.frames import FrameError, FrameReader


class AnswerProtocol(asyncio.Protocol):
    """One connection of an in-process `NodeServer`."""

    def __init__(self, node):
        self.node = node
        self.deframe = FrameReader()

    def connection_made(self, transport):
        self.transport = transport

    def data_received(self, data):
        try:
            self.transport.write(self.node.answer(self.deframe, data))
        except FrameError:
            self.transport.close()


async def serve_unix(node, path):
    """Serve ``node`` on the Unix socket ``path`` from the running loop;
    the `asyncio.Server` returned is an async context manager."""
    return await asyncio.get_running_loop().create_unix_server(
        lambda: AnswerProtocol(node), path=path)
