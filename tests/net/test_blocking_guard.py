"""An in-process node driven by the load generator, under the
blocking-call guard (`conftest.py`): two back-to-back runs against one
node, the first with withheld replies that force retries.

Catches: a blocking call anywhere on the path a request takes — in
`NodeServer.handle` or a sync helper it calls, in
`NodeServer.answer` (the node's unit of work, served from the test's
loop by `node_protocol.py`), in the client's connect — and a second run
served from the first run's dedup windows (a client id that does not
name its run), or windows a finished client leaves behind.
"""

import asyncio

from repro.core.recovery import RecoveryPolicy
from repro.net.load import LoadReport, _run_load
from repro.net.server import NodeServer

CLIENTS, REQUESTS = 4, 8

#: short waits, so the withheld replies cost milliseconds
POLICY = RecoveryPolicy(timeout_ms=50.0, max_retries=3,
                        backoff_factor=2.0, jitter_frac=0.0)


async def _all_left(node):
    """Wait for the last byes: a client closes after sending its bye,
    so the node may read it after `_run_load` returns."""
    for _ in range(200):
        if not node.windows:
            return
        await asyncio.sleep(0.01)


def test_two_load_runs_execute_every_request_and_never_block(
        blocking_guard):
    serve, blocked = blocking_guard
    node = NodeServer("guarded", drop_first=2)
    runs = [LoadReport(clients=CLIENTS), LoadReport(clients=CLIENTS)]

    async def drive():
        async with serve(node) as endpoint:
            for report in runs:
                await _run_load([endpoint], CLIENTS, REQUESTS, 32, POLICY,
                                report)
            await _all_left(node)

    # debug mode (``-X dev``) opens source files for its tracebacks
    asyncio.run(asyncio.wait_for(drive(), 60.0), debug=False)
    assert blocked == []
    issued = CLIENTS * REQUESTS
    for report in runs:
        assert (report.issued, report.completed) == (issued, issued)
    # the withheld replies were retried and replayed, not re-run
    assert runs[0].retries >= 1 and node.duplicates >= 1
    assert (node.executed_unique, node.expired) == (2 * issued, 0)
    assert len(node.windows) == 0
