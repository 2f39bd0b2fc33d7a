"""Real node processes under the supervisor, driven by the load generator.

A miniature of the E17 bench's measured half, small enough for the
tier-1 suite: spawn real ``python -m repro net serve`` processes, push
a handful of concurrent client coroutines through real sockets, force
the timeout/retry path with ``--drop-first``, hard-kill a primary and
watch every client fail over — all while the exactly-once accounting
(``completed + exhausted == issued``, duplicates absorbed server-side)
holds.
"""

import socket

import pytest

from repro.core.recovery import RecoveryPolicy
from repro.net.load import query_stats, run_load
from repro.net.supervisor import NodeSupervisor, SpawnFailed

#: fast wall-clock knobs: first wait 120 ms, doubling per retry
FAST = RecoveryPolicy(timeout_ms=120.0, max_retries=3,
                      backoff_factor=2.0, jitter_frac=0.0)


@pytest.fixture
def supervisor():
    sup = NodeSupervisor()
    try:
        yield sup
    finally:
        sup.stop_all()


def _spawn(sup, name, **kw):
    try:
        return sup.spawn(name, **kw)
    except (SpawnFailed, OSError) as exc:
        pytest.skip(f"this host forbids subprocesses/sockets ({exc})")


def test_clean_run_is_exactly_once(supervisor):
    node = _spawn(supervisor, "alpha")
    r = run_load([node.endpoint], clients=3, requests=2, policy=FAST)
    assert r.exactly_once
    assert (r.issued, r.completed, r.exhausted) == (6, 6, 0)
    assert r.retries == 0 and r.failovers == 0
    stats = query_stats(node.endpoint)
    assert stats["executed_unique"] == 6
    assert stats["duplicates"] == 0


def test_withheld_replies_force_retries_not_reexecution(supervisor):
    node = _spawn(supervisor, "dropper", drop_first=2)
    r = run_load([node.endpoint], clients=2, requests=2, policy=FAST)
    assert r.exactly_once
    assert r.completed == r.issued == 4
    assert r.retries >= 2  # one timeout per withheld reply, at least
    stats = query_stats(node.endpoint)
    # the retransmissions hit the dedup cache: replayed, not re-run
    assert stats["executed_unique"] == 4
    assert stats["dropped_replies"] == 2
    assert stats["duplicates"] >= 2


def test_crash_detection_fails_over_to_the_backup(supervisor):
    primary = _spawn(supervisor, "primary")
    backup = _spawn(supervisor, "backup")
    supervisor.crash("primary")
    assert not supervisor.alive("primary")
    assert supervisor.nodes["primary"].returncode is not None
    r = run_load([primary.endpoint, backup.endpoint],
                 clients=3, requests=2, policy=FAST)
    assert r.exactly_once
    assert r.completed == r.issued == 6
    # a dead primary is a refused connection, not a timeout
    assert r.failovers == 3 and r.connect_errors >= 3
    assert query_stats(backup.endpoint)["executed_unique"] == 6


def test_no_endpoints_left_exhausts_instead_of_hanging(supervisor):
    node = _spawn(supervisor, "doomed")
    supervisor.crash("doomed")
    r = run_load([node.endpoint], clients=2, requests=1, policy=FAST)
    assert r.exactly_once
    assert (r.completed, r.exhausted) == (0, 2)


def test_a_connect_burst_is_not_read_as_a_crash(supervisor):
    """Many clients connecting at once (E17's full mode opens 1000): a
    listen backlog narrower than the burst loses the overflow, and with
    nowhere to fail over to those clients exhaust against a live node.
    400 is four times asyncio's default backlog and leaves both
    processes well under a 1024-descriptor limit."""
    burst = 400
    try:
        with open("/proc/sys/net/core/somaxconn") as f:
            if int(f.read()) < burst:
                pytest.skip("the kernel clamps the listen backlog below the burst")
    except OSError:
        pass
    node = _spawn(supervisor, "busy")
    policy = RecoveryPolicy(timeout_ms=5000.0, max_retries=0)
    r = run_load([node.endpoint], clients=burst, requests=1, policy=policy)
    assert (r.completed, r.exhausted) == (burst, 0)


@pytest.mark.parametrize("hostile, half_close", [
    (b"\xff\xff\xff\xff" + b"x" * 1000, False),   # prefix over the cap
    (b"\x00\x00\x00\x64" + b"x" * 10, True),      # stream ends mid-body
    (b"\x00\x00\x00\x0a" + b"x" * 10, False),     # framed garbage
], ids=["oversized-prefix", "truncated-body", "malformed-body"])
def test_hostile_frames_drop_the_connection_unexecuted(
        supervisor, hostile, half_close):
    node = _spawn(supervisor, "victim", tcp=True)
    host, port = node.endpoint.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=5.0) as sock:
        sock.sendall(hostile)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        # the server hangs up at once: EOF, not a timeout, not a reply
        assert sock.recv(1) == b""
    assert query_stats(node.endpoint)["requests_seen"] == 0
    r = run_load([node.endpoint], clients=1, requests=1, policy=FAST)
    assert (r.completed, r.exhausted) == (1, 0)


def test_supervisor_bookkeeping(supervisor):
    node = _spawn(supervisor, "tcp-node", tcp=True)
    assert ":" in node.endpoint  # host:port form
    assert supervisor.alive("tcp-node")
    with pytest.raises(ValueError, match="duplicate"):
        supervisor.spawn("tcp-node")
    supervisor.stop_all()
    assert not supervisor.nodes
    supervisor.stop_all()  # idempotent
