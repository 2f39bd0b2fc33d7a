"""Real node processes under the supervisor, driven by the load generator.

A miniature of the E17 bench's measured half, small enough for the
tier-1 suite: spawn real ``python -m repro.net`` processes, push
a handful of concurrent client coroutines through real sockets, force
the timeout/retry path with ``--drop-first``, hard-kill a primary and
watch every client fail over — all while the exactly-once accounting
(``completed + exhausted == issued``, duplicates absorbed server-side)
holds.  The second half talks to a node over raw sockets (every one
with a hard timeout) to pin what the load generator cannot see: the
server answers a *read*, however many frames it holds.
"""

import signal
import socket
import time

import pytest

from repro.core.recovery import RecoveryPolicy
from repro.core.wire import MsgKind, WireMessage
from repro.net.frames import (
    FrameReader,
    decode_frame,
    encode_frame,
    pack_frame,
)
from repro.net.load import query_stats, run_load
from repro.net.supervisor import NodeSupervisor, SpawnFailed

#: fast wall-clock knobs: first wait 120 ms, doubling per retry
FAST = RecoveryPolicy(timeout_ms=120.0, max_retries=3,
                      backoff_factor=2.0, jitter_frac=0.0)


def _assert_quiet(sup):
    """An exception that escapes a connection handler is only ever
    logged, by asyncio, on the node's stderr: a node the test did not
    kill must have had nothing to say."""
    for node in sup.nodes.values():
        if node.proc.poll() is None:
            with open(node.stderr_path, encoding="utf-8") as f:
                assert f.read() == "", node.name


@pytest.fixture
def supervisor():
    sup = NodeSupervisor()
    try:
        yield sup
        _assert_quiet(sup)
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
    assert supervisor.nodes["primary"].proc.poll() is not None
    r = run_load([primary.endpoint, backup.endpoint],
                 clients=3, requests=2, policy=FAST)
    assert r.exactly_once
    assert r.completed == r.issued == 6
    # a dead primary is a refused connection, not a timeout
    assert r.failovers == 3 and r.connect_errors >= 3
    assert query_stats(backup.endpoint)["executed_unique"] == 6


def test_sigkill_mid_frame_fails_over_once(supervisor):
    """The hostile crash: the primary is SIGKILLed while it holds half
    of a client's frame.  That client's run fails over exactly once, the
    backup executes each of its requests once, and no node process
    outlives the supervisor."""
    primary = _spawn(supervisor, "primary")
    backup = _spawn(supervisor, "backup")
    frame = _ping(1, client=0)  # run_load's first client, its first seq
    with _dial(primary) as sock:
        sock.sendall(frame[:len(frame) // 2])
        time.sleep(0.05)  # let the node read the half into its de-framer
        supervisor.crash("primary")
    assert primary.proc.returncode == -signal.SIGKILL
    r = run_load([primary.endpoint, backup.endpoint],
                 clients=1, requests=3, policy=FAST)
    assert r.failovers == 1 and r.connect_errors >= 1
    assert r.exactly_once and r.completed == r.issued == 3
    assert query_stats(backup.endpoint)["executed_unique"] == r.completed
    _assert_quiet(supervisor)
    procs = [node.proc for node in supervisor.nodes.values()]
    supervisor.stop_all()
    assert len(procs) == 2
    assert all(proc.returncode is not None for proc in procs)


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
    (pack_frame(b"\x01\x09" + encode_frame(                # a kind past
        WireMessage(kind=MsgKind.REQUEST))[2:]), False),   # the enum
], ids=["oversized-prefix", "truncated-body", "malformed-body", "bad-kind"])
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


def test_a_lost_child_reports_its_stderr(supervisor):
    # str(drop_first) reaches the child's argparse, which refuses it;
    # "exited with 2" or "closed stdout", whichever the parent saw first
    with pytest.raises(SpawnFailed,
                       match="before READY; .*invalid int value"):
        supervisor.spawn("lost", drop_first="many")
    assert not supervisor.nodes


def test_supervisor_bookkeeping(supervisor):
    node = _spawn(supervisor, "tcp-node", tcp=True)
    assert ":" in node.endpoint  # host:port form
    assert supervisor.nodes["tcp-node"].proc.poll() is None
    with pytest.raises(ValueError, match="duplicate"):
        supervisor.spawn("tcp-node")
    supervisor.stop_all()
    assert not supervisor.nodes
    supervisor.stop_all()  # idempotent


# -- a wake-up, not a frame, is the server's unit of work ---------------
def _ping(seq, payload=b"x" * 32, client=7):
    """One framed request; ``client`` rides as the frame's sighash,
    which is the client id the node keys its dedup window on."""
    return pack_frame(encode_frame(WireMessage(
        kind=MsgKind.REQUEST, seq=seq, opname="ping", sighash=client,
        payload=payload, sent_at=0.0,
    )))


def _dial(node, timeout=5.0):
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(timeout)
    sock.connect(node.endpoint)
    return sock


def _replies_until_eof(sock, want=None):
    """Decode replies until ``want`` arrived or the node hung up."""
    deframe, replies = FrameReader(), []
    while want is None or len(replies) < want:
        data = sock.recv(1 << 16)
        if not data:
            assert deframe.pending_bytes == 0
            break
        replies.extend(decode_frame(body) for body in deframe.feed(data))
    return replies


def _counters(node):
    stats = query_stats(node.endpoint)
    return stats["executed_unique"], stats["duplicates"]


def test_pipelined_pings_are_answered_in_request_order(supervisor):
    node = _spawn(supervisor, "batch")
    n = 500
    with _dial(node) as sock:
        sock.sendall(b"".join(_ping(seq) for seq in range(1, n + 1)))
        replies = _replies_until_eof(sock, want=n)
    assert [r.reply_to for r in replies] == list(range(1, n + 1))
    assert all(r.kind is MsgKind.REPLY and r.payload == b"x" * 32
               for r in replies)
    assert _counters(node) == (n, 0)


def test_one_frame_in_three_sends_is_one_request(supervisor):
    node = _spawn(supervisor, "split")
    frame = _ping(1)
    with _dial(node) as sock:
        for piece in (frame[:2], frame[2:40], frame[40:]):
            sock.sendall(piece)  # splits the length prefix, then the body
            time.sleep(0.02)
        (reply,) = _replies_until_eof(sock, want=1)
        assert reply.reply_to == 1
        sock.settimeout(0.2)
        with pytest.raises(socket.timeout):
            sock.recv(1)  # and nothing else
    assert _counters(node) == (1, 0)


def test_a_frame_of_many_reads_echoes_intact(supervisor):
    node = _spawn(supervisor, "big")
    payload = bytes(range(256)) * 4096  # 1 MiB
    with _dial(node) as sock:
        sock.sendall(_ping(1, payload))
        (reply,) = _replies_until_eof(sock, want=1)
    assert reply.payload == payload
    assert _counters(node) == (1, 0)


def test_a_malformed_frame_drops_the_batch_it_arrived_in(supervisor):
    """``[good][malformed]`` in one read: the good request executes
    exactly once, the connection drops, and no reply of that read is
    written — the retry on a fresh connection is a cache replay."""
    node = _spawn(supervisor, "mixed")
    with _dial(node) as sock:
        sock.sendall(_ping(1) + b"\x00\x00\x00\x0a" + b"x" * 10)
        assert _replies_until_eof(sock) == []
    assert _counters(node) == (1, 0)
    with _dial(node) as sock:
        sock.sendall(_ping(1))
        (reply,) = _replies_until_eof(sock, want=1)
    assert reply.reply_to == 1
    assert _counters(node) == (1, 1)


def test_complete_frames_before_eof_mid_frame_are_answered(supervisor):
    node = _spawn(supervisor, "cut")
    with _dial(node) as sock:
        sock.sendall(_ping(1) + _ping(2) + _ping(3) + _ping(4)[:50])
        sock.shutdown(socket.SHUT_WR)
        replies = _replies_until_eof(sock)
    assert [r.reply_to for r in replies] == [1, 2, 3]
    assert _counters(node) == (3, 0)


def _rss_kb(pid):
    with open(f"/proc/{pid}/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    raise OSError("no VmRSS line")


def test_a_peer_that_never_reads_stalls_only_itself(supervisor):
    """The slow reader: `drain()` stops that connection's read loop
    once its replies back up, so the node neither buffers them without
    bound nor stops serving anyone else.  The other peer is another
    client: the clogged one's seq 1 is long left of its own window."""
    node = _spawn(supervisor, "clogged")
    try:
        before = _rss_kb(node.proc.pid)
    except OSError as exc:
        pytest.skip(f"no /proc to read the node's memory from ({exc})")
    chunk = b"".join(_ping(seq) for seq in range(1, 701))  # ~64 KiB
    offered, sent = 8 << 20, 0
    with _dial(node, timeout=0.5) as clogged:
        with pytest.raises(socket.timeout):
            while sent < offered:
                sent += clogged.send(chunk)
        assert sent < offered
        t0 = time.monotonic()
        with _dial(node, timeout=2.0) as other:
            other.sendall(_ping(1, client=8))
            (reply,) = _replies_until_eof(other, want=1)
        assert reply.reply_to == 1 and time.monotonic() - t0 < 2.0
        # what backed up is a socket buffer or two, not the 8 MiB
        assert _rss_kb(node.proc.pid) - before < 4096
