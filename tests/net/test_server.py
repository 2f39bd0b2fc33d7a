"""`NodeServer`'s dedup windows, in process: no node, no socket.

On the real path a frame's ``sighash`` is the client id, and the node
keeps one window per client: the replies to its last
`REPLY_CACHE_LIMIT` seqs.  Inside the window a retransmission replays
the cached bytes; left of it (at or below the highest seq the window
evicted) it is absorbed — counted in ``duplicates`` and ``expired``,
never re-executed, never answered.  Each test names the mutation of
`NodeServer.handle` it catches.

A node answers from the frame: `NodeServer.answer` walks each request
body once and builds the reply from the request's own bytes, where it
once decoded a `WireMessage` and encoded another.  The properties below
pin the reply bytes to that old path, and the calls-per-frame guard
holds the node to the new one.

The last test is the memory guard that reads no clock: what
``tracemalloc`` counts a node keeping after 5,000 and after 50,000
requests per client must be the same bound, not a function of the
requests served.
"""

import cProfile
import gc
import json
import random
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.core.links import REPLY_CACHE_LIMIT
from repro.core.wire import MsgKind, WireMessage
from repro.net.frames import (
    FrameError,
    FrameReader,
    decode_frame,
    encode_frame,
    pack_frame,
)
from repro.net.server import BYE_OP, STATS_OP, NodeServer
from tests.net.test_frames import _EVERYTHING, _PING, _messages, _with_byte

WINDOW = REPLY_CACHE_LIMIT


def _req(seq, client=1):
    """A ping whose payload names its client and seq, so every fresh
    execution has its own reply bytes."""
    return WireMessage(kind=MsgKind.REQUEST, seq=seq, opname="ping",
                       sighash=client, payload=b"%d:%d" % (client, seq),
                       sent_at=0.0)


def test_retransmissions_inside_the_window_replay_the_same_bytes():
    """A pipelining client with 16 requests outstanding retransmits the
    oldest one after every send, for ten windows' worth of requests; a
    second client then sends a window of its own, and the first client
    retransmits all 16 again.  Every retransmission is the cached reply,
    byte for byte (re-executing would mint a new reply seq).  Catches: a
    window shorter than the client's 16, and one FIFO shared by all
    clients (the second client's window would push the first's out)."""
    node = NodeServer("replay")
    sent = {}
    last = 10 * WINDOW
    for seq in range(1, last + 1):
        sent[seq] = node.handle(_req(seq))
        oldest = max(1, seq - 15)
        assert node.handle(_req(oldest)) == sent[oldest]
    for seq in range(1, WINDOW + 1):
        node.handle(_req(seq, client=2))
    outstanding = range(last - 15, last + 1)
    assert [node.handle(_req(seq)) for seq in outstanding] == \
        [sent[seq] for seq in outstanding]
    assert node.executed_unique == last + WINDOW
    assert (node.duplicates, node.expired) == (last + 16, 0)


def test_a_retransmission_left_of_the_window_is_absorbed_not_rerun():
    """Seq 1 after a window's worth of later requests: its reply was
    evicted, so it gets none, and it does not run again.  Catches:
    re-executing on a miss."""
    node = NodeServer("expire")
    for seq in range(1, WINDOW + 2):
        node.handle(_req(seq))
    assert node.windows[1].floor == 1
    assert node.handle(_req(1)) is None
    assert (node.executed_unique, node.duplicates, node.expired) == \
        (WINDOW + 1, 1, 1)
    assert decode_frame(node.handle(_req(2))).reply_to == 2  # still inside
    assert (node.executed_unique, node.duplicates, node.expired) == \
        (WINDOW + 1, 2, 1)


def test_interleaved_clients_never_evict_each_other():
    """Two clients taking turns for three windows each: each window
    holds exactly its own client's last `REPLY_CACHE_LIMIT` replies,
    with that client's payloads.  Catches: one FIFO shared by both (it
    would hold half a window of each), and a window keyed by seq alone
    (the second client would be replayed the first one's replies)."""
    node = NodeServer("pair")
    replies = {}
    for seq in range(1, 3 * WINDOW + 1):
        for client in (1, 2):
            replies[client, seq] = node.handle(_req(seq, client))
    assert node.executed_unique == 6 * WINDOW
    kept = list(range(2 * WINDOW + 1, 3 * WINDOW + 1))
    for client in (1, 2):
        assert sorted(node.windows[client]) == kept
        for seq in (kept[0], kept[-1]):
            reply = node.handle(_req(seq, client))
            assert reply == replies[client, seq]
            assert decode_frame(reply).payload == _req(seq, client).payload
    assert (node.duplicates, node.expired) == (4, 0)


def test_a_client_that_skips_and_reorders_stays_bounded_and_never_reruns():
    """Seqs with gaps (some wider than a window), shuffled in blocks of
    16: the keyed eviction of ``seq - window`` rarely finds an entry,
    so only the sweep keeps the window at two windows' worth or less.
    Every request runs once or is refused, and sending them all again
    runs nothing.  Catches: evicting only ``seq - window`` (the window
    grows without bound), and a sweep that forgets to raise the floor
    (the second pass re-runs what it evicted)."""
    rng = random.Random(27)
    seqs, seq = [], 0
    for _ in range(20 * WINDOW):
        seq += rng.choice((1, 2, 3, 5, 8, 2 * WINDOW))
        seqs.append(seq)
    for i in range(0, len(seqs), 16):
        block = seqs[i:i + 16]
        rng.shuffle(block)
        seqs[i:i + 16] = block
    node = NodeServer("skips")
    for seq in seqs:
        node.handle(_req(seq))
        assert len(node.windows[1]) <= 2 * WINDOW
    assert node.executed_unique + node.expired == len(seqs)
    ran = node.executed_unique
    assert ran > len(seqs) // 2
    for seq in seqs:
        node.handle(_req(seq))
    assert node.executed_unique == ran
    assert len(node.windows[1]) <= 2 * WINDOW


def test_a_jump_back_never_lowers_the_floor():
    """Seqs 1..window+88 (floor 88), then window+588, whose keyed
    eviction takes 588 (floor 588), then window+488, whose keyed
    eviction would take 488 — below the floor.  588 must stay left of
    the window.  Catches: a keyed eviction that lowers the floor (588
    would run again)."""
    node = NodeServer("jump")
    for seq in (*range(1, WINDOW + 89), WINDOW + 588, WINDOW + 488):
        node.handle(_req(seq))
    assert node.windows[1].floor == 588
    assert node.handle(_req(588)) is None
    assert (node.executed_unique, node.expired) == (WINDOW + 90, 1)


def test_a_withheld_reply_is_replayed_on_retransmission():
    """``--drop-first``: the first request runs and its reply is held
    back; the client's retransmission gets that reply, not a second
    run.  Catches: a withheld reply that is not cached."""
    node = NodeServer("dropper", drop_first=1)
    assert node.handle(_req(1)) is None
    assert decode_frame(node.handle(_req(1))).payload == _req(1).payload
    assert (node.executed_unique, node.duplicates, node.dropped_replies,
            node.expired) == (1, 1, 1, 0)


def test_stats_report_expired():
    """Catches: a ``__stats__`` reply without the ``expired`` count."""
    node = NodeServer("stats")
    for seq in range(1, WINDOW + 2):
        node.handle(_req(seq))
    node.handle(_req(1))
    reply = node.handle(WireMessage(kind=MsgKind.REQUEST, seq=0,
                                    opname=STATS_OP, sent_at=0.0))
    stats = json.loads(decode_frame(reply).payload)
    assert (stats["executed_unique"], stats["duplicates"],
            stats["expired"]) == (WINDOW + 1, 1, 1)


# ----------------------------------------------------------------------
# the reply bytes
# ----------------------------------------------------------------------
def _oracle(req, n):
    """The node's ``n``-th reply to ``req`` as it was built before the
    node answered from the frame: a `WireMessage` encoded afresh."""
    return encode_frame(WireMessage(
        kind=MsgKind.REPLY, seq=n, reply_to=req.seq, opname=req.opname,
        sighash=req.sighash, payload=req.payload, sent_at=0.0,
        span=req.span))


def _answer(node, *reqs):
    """What ``node.answer`` sends for one read carrying ``reqs``."""
    return node.answer(FrameReader(), b"".join(
        pack_frame(encode_frame(req)) for req in reqs))


@settings(max_examples=300, deadline=None)
@given(req=_messages, earlier=st.integers(0, 3))
@example(req=_PING, earlier=0)
@example(req=_EVERYTHING, earlier=2)
def test_the_reply_is_the_request_echoed_byte_for_byte(req, earlier):
    """Any request, of any kind, with any enclosures, metadata, error
    and span, as the node's ``earlier + 1``-th reply: byte for byte the
    oracle.  Catches: a reply head with the wrong seq, reply_to or
    sighash, a request field leaking into the reply's tail (its
    enclosures, metadata, error or ``sent_at``), and a span run copied
    from the request instead of re-encoded."""
    assume(req.opname not in (STATS_OP, BYE_OP))
    node = NodeServer("echo")
    others = [WireMessage(kind=MsgKind.REQUEST, seq=seq, opname="ping",
                          sighash=req.sighash ^ 1) for seq in range(earlier)]
    _answer(node, *others)
    assert _answer(node, req) == pack_frame(_oracle(req, earlier + 1))


@settings(max_examples=300, deadline=None)
@given(req=_messages, at=st.integers(min_value=0),
       value=st.integers(0, 255), truncate=st.booleans())
@example(req=_PING, at=1, value=len(MsgKind), truncate=False)
@example(req=_PING, at=27, value=0xFF, truncate=False)
# a span flags byte with a bit no version defines: accepted, and the
# reply's span run is re-encoded, not copied
@example(req=_EVERYTHING, at=-26, value=0x0B, truncate=False)
def test_a_damaged_request_is_refused_exactly_as_decode_frame_refuses_it(
        req, at, value, truncate):
    """One mutated byte, or truncation at any byte: `answer` raises
    `FrameError` exactly when `decode_frame` does, and then no counter
    of the node has moved.  What it accepts, it answers as the oracle
    answers what `decode_frame` read.  Catches: a check the node's walk
    skips or adds, and a counter moved before the walk is done."""
    body = encode_frame(req)
    at %= len(body)
    damaged = body[:at] if truncate else _with_byte(body, at, value)
    node = NodeServer("damaged")
    before = node.stats()
    try:
        read = decode_frame(damaged)
    except FrameError:
        with pytest.raises(FrameError):
            node.answer(FrameReader(), pack_frame(damaged))
        assert node.stats() == before and not node.windows
        return
    reply = node.answer(FrameReader(), pack_frame(damaged))
    if read.opname not in (STATS_OP, BYE_OP):
        assert reply == pack_frame(_oracle(read, 1))


def _script():
    """Every path of a node's at-most-once logic, in one sequence: a
    withheld reply and its replay, a window's worth of fresh requests,
    an expired retransmission, a second client, ``__stats__``, a
    ``__bye__``, and the same client starting over after it."""
    yield from (_req(1), _req(1))
    yield from (_req(seq) for seq in range(2, WINDOW + 3))
    yield from (_req(1), _req(WINDOW + 2), _req(1, client=2))
    yield WireMessage(kind=MsgKind.REQUEST, seq=0, opname=STATS_OP)
    yield WireMessage(kind=MsgKind.REQUEST, seq=0, opname=BYE_OP, sighash=1)
    yield from (_req(1), _req(1))


def test_answer_and_handle_give_the_same_bytes():
    """The script through `handle`, through `answer` one frame per read,
    and through `answer` in one read: the same replies, byte for byte,
    and the same counters.  Catches: the adapter and the unit of work
    drifting apart on any path (replay, expiry, ``--drop-first``,
    ``__stats__``, ``__bye__``)."""
    by_handle, one_by_one, at_once = (
        NodeServer("twin", drop_first=1) for _ in range(3))
    handled = [by_handle.handle(req) for req in _script()]
    assert handled.count(None) == 3  # withheld, expired, bye
    assert [_answer(one_by_one, req) for req in _script()] == \
        [b"" if body is None else pack_frame(body) for body in handled]
    assert _answer(at_once, *_script()) == b"".join(
        pack_frame(body) for body in handled if body is not None)
    stats = json.loads(decode_frame(handled[-4]).payload)
    assert (stats["executed_unique"], stats["duplicates"], stats["expired"],
            stats["dropped_replies"]) == (WINDOW + 3, 3, 1, 1)
    assert one_by_one.stats() == at_once.stats() == by_handle.stats()
    assert sorted(by_handle.windows) == [1, 2]


#: Python calls per answered frame — every code object and builtin
#: cProfile sees, over one read of 16 fresh pings — about 1.09 x the
#: 26.4 that CPython 3.11.7 counts.  Through `decode_frame`, `handle`
#: and `_reply_to` (a `WireMessage` built and encoded per reply) the
#: node made 39.4.  Only ever lowered.
CALLS_PER_FRAME_CEILING = 28.8


def test_a_frame_costs_a_bounded_number_of_calls():
    """Catches: a node that decodes a `WireMessage` per request or
    encodes one per reply again, or any other call added to the path
    every frame takes."""
    node, deframe = NodeServer("calls"), FrameReader()

    def read(first):
        return b"".join(pack_frame(encode_frame(_req(seq)))
                        for seq in range(first, first + 16))

    node.answer(deframe, read(1))
    data = read(17)
    prof = cProfile.Profile()
    prof.enable()
    out = node.answer(deframe, data)
    prof.disable()
    assert len(deframe.feed(out)) == 16 and node.executed_unique == 32
    calls = sum(entry.callcount for entry in prof.getstats()) / 16
    assert calls <= CALLS_PER_FRAME_CEILING, calls


# ----------------------------------------------------------------------
# the memory guard
# ----------------------------------------------------------------------
#: bytes a node keeps with two clients' windows full, about 1.12 x what
#: it measures on CPython 3.11.7 (187,264 after 5,000 requests per
#: client, 187,248 after 50,000; 3.10.13, 3.12.1 and 3.13.0 keep
#: 185,100–188,204; the flat table the windows replaced kept 1,947,208
#: after 5,000 and 21,835,160 after 50,000): only ever lowered
KEPT_BYTES_CEILING = 210_000


def _kept_bytes(per_client):
    """What ``tracemalloc`` still counts once a node has served
    ``per_client`` requests from each of two clients."""
    NodeServer("warm-up").handle(_req(1))
    # one request object per client, its seq advanced in place: the
    # node keeps reply bytes, never the request
    reqs = (_req(0, 1), _req(0, 2))
    gc.collect()
    tracemalloc.start()
    try:
        node = NodeServer("guard")
        for seq in range(1, per_client + 1):
            for req in reqs:
                req.seq = seq
                node.handle(req)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert node.executed_unique == 2 * per_client
    return kept


def test_a_node_keeps_its_clients_windows_not_its_history():
    """The same two clients after 5,000 and after 50,000 requests each:
    the node keeps the same bytes, within 5 %, under the ceiling.
    Catches: any table that grows with the requests served."""
    short, long = _kept_bytes(5_000), _kept_bytes(50_000)
    assert abs(long - short) <= 0.05 * short, (short, long)
    assert max(short, long) <= KEPT_BYTES_CEILING, (short, long)
