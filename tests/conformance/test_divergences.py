"""Where the implementations legitimately differ (§3.2, §5.2, §6).

These tests run one scenario on every registered backend and assert
*different* outcomes — the paper's comparison table in executable form.
The expected outcome per backend is not hardcoded: it is read from the
backend's `KernelCapabilities` in the registry, so a new backend (like
``ideal``) is covered the moment it registers, and the table below is
derived, not duplicated:

=====================================  =========  ====  =========  =====  ============
behaviour                              charlotte  soda  chrysalis  ideal  real-asyncio
=====================================  =========  ====  =========  =====  ============
unwanted-message bounce traffic        yes        no    no         no     no
server feels RequestAborted            no         yes   yes        yes    yes
enclosures of aborted msgs recovered   no         yes   yes        yes    yes
hard processor failure detected        yes        yes   no         yes    yes
=====================================  =========  ====  =========  =====  ============

The ``real-asyncio`` column matches ``ideal`` by construction: it *is*
the ideal kernel (`repro.net.ideal_framed` subclasses it), delivering
the copy of each message that survived the node processes' frame
codec — what a message is made of changes, not what happens to it.
"""

import pytest

from repro.core.api import (
    BYTES,
    INT,
    LINK,
    LinkDestroyed,
    Operation,
    Proc,
    RequestAborted,
    ThreadAborted,
    kernel_profile,
    make_cluster,
    registered_kernels,
)
from repro.core.registry import EndDisposition
from repro.sim.faults import CrashMode

ECHO = Operation("echo", (BYTES,), (BYTES,))
ADD = Operation("add", (INT, INT), (INT,))
GIVE = Operation("give", (LINK,), ())


# ----------------------------------------------------------------------
# scenario 1: the §3.2.1 reverse-direction request
# ----------------------------------------------------------------------
class _RevA(Proc):
    def __init__(self):
        self.reply = None

    def main(self, ctx):
        (end,) = ctx.initial_links
        yield from ctx.register(ECHO, ADD)
        self.reply = yield from ctx.connect(end, ECHO, (b"ping",))
        yield from ctx.open(end)
        inc = yield from ctx.wait_request()
        yield from ctx.reply(inc, (inc.args[0] + inc.args[1],))


class _RevB(Proc):
    def __init__(self):
        self.reverse_reply = None

    def reverse(self, ctx, end):
        self.reverse_reply = yield from ctx.connect(end, ADD, (2, 3))

    def main(self, ctx):
        (end,) = ctx.initial_links
        yield from ctx.register(ECHO, ADD)
        yield from ctx.open(end)
        inc = yield from ctx.wait_request()
        yield from ctx.fork(self.reverse(ctx, end), "rev")
        yield from ctx.delay(1.0)
        yield from ctx.reply(inc, (inc.args[0],))


def _run_reverse_scenario(kind):
    cluster = make_cluster(kind)
    a_prog, b_prog = _RevA(), _RevB()
    a = cluster.spawn(a_prog, "A")
    b = cluster.spawn(b_prog, "B")
    cluster.create_link(a, b)
    cluster.run_until_quiet(max_ms=1e6)
    assert cluster.all_finished, (kind, cluster.unfinished())
    assert a_prog.reply == (b"ping",)
    assert b_prog.reverse_reply == (5,)
    return cluster.metrics


@pytest.mark.parametrize("kind", registered_kernels())
def test_unwanted_messages_follow_capability(kind):
    """Same program, same outcome — but only kernels that deliver
    eagerly pay bounce traffic (§6: "be sure that all received
    messages are wanted")."""
    profile = kernel_profile(kind)
    metrics = _run_reverse_scenario(kind)
    if profile.capabilities.bounces_unwanted:
        assert metrics.get("runtime.unwanted") >= 1
        if "charlotte" in profile.metric_namespaces:
            assert metrics.get("charlotte.forbid_sent") >= 1
    else:
        assert metrics.get("runtime.unwanted") == 0


# ----------------------------------------------------------------------
# scenario 2: abort after receipt -> server-side exception?
# ----------------------------------------------------------------------
class _AbortClient(Proc):
    def __init__(self, abort_at):
        self.abort_at = abort_at
        self.aborted = False

    def requester(self, ctx, end):
        try:
            yield from ctx.connect(end, ECHO, (b"x",))
        except ThreadAborted:
            self.aborted = True

    def main(self, ctx):
        (end,) = ctx.initial_links
        t = yield from ctx.fork(self.requester(ctx, end), "req")
        yield from ctx.delay(self.abort_at)
        yield from ctx.abort(t)
        yield from ctx.delay(3 * self.abort_at + 100.0)


class _SlowServer(Proc):
    def __init__(self, serve_delay):
        self.serve_delay = serve_delay
        self.reply_error = None

    def main(self, ctx):
        (end,) = ctx.initial_links
        yield from ctx.register(ECHO)
        yield from ctx.open(end)
        inc = yield from ctx.wait_request()
        yield from ctx.delay(self.serve_delay)
        try:
            yield from ctx.reply(inc, (inc.args[0],))
        except RequestAborted as e:
            self.reply_error = e


@pytest.mark.parametrize("kind", registered_kernels())
def test_server_side_abort_exception(kind):
    """§3.2/§6 item 4: only kernels whose transport can screen replies
    give the server the exception "without any extra
    acknowledgments" — Charlotte cannot."""
    profile = kernel_profile(kind)
    # time scales differ by ~25x between kernel families
    scale = profile.time_scale
    cluster = make_cluster(kind)
    client = _AbortClient(abort_at=100.0 * scale)
    server = _SlowServer(serve_delay=200.0 * scale)
    s = cluster.spawn(server, "server")
    c = cluster.spawn(client, "client")
    cluster.create_link(s, c)
    cluster.run_until_quiet(max_ms=1e6)
    assert cluster.all_finished, cluster.unfinished()
    assert client.aborted
    if profile.capabilities.server_feels_abort:
        assert isinstance(server.reply_error, RequestAborted)
    else:
        assert server.reply_error is None


# ----------------------------------------------------------------------
# scenario 3: §3.2.2 — enclosure in an aborted message + receiver crash
# ----------------------------------------------------------------------
class _EncAborter(Proc):
    def __init__(self, abort_at):
        self.abort_at = abort_at
        self.given_ref = None

    def requester(self, ctx, to_b, enc):
        try:
            yield from ctx.connect(to_b, GIVE, (enc,))
        except ThreadAborted:
            pass
        except Exception:  # noqa: BLE001
            pass

    def main(self, ctx):
        (to_b,) = ctx.initial_links
        mine, theirs = yield from ctx.new_link()
        self.given_ref = theirs.end_ref
        t = yield from ctx.fork(self.requester(ctx, to_b, theirs), "req")
        yield from ctx.delay(self.abort_at)
        yield from ctx.abort(t)
        # stay alive past the measurement horizon: process exit would
        # legitimately destroy the surviving link
        yield from ctx.delay(1e9)


class _ReplyWaiter(Proc):
    """Receives A's request unintentionally (Charlotte) or never
    receives it at all (the others: queue closed)."""

    def main(self, ctx):
        (to_a,) = ctx.initial_links
        try:
            yield from ctx.connect(to_a, ECHO, (b"unanswered",))
        except LinkDestroyed:
            pass


@pytest.mark.parametrize("kind", registered_kernels())
def test_aborted_enclosure_after_crash(kind):
    """§3.2.2 (a)–(d) on every backend.  Charlotte loses the enclosed
    link; kernels where receipt only happens on explicit
    accept/scatter "recover the enclosures in aborted messages"
    (§6 item 3)."""
    profile = kernel_profile(kind)
    scale = profile.time_scale
    cluster = make_cluster(kind)
    a_prog = _EncAborter(abort_at=40.0 * scale)
    a = cluster.spawn(a_prog, "A")
    b = cluster.spawn(_ReplyWaiter(), "B")
    cluster.create_link(a, b)
    # the crash lands just after the abort: late enough for the abort
    # to have gone out, early enough that Charlotte's recovery (which
    # needs the receiver alive) has not completed
    cluster.engine.schedule(45.0 * scale, cluster.crash_process, "B",
                            CrashMode.PROCESSOR)
    cluster.run_until_quiet(max_ms=1e5)
    ref = a_prog.given_ref
    disp = cluster.registry.disposition_of(ref)
    if profile.capabilities.recovers_aborted_enclosures:
        assert disp is EndDisposition.OWNED
        assert cluster.registry.owner_of(ref) == "A"
        assert not cluster.registry.is_destroyed(ref.link)
    else:
        lost = (
            disp in (EndDisposition.LOST, EndDisposition.IN_TRANSIT)
            or cluster.registry.is_destroyed(ref.link)
        )
        assert lost, f"{kind} unexpectedly preserved {ref}: {disp}"


# ----------------------------------------------------------------------
# scenario 4: hard processor failure
# ----------------------------------------------------------------------
class _CrashWatcher(Proc):
    def __init__(self):
        self.error = None

    def main(self, ctx):
        (end,) = ctx.initial_links
        try:
            yield from ctx.connect(end, ECHO, (b"x",))
        except LinkDestroyed as e:
            self.error = e


class _Doomed(Proc):
    def main(self, ctx):
        (end,) = ctx.initial_links
        yield from ctx.delay(1e6)


@pytest.mark.parametrize("kind", registered_kernels())
def test_processor_failure_detection(kind):
    """Charlotte's kernel survives its processes; SODA's kernel
    processor outlives the client processor; Chrysalis §5.2:
    "Processor failures are currently not detected." """
    profile = kernel_profile(kind)
    cluster = make_cluster(kind)
    watcher = _CrashWatcher()
    d = cluster.spawn(_Doomed(), "doomed")
    w = cluster.spawn(watcher, "watcher")
    cluster.create_link(d, w)
    cluster.engine.schedule(30.0, cluster.crash_process, "doomed",
                            CrashMode.PROCESSOR)
    cluster.run_until_quiet(max_ms=1e6)
    if profile.capabilities.detects_processor_failure:
        assert isinstance(watcher.error, LinkDestroyed)
        assert cluster.processes["watcher"].finished
    else:
        assert watcher.error is None
        assert "watcher" in cluster.unfinished()
