"""The context helpers must produce exactly the documented ops."""

import pytest

from repro.core import ops as _ops
from repro.core.api import Proc
from repro.core.context import LynxContext
from repro.core.exceptions import ProtocolViolation
from repro.core.links import EndRef, LinkEnd
from repro.core.runtime import LynxRuntimeBase
from repro.core.types import BYTES, Operation
from tests.core.fakes import FakeCluster


class _StubRuntime:
    initial_links = [LinkEnd(EndRef(1, 0), "stub")]
    name = "stub"


ECHO = Operation("echo", (BYTES,), (BYTES,))


@pytest.fixture
def ctx():
    return LynxContext(_StubRuntime())


def first_yield(gen):
    return next(gen)


def test_connect_builds_connect_op(ctx):
    end = LinkEnd(EndRef(2, 1))
    op = first_yield(ctx.connect(end, ECHO, (b"x",)))
    assert isinstance(op, _ops.ConnectOp)
    assert op.end is end and op.op is ECHO and op.args == (b"x",)


def test_open_close_destroy(ctx):
    end = LinkEnd(EndRef(2, 1))
    assert isinstance(first_yield(ctx.open(end)), _ops.OpenOp)
    assert isinstance(first_yield(ctx.close(end)), _ops.CloseOp)
    assert isinstance(first_yield(ctx.destroy(end)), _ops.DestroyOp)


def test_wait_request_filter_tuple(ctx):
    e1, e2 = LinkEnd(EndRef(1, 0)), LinkEnd(EndRef(2, 0))
    op = first_yield(ctx.wait_request([e1, e2]))
    assert isinstance(op, _ops.WaitRequestOp)
    assert op.ends == (e1, e2)
    op2 = first_yield(ctx.wait_request())
    assert op2.ends is None


def test_register_yields_one_op_per_operation(ctx):
    other = Operation("other", (), ())
    ops = list(ctx.register(ECHO, other))
    assert [o.operation for o in ops] == [ECHO, other]
    assert all(isinstance(o, _ops.RegisterOp) for o in ops)


def test_delay_vs_compute(ctx):
    d = first_yield(ctx.delay(5.0))
    c = first_yield(ctx.compute(5.0))
    assert isinstance(d, _ops.DelayOp) and d.ms == 5.0
    assert isinstance(c, _ops.ComputeOp) and c.ms == 5.0
    assert type(d) is not type(c)


def test_initial_links_is_a_tuple_snapshot(ctx):
    links = ctx.initial_links
    assert isinstance(links, tuple) and len(links) == 1
    assert ctx.name == "stub"


def test_fork_and_abort(ctx):
    def child():
        yield

    gen = child()
    f = first_yield(ctx.fork(gen, "kid"))
    assert isinstance(f, _ops.ForkOp) and f.gen is gen and f.name == "kid"

    from repro.core.threads import LynxThread

    t = LynxThread(child(), "t")
    a = first_yield(ctx.abort(t))
    assert isinstance(a, _ops.AbortThreadOp) and a.thread is t


def test_every_op_has_a_handler_and_every_handler_an_op():
    """`LynxRuntimeBase._OPS` *is* the language surface: an op added to
    `repro.core.ops` without a row fails here, not as "unknown op" in
    some program."""
    surface = {
        cls for cls in vars(_ops).values()
        if isinstance(cls, type) and issubclass(cls, _ops.LynxOp)
        and cls is not _ops.LynxOp
    }
    assert surface == set(LynxRuntimeBase._OPS)


def test_yielding_a_non_op_raises_in_the_yielding_thread():
    class Confused(Proc):
        def __init__(self):
            self.felt = []

        def main(self, ctx):
            for not_an_op in (42, _ops.LynxOp()):
                try:
                    yield not_an_op
                except ProtocolViolation as err:
                    self.felt.append(str(err))
            # the thread survived both and still runs real ops
            self.felt.append((yield from ctx.whoami()))

    proc = Confused()
    cluster = FakeCluster()
    cluster.spawn(proc, "confused")
    cluster.run_until_quiet()
    assert cluster.all_finished
    assert [f.split()[0] for f in proc.felt] == ["unknown", "unknown", "confused"]
