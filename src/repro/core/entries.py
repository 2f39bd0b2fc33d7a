"""Entries: LYNX's server-side binding of operations to coroutines.

In real LYNX a process declares *entry* procedures; when a request for
a bound operation arrives on an open link, the run-time package creates
(or resumes) a coroutine to serve it.  The low-level API of
`repro.core.context` exposes the raw mechanism (``wait_request`` /
``reply``); this module provides the language-flavoured layer on top:

    from repro.core.entries import serve

    class Server(Proc):
        def main(self, ctx):
            yield from serve(ctx, ctx.initial_links, {
                GET: lambda key: (self.table[key],),      # auto-reply
                PUT: self.put_entry,                      # coroutine
            }, count=10)

        def put_entry(self, ctx, inc):                    # full control
            key, value = inc.args
            self.table[key] = value
            yield from ctx.reply(inc, ())

Two handler styles:

* a **plain callable** taking the request arguments and returning the
  reply tuple — `serve` replies on the handler's behalf (the common
  case for small entries);
* a **generator function** taking ``(ctx, inc)`` — it runs as its own
  coroutine (forked, so long entries overlap, preserving §2's
  coroutine structure) and must call ``ctx.reply`` itself.
"""

from __future__ import annotations

import inspect
from typing import Callable, Dict, Iterable, Optional, Sequence

from repro.core.context import LynxContext
from repro.core.exceptions import LinkDestroyed, RequestAborted
from repro.core.links import LinkEnd
from repro.core.program import Incoming
from repro.core.types import Operation

Handler = Callable


def _is_coroutine_entry(handler: Handler) -> bool:
    return inspect.isgeneratorfunction(handler)


def serve(
    ctx: LynxContext,
    ends: Sequence[LinkEnd],
    handlers: Dict[Operation, Handler],
    count: Optional[int] = None,
):
    """Serve requests on ``ends`` until ``count`` have been handled (or
    every end dies, when ``count`` is None).  Returns the number
    served.

    Registration and queue opening are performed here; the caller's
    coroutine becomes the dispatch loop — the closest Python analog of
    LYNX's implicit entry dispatch.
    """
    by_name = {}
    for op, handler in handlers.items():
        yield from ctx.register(op)
        by_name[op.name] = (op, handler)
    ends = list(ends)
    for end in ends:
        yield from ctx.open(end)
    served = 0
    while count is None or served < count:
        try:
            inc: Incoming = yield from ctx.wait_request(ends)
        except LinkDestroyed:
            break
        op, handler = by_name[inc.op.name]
        try:
            if _is_coroutine_entry(handler):
                yield from ctx.fork(handler(ctx, inc), f"entry:{op.name}")
            else:
                results = handler(*inc.args)
                if results is None:
                    results = ()
                yield from ctx.reply(inc, tuple(results))
        except (LinkDestroyed, RequestAborted):
            # the requester vanished (or gave up) mid-serve: that kills
            # this request, not the dispatch loop — other links are
            # still alive and owed service
            continue
        served += 1
    for end in ends:
        try:
            yield from ctx.close(end)
        except LinkDestroyed:
            pass
    return served


def call(ctx: LynxContext, end: LinkEnd, op: Operation, *args):
    """Client-side sugar: ``yield from call(ctx, end, OP, a, b)`` —
    exactly ``ctx.connect`` with unpacked arguments, returning a bare
    value when the reply signature has exactly one result."""
    results = yield from ctx.connect(end, op, args)
    if len(op.reply) == 1:
        return results[0]
    return results
