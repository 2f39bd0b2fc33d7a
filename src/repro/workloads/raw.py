"""Raw kernel-call baselines for all three kernels.

§3.3 measures LYNX against "C programs that make the same series of
kernel calls"; `raw_charlotte_rpc` is that program for Charlotte (E1's
baseline), and `raw_soda_rpc` / `raw_chrysalis_rpc` are its
equivalents for SODA and Chrysalis, so the *runtime package overhead*
(LYNX minus raw) can be measured on every kernel — which is exactly
the quantity §4.3 reasons about: "run-time routines under SODA would
need to perform most of the same functions as their counterparts for
Charlotte ... relatively major differences in run-time package
overhead appear to be unlikely."  Bench A4 tests that prediction.

These baselines run as plain simulation tasks against the kernel
ports, with none of the LYNX machinery (no coroutine scheduler, no
typed marshalling, no link bookkeeping).
"""

from __future__ import annotations

from typing import List

from repro.core.wire import MsgKind, WireMessage
from repro.sim.tasks import Task
from repro.workloads.rpc import RPCResult

__all__ = ["raw_charlotte_rpc", "raw_soda_rpc", "raw_chrysalis_rpc",
           "raw_rpc"]


def raw_charlotte_rpc(
    payload_bytes: int = 0, count: int = 10, seed: int = 0
) -> RPCResult:
    """§3.3's baseline: "C programs that make the same series of kernel
    calls" — the RPC pattern driven directly against the Charlotte
    kernel ports, bypassing the LYNX runtime entirely."""
    from repro.charlotte.kernel import CompletionKind
    from repro.charlotte.cluster import CharlotteCluster

    cluster = CharlotteCluster(seed=seed)
    kernel = cluster.kernel
    ka = kernel.register_process("raw-client", 0)
    kb = kernel.register_process("raw-server", 1)
    status, ra, rb = kernel._make_link("raw-client")
    kernel.links[ra.link].ends[1].owner = "raw-server"
    kernel.links[ra.link].ends[1].node = 1

    rtts: List[float] = []
    eng = cluster.engine
    total = count + 1  # one warm-up

    def client():
        body = b"q" * payload_bytes
        for i in range(total):
            t0 = eng.now
            # post the receive for the reply, then send the request
            yield ka.receive(ra)
            msg = WireMessage(kind=MsgKind.REQUEST, seq=i + 1, payload=body)
            yield ka.send(ra, msg)
            # wait for send completion, then for the reply
            got_reply = False
            while not got_reply:
                desc = yield ka.wait()
                if desc.kind is CompletionKind.RECV_DONE:
                    got_reply = True
            if i > 0:
                rtts.append(eng.now - t0)

    def server():
        body = b"r" * payload_bytes
        yield kb.receive(rb)
        for i in range(total):
            # wait for a request
            while True:
                desc = yield kb.wait()
                if desc.kind is CompletionKind.RECV_DONE:
                    req = desc.msg
                    break
            # repost receive for the next request, then send the reply
            if i + 1 < total:
                yield kb.receive(rb)
            reply = WireMessage(
                kind=MsgKind.REPLY, seq=1000 + i, reply_to=req.seq, payload=body
            )
            yield kb.send(rb, reply)
            while True:
                desc = yield kb.wait()
                if desc.kind is CompletionKind.SEND_DONE:
                    break

    tc = Task(eng, client(), "raw-client")
    ts = Task(eng, server(), "raw-server")
    cluster.run_until_quiet(max_ms=1e7)
    if not (tc.finished and ts.finished):
        raise RuntimeError("raw Charlotte RPC workload hung")
    tc.done.result()
    ts.done.result()
    return RPCResult(
        kind="charlotte-raw",
        payload_bytes=payload_bytes,
        rtts=rtts,
        messages=cluster.metrics.total("wire.messages."),
        wire_bytes=cluster.metrics.get("wire.bytes"),
        trace=cluster.trace,
    )


def raw_soda_rpc(payload_bytes: int = 0, count: int = 10,
                 seed: int = 0) -> RPCResult:
    """Client puts a request; server accepts, puts the reply; client
    accepts — the minimal §4.1 conversation, no LYNX."""
    from repro.soda.cluster import SodaCluster
    from repro.soda.kernel import AcceptStatus, InterruptKind

    cluster = SodaCluster(seed=seed)
    kernel = cluster.kernel
    pa = kernel.register_process("raw-client", 0)
    pb = kernel.register_process("raw-server", 1)
    eng = cluster.engine

    client_intr: List = []
    server_intr: List = []
    pa.set_handler(client_intr.append)
    pb.set_handler(server_intr.append)

    srv_name = kernel.new_name()
    cli_name = kernel.new_name()
    kernel.advertise("raw-server", srv_name)
    kernel.advertise("raw-client", cli_name)

    rtts: List[float] = []
    total = count + 1

    def wait_for(queue, kind):
        """Poll-free wait: spin on a tiny timer until an interrupt of
        ``kind`` is queued (the raw program's idle loop)."""

        def gen():
            while True:
                for i, intr in enumerate(queue):
                    if intr.kind is kind:
                        queue.pop(i)
                        return intr
                yield 0.05

        return gen()

    def client():
        body = b"q" * payload_bytes
        for i in range(total):
            t0 = eng.now
            yield pa.request(
                "raw-server", srv_name, {"n": i}, nsend=len(body), data=body
            )
            # completion of our put = request received
            yield from wait_for(client_intr, InterruptKind.COMPLETION)
            # the reply arrives as the server's put toward cli_name
            req = yield from wait_for(client_intr, InterruptKind.REQUEST)
            status, data = yield pa.accept(req.rid, nrecv=req.nsend)
            assert status is AcceptStatus.OK
            if i > 0:
                rtts.append(eng.now - t0)

    def server():
        body = b"r" * payload_bytes
        for _ in range(total):
            req = yield from wait_for(server_intr, InterruptKind.REQUEST)
            status, data = yield pb.accept(req.rid, nrecv=req.nsend)
            assert status is AcceptStatus.OK
            yield pb.request(
                "raw-client", cli_name, {}, nsend=len(body), data=body
            )
            yield from wait_for(server_intr, InterruptKind.COMPLETION)

    tc = Task(eng, client(), "raw-client")
    ts = Task(eng, server(), "raw-server")
    cluster.run_until_quiet(max_ms=1e7)
    if not (tc.finished and ts.finished):
        raise RuntimeError("raw SODA RPC hung")
    tc.done.result()
    ts.done.result()
    return RPCResult("soda-raw", payload_bytes, rtts,
                     cluster.metrics.total("wire.messages."),
                     cluster.metrics.get("wire.bytes"))


def raw_chrysalis_rpc(payload_bytes: int = 0, count: int = 10,
                      seed: int = 0) -> RPCResult:
    """Two tasks sharing one memory object with a buffer per direction,
    a dual queue and event block each — §5.2's skeleton without LYNX."""
    from repro.chrysalis.cluster import ChrysalisCluster
    from repro.chrysalis.kernel import DQ_BLOCKED

    cluster = ChrysalisCluster(seed=seed)
    kernel = cluster.kernel
    eng = cluster.engine
    pa = kernel  # ports:
    from repro.chrysalis.kernel import ChrysalisPort

    ca = ChrysalisPort(kernel, "raw-client")
    cb = ChrysalisPort(kernel, "raw-server")

    shared = {"req": None, "rep": None, "req_full": False, "rep_full": False}
    oid = kernel.make_object(shared)
    kernel.map_object(oid)
    kernel.map_object(oid)

    rtts: List[float] = []
    total = count + 1

    def dq_wait(port, qid, eid):
        def gen():
            item = yield port.dequeue(qid, eid)
            if item is DQ_BLOCKED:
                item = yield port.event_wait(eid)
            return item

        return gen()

    def client(q_cli, e_cli, q_srv):
        body = b"q" * payload_bytes
        for i in range(total):
            t0 = eng.now
            yield ca.copy(len(body) + 24)

            def put():
                shared["req"] = body
                shared["req_full"] = True

            yield ca.atomic(put)
            yield ca.enqueue(q_srv, ("new-req",))
            while True:
                notice = yield from dq_wait(ca, q_cli, e_cli)
                if notice[0] == "new-rep" and shared["rep_full"]:
                    break
            yield ca.copy(len(shared["rep"]) + 24)

            def take():
                shared["rep_full"] = False

            yield ca.atomic(take)
            yield ca.enqueue(q_srv, ("consumed-rep",))
            if i > 0:
                rtts.append(eng.now - t0)

    def server(q_srv, e_srv, q_cli):
        body = b"r" * payload_bytes
        for _ in range(total):
            while True:
                notice = yield from dq_wait(cb, q_srv, e_srv)
                if notice[0] == "new-req" and shared["req_full"]:
                    break
            yield cb.copy(len(shared["req"]) + 24)

            def take():
                shared["req_full"] = False

            yield cb.atomic(take)
            yield cb.copy(len(body) + 24)

            def put():
                shared["rep"] = body
                shared["rep_full"] = True

            yield cb.atomic(put)
            yield cb.enqueue(q_cli, ("new-rep",))
            while True:
                notice = yield from dq_wait(cb, q_srv, e_srv)
                if notice[0] == "consumed-rep":
                    break

    q_cli = kernel.make_queue()
    q_srv = kernel.make_queue()
    e_cli = kernel.make_event("raw-client")
    e_srv = kernel.make_event("raw-server")
    tc = Task(eng, client(q_cli, e_cli, q_srv), "raw-client")
    ts = Task(eng, server(q_srv, e_srv, q_cli), "raw-server")
    cluster.run_until_quiet(max_ms=1e7)
    if not (tc.finished and ts.finished):
        raise RuntimeError("raw Chrysalis RPC hung")
    tc.done.result()
    ts.done.result()
    return RPCResult("chrysalis-raw", payload_bytes, rtts, 2.0 * total, 0.0)


def raw_rpc(kind: str, payload_bytes: int = 0, count: int = 10,
            seed: int = 0) -> RPCResult:
    """Dispatch to the per-kernel raw baseline via the registry."""
    from repro.core.ports import kernel_profile, load

    profile = kernel_profile(kind)  # raises with the registered list
    if profile.raw_rpc is None:
        raise ValueError(f"kernel {kind!r} has no raw-RPC baseline")
    return load(profile.raw_rpc)(payload_bytes, count, seed)
