"""Process supervision for real node processes.

`NodeSupervisor` spawns each node as ``python -m repro.net``
(`repro.net.__main__`: its own interpreter, its own `selectors` loop,
its own socket, and only the wire's modules imported), confirms
liveness through the ``REPRO-NET READY <endpoint>`` stdout handshake,
and detects crashes two ways — the supervisor side sees the exit code,
the client side sees ``ECONNREFUSED``/EOF — both of which feed the
load generator's failover path.  A node's stderr goes to
``<socket dir>/<name>.stderr`` (`NodeProcess.stderr_path`): its tail is
what a `SpawnFailed` reports, and anything there is a node's last
words: an exception that escaped its loop ends it.  ``crash()`` is
deliberate failure injection (SIGKILL: the node runs no cleanup, like
the simulator's PROCESSOR crash mode); ``stop_all()`` is orderly
teardown and is safe to call twice.
"""

from __future__ import annotations

import os
import selectors
import subprocess
import sys
import tempfile
from typing import Dict, NamedTuple, Optional

from repro.net.server import READY_PREFIX

#: wall seconds a freshly spawned node gets to print its READY line
SPAWN_DEADLINE_S = 20.0


class TransportUnavailable(RuntimeError):
    """This host cannot run node processes (subprocesses or sockets
    forbidden); tests skip with the reason, benches record ``None``."""


class SpawnFailed(TransportUnavailable):
    """A node process died or stalled before announcing readiness."""


class NodeProcess(NamedTuple):
    """One supervised node: the Popen handle plus its endpoint."""

    name: str
    proc: subprocess.Popen
    #: UDS path, or ``host:port`` when serving TCP
    endpoint: str
    #: file the node's stderr goes to; lives until `stop_all`
    stderr_path: str


def _await_ready(proc: subprocess.Popen, deadline_s: float) -> str:
    """Block until the child prints its READY line; return the endpoint.
    It is the first line a node prints, and it arrives in one write."""
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        if not sel.select(timeout=deadline_s):
            raise SpawnFailed(
                f"node did not become ready within {deadline_s:.0f}s"
            )
    line = proc.stdout.readline().decode("utf-8", "replace").strip()
    if not line.startswith(READY_PREFIX):
        raise SpawnFailed(f"node printed {line!r} before READY")
    return line[len(READY_PREFIX):].strip()


class NodeSupervisor:
    """Spawn, monitor, crash, and tear down real node processes."""

    def __init__(self) -> None:
        self.nodes: Dict[str, NodeProcess] = {}
        self._tmpdir: Optional[tempfile.TemporaryDirectory] = None

    # -- lifecycle -----------------------------------------------------
    def _socket_dir(self) -> str:
        if self._tmpdir is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-nodes-")
        return self._tmpdir.name

    def spawn(self, name: str, tcp: bool = False,
              drop_first: int = 0) -> NodeProcess:
        """Start one node and wait for its READY handshake."""
        if name in self.nodes:
            raise ValueError(f"duplicate node name {name!r}")
        # the directory that holds the `repro` package this module is in
        src_dir = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)
        )))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src_dir, os.environ.get("PYTHONPATH"))))}
        bind = (["--tcp", "0"] if tcp else
                ["--socket", os.path.join(self._socket_dir(), f"{name}.sock")])
        cmd = [sys.executable, "-m", "repro.net", "--name", name, *bind,
               "--drop-first", str(drop_first)]
        stderr_path = os.path.join(self._socket_dir(), f"{name}.stderr")
        with open(stderr_path, "wb") as stderr:
            proc = subprocess.Popen(
                cmd, stdout=subprocess.PIPE, stderr=stderr, env=env
            )
        try:
            endpoint = _await_ready(proc, SPAWN_DEADLINE_S)
        except SpawnFailed as exc:
            proc.kill()
            proc.wait()
            proc.stdout.close()
            with open(stderr_path, "rb") as stderr:
                tail = stderr.read()[-2000:].decode("utf-8", "replace")
            raise SpawnFailed(f"{exc}; its stderr ended: {tail!r}") from None
        node = NodeProcess(name, proc, endpoint, stderr_path)
        self.nodes[name] = node
        return node

    def crash(self, name: str) -> None:
        """Hard-kill a node (no cleanup runs — the PROCESSOR mode of
        the real world).  Clients learn of the death through refused
        connections; the supervisor through the exit code."""
        node = self.nodes[name]
        node.proc.kill()
        node.proc.wait()

    def stop_all(self) -> None:
        """Orderly teardown of every node still running."""
        for node in self.nodes.values():
            node.proc.terminate()  # a no-op on a node that already exited
        for node in self.nodes.values():
            node.proc.wait()  # a node runs no SIGTERM handler: it ends
            node.proc.stdout.close()
        self.nodes.clear()
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None

    def __enter__(self) -> "NodeSupervisor":
        return self

    def __exit__(self, *exc) -> None:
        self.stop_all()
