"""The mini-Linda client API and factory.

Clients are *raw simulation tasks* (generators driven by
`repro.sim.tasks.Task`), not LYNX processes — the whole point of the
experiment is that this language bypasses the LYNX runtime and sits
directly on each kernel:

    system = make_linda("soda")
    def producer(client):
        yield from client.out(("job", 1))
    def consumer(client, sink):
        tup = yield from client.take(("job", ANY))
        sink.append(tup)
    system.spawn(producer(system.client("p")))
    system.spawn(consumer(system.client("c"), results))
    system.run_until_quiet()

Tuples are flat Python tuples of ints/floats/strs/bytes/bools; they are
byte-encoded (repr) so the kernels charge realistic sizes.
"""

from __future__ import annotations

import ast
from typing import Any, Generator, Tuple

from repro.linda.space import ANY, Pattern
from repro.sim.tasks import Task

_ALLOWED = (int, float, str, bytes, bool)


def encode_tuple(tup: Tuple[Any, ...]) -> bytes:
    for v in tup:
        if not isinstance(v, _ALLOWED):
            raise TypeError(f"linda tuples carry scalars only, got {v!r}")
    return repr(tup).encode()


def decode_tuple(data: bytes) -> Tuple[Any, ...]:
    return ast.literal_eval(data.decode())


def encode_pattern(pattern: Pattern) -> bytes:
    parts = []
    for p in pattern:
        if p is ANY:
            parts.append("?")
        elif isinstance(p, type):
            parts.append(f"t:{p.__name__}")
        else:
            parts.append(f"v:{p!r}")
    return "\x1f".join(parts).encode()


_TYPES = {"int": int, "float": float, "str": str, "bytes": bytes,
          "bool": bool}


def decode_pattern(data: bytes) -> Pattern:
    if not data:
        return ()
    out = []
    for part in data.decode().split("\x1f"):
        if part == "?":
            out.append(ANY)
        elif part.startswith("t:"):
            out.append(_TYPES[part[2:]])
        else:
            out.append(ast.literal_eval(part[2:]))
    return tuple(out)


class LindaClientBase:
    """Abstract client: three generator operations."""

    def out(self, tup: Tuple[Any, ...]) -> Generator:
        """Add ``tup`` to the space; returns once it is in."""
        raise NotImplementedError
        yield

    def take(self, pattern: Pattern) -> Generator:
        """Linda ``in``: remove and return a match; blocks until one
        exists."""
        raise NotImplementedError
        yield

    def read(self, pattern: Pattern) -> Generator:
        """Linda ``rd``: return a match without removing it."""
        raise NotImplementedError
        yield

    def close(self) -> Generator:
        """Release transport resources (Charlotte: destroy the client's
        link so the server can wind down).  Optional; default no-op."""
        return
        yield


class LindaSystemBase:
    """One tuple space on one kernel."""

    KIND = "abstract"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._tasks = []

    @property
    def engine(self):
        return self.cluster.engine

    @property
    def metrics(self):
        return self.cluster.metrics

    def client(self, name: str) -> LindaClientBase:
        raise NotImplementedError

    def spawn(self, gen: Generator, name: str = "linda-task") -> Task:
        t = Task(self.engine, gen, name)
        self._tasks.append(t)
        return t

    def run_until_quiet(self, max_ms: float = 1e7) -> float:
        return self.cluster.run_until_quiet(max_ms=max_ms)

    @property
    def all_finished(self) -> bool:
        return all(t.finished for t in self._tasks)

    def check(self) -> None:
        for t in self._tasks:
            if t.finished:
                t.done.result()  # re-raise any client failure


def make_linda(kind: str, seed: int = 0) -> LindaSystemBase:
    from repro.core.ports import kernel_profile, load

    profile = kernel_profile(kind)  # raises with the registered list
    if profile.linda_adapter is None:
        raise ValueError(f"kernel {kind!r} has no Linda adapter registered")
    return load(profile.linda_adapter)(seed)
