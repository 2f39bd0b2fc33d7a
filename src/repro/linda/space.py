"""The tuple-space matching engine — kernel-free.

Linda semantics (Carriero & Gelernter, cited by the paper):

* ``out(t)`` adds tuple ``t`` to the space;
* ``in(p)`` removes and returns a tuple matching pattern ``p``,
  blocking until one exists (this package calls it ``take`` — ``in``
  is a Python keyword);
* ``rd(p)`` returns a match without removing it (here: ``read``).

A pattern element is an actual value (matches equal values), a Python
type (matches instances), or `ANY`.  Matching requires equal arity.

`TupleSpace` also manages blocked waiters so the adapters share the
wake-on-out logic: ``match_or_park`` serves a query or parks it, and
``out`` returns the waiters the new tuple satisfies, in arrival order,
with at most one *taker* (the tuple can only be removed once) but any
number of readers ahead of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple


class _Any:
    _instance: Optional["_Any"] = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ANY"


#: wildcard pattern element
ANY = _Any()

#: a pattern is a tuple of values, types, or ANY
Pattern = Tuple[Any, ...]


def match(pattern: Pattern, tup: Tuple[Any, ...]) -> bool:
    """Linda matching: equal arity; per element, ANY matches anything,
    a type matches its instances, a value matches by equality."""
    if len(pattern) != len(tup):
        return False
    for p, v in zip(pattern, tup):
        if p is ANY:
            continue
        if isinstance(p, type):
            if not isinstance(v, p):
                return False
        elif p != v:
            return False
    return True


@dataclass
class Waiter:
    """A blocked ``take``/``read``, adapter-specific ``token`` attached
    (a SODA rid, a Chrysalis event name, a Charlotte link ref, ...)."""

    pattern: Pattern
    take: bool
    token: Any
    seq: int = 0


class TupleSpace:
    """Tuples plus blocked waiters; used by every adapter's server (or,
    under Chrysalis, shared directly)."""

    def __init__(self) -> None:
        self.tuples: List[Tuple[Any, ...]] = []
        self.waiters: List[Waiter] = []
        self._next_seq = 0

    def __len__(self) -> int:
        return len(self.tuples)

    # ------------------------------------------------------------------
    def match_or_park(self, pattern: Pattern, take: bool,
                      token: Any) -> Optional[tuple]:
        """Return (and for ``take`` remove) the oldest matching tuple;
        with none, park a waiter carrying ``token`` and return None.
        One operation, so no ``out`` can land between the failed match
        and the parking and leave the waiter asleep beside its tuple."""
        for i, tup in enumerate(self.tuples):
            if match(pattern, tup):
                if take:
                    self.tuples.pop(i)
                return tup
        self.waiters.append(Waiter(pattern, take, token, self._next_seq))
        self._next_seq += 1
        return None

    def out(self, tup: Tuple[Any, ...]) -> List[Tuple[Waiter, tuple]]:
        """Add a tuple; return the waiters it satisfies, oldest first:
        every matching reader that arrived before the first matching
        taker sees it, the taker consumes it (and nobody after)."""
        satisfied: List[Tuple[Waiter, tuple]] = []
        taker: Optional[Waiter] = None
        for w in sorted(self.waiters, key=lambda w: w.seq):
            if not match(w.pattern, tup):
                continue
            if w.take:
                taker = w
                break
            satisfied.append((w, tup))
        if taker is not None:
            satisfied.append((taker, tup))
            self.waiters.remove(taker)
        else:
            self.tuples.append(tup)
        for w, _ in satisfied:
            if not w.take:
                self.waiters.remove(w)
        return satisfied
