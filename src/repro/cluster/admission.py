"""Per-shard admission control: bounded in-flight budgets, load shedding.

Every shard gets a bounded budget of in-flight operations.  When the
budget is exhausted the controller sheds: it fails fast with
:class:`ShardOverloaded`, which the ops server maps to HTTP 503 with a
``Retry-After`` hint, so one hot shard degrades loudly instead of
queueing work without bound while the other shards stay healthy.

The controller is bookkeeping, not a lock: it bounds how many requests
may be in flight on a shard at once, reads and writes alike.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List


class ShardOverloaded(RuntimeError):
    """A shard's in-flight budget is exhausted; retry later or elsewhere."""

    def __init__(self, shard: int, limit: int):
        super().__init__(f"shard {shard} is at its in-flight limit ({limit})")
        self.shard = shard
        self.limit = limit


class _ShardGate:
    """One shard's budget books under its own lock, so traffic on a busy
    shard never serializes admissions on an idle one."""

    __slots__ = ("lock", "in_flight", "admitted", "shed", "high_water")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.in_flight = 0
        self.admitted = 0
        self.shed = 0
        self.high_water = 0


class AdmissionController:
    """Bounded per-shard in-flight budgets that shed at the limit."""

    def __init__(self, shards: int, max_in_flight: int = 64):
        if shards < 1:
            raise ValueError(f"need at least one shard, got {shards}")
        if max_in_flight < 1:
            raise ValueError(f"need a positive in-flight budget, got {max_in_flight}")
        self.max_in_flight = int(max_in_flight)
        self._gates: List[_ShardGate] = [_ShardGate() for _ in range(shards)]

    @contextmanager
    def admit(self, shard: int) -> Iterator[None]:
        """Hold one in-flight slot of ``shard`` for the ``with`` block.

        Raises :class:`ShardOverloaded` when the shard's budget is spent.
        """
        gate = self._gates[shard]
        with gate.lock:
            if gate.in_flight >= self.max_in_flight:
                gate.shed += 1
                raise ShardOverloaded(shard, self.max_in_flight)
            gate.in_flight += 1
            gate.admitted += 1
            gate.high_water = max(gate.high_water, gate.in_flight)
        try:
            yield
        finally:
            with gate.lock:
                gate.in_flight -= 1

    # -- introspection ----------------------------------------------------------

    def in_flight(self, shard: int) -> int:
        return self._gates[shard].in_flight

    def stats(self) -> List[Dict[str, int]]:
        """Per-shard admission books, shard order."""
        rows = []
        for index, gate in enumerate(self._gates):
            with gate.lock:
                rows.append(
                    {
                        "shard": index,
                        "in_flight": gate.in_flight,
                        "admitted": gate.admitted,
                        "shed": gate.shed,
                        "high_water": gate.high_water,
                    }
                )
        return rows

    def __repr__(self) -> str:
        total = sum(g.in_flight for g in self._gates)
        return (
            f"AdmissionController({len(self._gates)} shards, "
            f"in_flight={total}/{self.max_in_flight * len(self._gates)})"
        )


__all__ = ["AdmissionController", "ShardOverloaded"]
