"""Per-shard admission control: bounded queues and load shedding.

Every shard gets a bounded budget of in-flight operations.  When the
budget is exhausted the controller applies its backpressure policy:

* ``"shed"`` (default) — fail fast with :class:`ShardOverloaded`; the
  ops server maps it to HTTP 503 with a ``Retry-After`` hint, so one
  hot shard degrades loudly instead of queueing work without bound
  while the other shards stay healthy.
* ``"wait"`` — block up to ``wait_timeout_s`` for a slot, then raise
  :class:`ShardOverloaded` anyway.

The controller is advisory bookkeeping *around* the shard locks, not a
lock itself: it bounds how many requests may be waiting on or holding
a shard's :class:`~repro.cluster.locks.RWLock` at once.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List


#: Backpressure policies understood by the controller.
POLICIES = ("shed", "wait")


class ShardOverloaded(RuntimeError):
    """A shard's in-flight budget is exhausted; retry later or elsewhere."""

    def __init__(self, shard: int, limit: int, policy: str):
        super().__init__(
            f"shard {shard} is at its in-flight limit ({limit}, policy={policy!r})"
        )
        self.shard = shard
        self.limit = limit
        self.policy = policy


class _ShardGate:
    """One shard's budget books, guarded by its own condition.

    Each gate owning its lock keeps admission strictly per-shard: traffic
    on a busy shard never serializes admissions on an idle one through a
    shared choke point.
    """

    __slots__ = ("cond", "in_flight", "admitted", "shed", "high_water")

    def __init__(self) -> None:
        self.cond = threading.Condition()
        self.in_flight = 0
        self.admitted = 0
        self.shed = 0
        self.high_water = 0


class AdmissionController:
    """Bounded per-shard in-flight budgets with a backpressure policy."""

    def __init__(
        self,
        shards: int,
        max_in_flight: int = 64,
        policy: str = "shed",
        wait_timeout_s: float = 0.5,
    ):
        if shards < 1:
            raise ValueError(f"need at least one shard, got {shards}")
        if max_in_flight < 1:
            raise ValueError(f"need a positive in-flight budget, got {max_in_flight}")
        if policy not in POLICIES:
            raise ValueError(f"unknown backpressure policy {policy!r} {POLICIES}")
        self.max_in_flight = int(max_in_flight)
        self.policy = policy
        self.wait_timeout_s = float(wait_timeout_s)
        self._gates: List[_ShardGate] = [_ShardGate() for _ in range(shards)]

    def _try_admit(self, gate: _ShardGate) -> bool:
        if gate.in_flight >= self.max_in_flight:
            return False
        gate.in_flight += 1
        gate.admitted += 1
        gate.high_water = max(gate.high_water, gate.in_flight)
        return True

    @contextmanager
    def admit(self, shard: int) -> Iterator[None]:
        """Hold one in-flight slot of ``shard`` for the ``with`` block.

        Raises :class:`ShardOverloaded` when no slot can be had under
        the configured policy.
        """
        gate = self._gates[shard]
        with gate.cond:
            admitted = self._try_admit(gate)
            if not admitted and self.policy == "wait":
                deadline = time.monotonic() + self.wait_timeout_s
                while not admitted:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    gate.cond.wait(remaining)
                    admitted = self._try_admit(gate)
            if not admitted:
                gate.shed += 1
                raise ShardOverloaded(shard, self.max_in_flight, self.policy)
        try:
            yield
        finally:
            with gate.cond:
                gate.in_flight -= 1
                gate.cond.notify_all()

    # -- introspection ----------------------------------------------------------

    def in_flight(self, shard: int) -> int:
        return self._gates[shard].in_flight

    def stats(self) -> List[Dict[str, int]]:
        """Per-shard admission books, shard order."""
        rows = []
        for index, gate in enumerate(self._gates):
            with gate.cond:
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
            f"AdmissionController({len(self._gates)} shards, policy={self.policy!r}, "
            f"in_flight={total}/{self.max_in_flight * len(self._gates)})"
        )


__all__ = ["AdmissionController", "POLICIES", "ShardOverloaded"]
