"""Global performance-cache state: one slotted singleton, one flag.

Mirrors the design of :mod:`repro.obs.state`: hot paths import
:data:`STATE` and guard every cache interaction with ``if
STATE.enabled:`` — a single attribute load — so the disabled default
costs nothing and, crucially, **behaves byte-for-byte like the uncached
code**.  All caches in this package are keyed by immutable value
objects, so enabling them changes performance only; the differential
oracle suite (``tests/test_oracle.py``) enforces that.

The state owns the interning pool and the named memo tables:

======================  ======================================================
``emptiness``           ``ConditionalTreeType.productive_symbols`` (and with
                        it ``is_empty``, Lemma 2.5) per type fingerprint
``normalize``           ``ConditionalTreeType.normalized`` per fingerprint
``matching``            ``max_bipartite_matching`` / ``feasible_assignment``
                        per (items, slots, adjacency) shape
``knowledge``           the ``Knowledge`` value a ``Webhouse`` derivation
                        published, per (parent value by identity,
                        transition): equal histories share one value
======================  ======================================================

Refine (Theorem 3.4), the type intersection (Theorem 3.5), q(T)
(Theorem 3.14) and ``merge_equivalent_symbols`` keep no table: a
derivation that recurs hits ``knowledge`` before any of them runs, and
a served read answers from the verdicts its knowledge value keeps
(Corollary 3.15).
"""

from __future__ import annotations

from typing import Dict

from .intern import InternPool
from .memo import LRUCache

#: Table capacities, each from the reuse the served workloads show
#: (``docs/PERFORMANCE.md``), so memory is bounded by these constants,
#: not by traffic.  ``matching`` keys are small shapes and no workload
#: holds more than about 400 of them; ``emptiness`` and ``normalize``
#: at 512 keep every hit a ``read_cold`` stream finds, and at 128 they
#: cost it CPU.  ``knowledge`` holds every derivation a served workload
#: makes: ``ingest``, the most, makes 65 (the bare type, 8 one-step and
#: 56 two-step histories).
TABLE_CAPACITIES: Dict[str, int] = {
    "emptiness": 512,
    "normalize": 512,
    "matching": 512,
    "knowledge": 128,
}


class PerfState:
    __slots__ = ("enabled", "pool", "caches")

    def __init__(self) -> None:
        self.enabled: bool = False
        self.pool = InternPool()
        self.caches: Dict[str, LRUCache] = {
            name: LRUCache(name, capacity)
            for name, capacity in TABLE_CAPACITIES.items()
        }

    def clear(self) -> None:
        """Drop every cached entry and pooled term (flag is kept)."""
        self.pool.clear()
        for cache in self.caches.values():
            cache.clear()

    def reset_stats(self) -> None:
        for cache in self.caches.values():
            cache.reset_stats()


#: The process-wide performance-cache state.
STATE = PerfState()
