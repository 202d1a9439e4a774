"""repro.perf — hash-consed terms and memoized hot paths.

Every Refine step (Theorem 3.5) and every q(T) evaluation (Theorem
3.14) re-derives the same sub-results: condition-emptiness fixpoints
(Lemma 2.5), type normalizations, bipartite matchings and whole
intersection products.  This package makes that work *shareable*:

* an :class:`~repro.perf.intern.InternPool` hash-conses the small
  immutable terms (``Cond``, ``Atom``, ``Disjunction``) so
  structurally-equal terms are pointer-equal, and
* named :class:`~repro.perf.memo.LRUCache` tables memoize the PTIME
  subroutines behind structural fingerprints (see
  :mod:`repro.perf.state` for the catalogue).

Every table and pool is bounded by a constant entry count sized from
measured reuse, so the memory they hold is set by this package, not by
the traffic served.  Whole q(T) results and whole types are not kept:
they can be exponential in |Σ| (Example 3.2) and served traffic does not
reuse them.

Disabled by default.  Instrumented call sites check ``STATE.enabled``
— one attribute load — before touching a cache, so the uncached
configuration is byte-for-byte the seed behaviour.  Enabling caches
never changes any *answer*; the brute-force differential oracle
(``tests/oracle.py``) property-tests that equivalence.

Typical usage::

    import repro.perf as perf

    perf.enable_caches()            # process-wide, until disable_caches()
    ...                             # repeated workloads now share work
    perf.cache_stats()              # hit rates per table, JSON-ready

    with perf.cached():             # scoped: restore previous state after
        serve_many_queries()

    with perf.uncached():           # scoped opt-out (the oracle uses this)
        ground_truth = recompute()

Hit/miss counts are always kept per table, and every surface reads
them there: :func:`cache_stats` as JSON, :func:`cache_metrics` as a
fresh registry for ``/metrics`` and ``python -m repro export``.
See ``docs/PERFORMANCE.md`` for keys, eviction and safety invariants.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator

from ..obs.registry import Metrics
from .intern import InternPool
from .memo import LRUCache, MISS
from .state import STATE, PerfState, TABLE_CAPACITIES


def caches_enabled() -> bool:
    """Are the perf caches currently consulted?"""
    return STATE.enabled


def enable_caches() -> None:
    """Turn on interning and memoization process-wide."""
    STATE.enabled = True


def disable_caches() -> None:
    """Turn the caches off (cached entries stay until :func:`clear_caches`)."""
    STATE.enabled = False


def clear_caches() -> None:
    """Drop every cached entry and pooled term."""
    STATE.clear()


@contextmanager
def cached() -> Iterator[PerfState]:
    """Enable the caches for a block, restoring the previous flag after."""
    previous = STATE.enabled
    STATE.enabled = True
    try:
        yield STATE
    finally:
        STATE.enabled = previous


@contextmanager
def uncached() -> Iterator[PerfState]:
    """Disable the caches for a block (ground-truth recomputation)."""
    previous = STATE.enabled
    STATE.enabled = False
    try:
        yield STATE
    finally:
        STATE.enabled = previous


def cache_stats() -> Dict[str, object]:
    """All cache and pool statistics as one JSON-ready document."""
    return {
        "enabled": STATE.enabled,
        "tables": {name: cache.stats() for name, cache in STATE.caches.items()},
        "intern": STATE.pool.stats(),
    }


def cache_metrics() -> Metrics:
    """The tables' books as a fresh registry, for one exposition:
    ``cache.enabled``, counters ``cache.<table>.{hits,misses,evictions}``
    and gauges ``cache.<table>.size``."""
    books = Metrics()
    books.set_gauge("cache.enabled", int(STATE.enabled))
    for table, cache in STATE.caches.items():
        for book in ("hits", "misses", "evictions"):
            books.inc(f"cache.{table}.{book}", getattr(cache, book))
        books.set_gauge(f"cache.{table}.size", len(cache))
    return books


__all__ = [
    "InternPool",
    "LRUCache",
    "MISS",
    "PerfState",
    "STATE",
    "TABLE_CAPACITIES",
    "cache_metrics",
    "cache_stats",
    "cached",
    "caches_enabled",
    "clear_caches",
    "disable_caches",
    "enable_caches",
    "uncached",
]
