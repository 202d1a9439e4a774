"""A sharded pool of webhouses with parallel scatter-gather answering.

The paper's mediator keeps one incomplete tree per interaction (§3.4):
knowledge is acquired and refined *per session*, and Theorem 3.5 makes
each session's knowledge a pure function of its own query/answer
history.  That independence is exactly what makes the warehouse
shardable: :class:`ShardedWebhouse` keeps one :class:`Webhouse` per
session key, groups the sessions into ``shards`` independent
:class:`~repro.cluster.host.ShardHost`\\ s via a consistent-hash
:class:`~repro.cluster.ring.Router`, and runs fleet-wide operations on
a scatter-gather :class:`~repro.cluster.executor.Executor`.

Because routing only decides *grouping* — never what any session
knows — the certain answers are invariant under the shard count: the
same fact sequence yields identical answers on 1, 2, or 8 shards
(exercised by ``tests/test_cluster.py``).  Concretely:

* keyed operations (:meth:`record`, :meth:`ask`, :meth:`answer`) route
  the key, pass the shard's admission gate and circuit breaker, and
  reach the shard's host — a hot shard sheds load
  (:class:`~repro.cluster.admission.ShardOverloaded`) instead of
  queueing without bound;
* fleet operations (:meth:`ask_all`, :meth:`stats_all`,
  :meth:`apply_remedy`) scatter one task per shard and gather
  **deterministically**: per-shard results are merged in globally
  sorted session-key order, so the certain-answer union is reproducible
  regardless of thread scheduling.

:meth:`ask_all`'s union assumes the fleet observes one source document
(the Section 1 scenario: many interactions against the same catalog);
per-session sure answers then share the document root and compose with
:func:`~repro.mediator.local_query.overlay`.  Sessions over genuinely
different documents should be queried per key, not fleet-wide.

A durable pool (``store=``) keeps every session flat at
``<root>/<key>/``, the layout of ``python -m repro session``: it lists
the root once when it opens and resumes each session on the shard its
key routes to.  Routing stays an in-memory decision, so a restart at any
shard count finds every session.  ``session_extra`` is stamped into the
meta of every session the pool creates (``serve --session`` stamps the
served catalog's workload hint, :meth:`Webhouse.source_hint`).

Every shard op has one implementation, in
:class:`~repro.cluster.host.ShardHost`, and the pool calls host methods
directly: writes (``record``, ``ask``, ``apply_remedy``) under their
:class:`Shard`'s lock, reads (``answer``, ``answer_all``, ``keys``,
``stats``) with none, answering from each engine's published value.
Every shard lives in this interpreter, so Refine and answering share one GIL;
``docs/PERFORMANCE.md`` records why no process boundary is drawn.

Each op's ``cluster.<op>`` span is its only latency book, in the
process-wide ``latency.seconds`` family; :func:`cluster_latency` reads
it back.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Tuple, TypeVar

from ..core.query import PSQuery
from ..core.tree import DataTree
from ..core.treetype import TreeType
from ..faults.policies import CircuitBreaker, CircuitOpen, Deadline, RetryPolicy
from ..mediator.local_query import overlay
from ..mediator.source import InMemorySource
from ..mediator.webhouse import Webhouse
from ..obs.spans import LATENCY, reset_shard, set_shard, span as _span
from ..obs.state import STATE as _OBS
from .admission import AdmissionController
from .executor import Executor
from .host import RETRYABLE_ERRORS, ShardHost
from .locks import RWLock
from .ring import DEFAULT_REPLICAS, Router

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..store.session import SessionStore

T = TypeVar("T")


@dataclass(frozen=True)
class ResiliencePolicy:
    """How the cluster absorbs per-shard trouble (docs/ROBUSTNESS.md).

    * ``retry`` wraps every keyed operation (``record``/``ask``/
      ``answer``): a transient failure is retried — after the host has
      rebuilt a wedged engine from its journal — so one torn write does
      not surface to the caller.
    * ``breaker_*`` parameterize the per-shard circuit breakers: after
      ``breaker_failures`` consecutive unabsorbed failures a shard
      refuses keyed operations (:class:`CircuitOpen` → HTTP 503) for
      ``breaker_cooldown_s``, then half-opens on the next call.
    * ``ask_all_deadline_s`` bounds the fleet fan-out gather: a stalled
      shard is reported as degraded instead of wedging ``ask_all``.
    """

    retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(attempts=3, base_s=0.005, cap_s=0.05)
    )
    breaker_failures: int = 5
    breaker_cooldown_s: float = 5.0
    ask_all_deadline_s: Optional[float] = None


def _validate_key(key: str) -> str:
    """Session keys double as durable session names; same rules apply."""
    if not key or key != os.path.basename(key) or key.startswith("."):
        raise ValueError(f"invalid session key {key!r}")
    return key


def cluster_latency() -> Dict[str, Dict[str, object]]:
    """Whole-stream latency summary per cluster op (``record``, ``ask``,
    ``answer``, ``ask_all``, ...), read off the ``cluster.<op>`` span
    layers of the ``latency.seconds`` family."""
    return {
        h.labels["layer"][len("cluster."):]: h.sketch.summary()
        for h in _OBS.metrics.family(LATENCY)
        if h.labels.get("layer", "").startswith("cluster.")
    }


class Shard:
    """One shard: its host, its writes' lock, and its breaker."""

    __slots__ = ("index", "host", "lock", "breaker")

    def __init__(self, host: ShardHost, breaker: CircuitBreaker):
        self.index = host.index
        self.host = host
        self.lock = RWLock()
        self.breaker = breaker

    def run(self, call: Callable[[ShardHost], T]) -> T:
        """``call(host)``, a write, under the shard's write lock."""
        with self.lock.write_locked():
            return call(self.host)

    def __repr__(self) -> str:
        return f"Shard({self.index}, breaker={self.breaker.state!r})"


class ShardedWebhouse:
    """N independent webhouse shards behind a consistent-hash router."""

    def __init__(
        self,
        alphabet: Iterable[str],
        tree_type: Optional[TreeType] = None,
        shards: int = 4,
        *,
        auto_minimize: bool = False,
        replicas: int = DEFAULT_REPLICAS,
        factory: Optional[Callable[[], Webhouse]] = None,
        router: Optional[Router] = None,
        executor: Optional[Executor] = None,
        admission: Optional[AdmissionController] = None,
        store: Optional["SessionStore"] = None,
        resilience: Optional[ResiliencePolicy] = None,
        session_extra: Optional[Dict[str, object]] = None,
    ):
        if router is not None and router.shards != shards:
            raise ValueError(
                f"router covers {router.shards} shards, cluster has {shards}"
            )
        self._alphabet = sorted(set(alphabet))
        self._tree_type = tree_type
        self._auto_minimize = auto_minimize
        self._factory = factory
        self._session_extra = session_extra
        self.router = router if router is not None else Router(shards, replicas=replicas)
        self._owns_executor = executor is None
        self.executor = executor if executor is not None else Executor(max_workers=shards)
        self.admission = (
            admission if admission is not None else AdmissionController(shards)
        )
        self.resilience = resilience if resilience is not None else ResiliencePolicy()
        self.store = store
        self._shards: List[Shard] = [
            Shard(
                ShardHost(
                    index,
                    self._alphabet,
                    tree_type,
                    auto_minimize=auto_minimize,
                    store=store,
                    factory=factory,
                    session_extra=session_extra,
                ),
                CircuitBreaker(
                    f"shard-{index}",
                    failure_threshold=self.resilience.breaker_failures,
                    cooldown_s=self.resilience.breaker_cooldown_s,
                ),
            )
            for index in range(shards)
        ]
        if store is not None:
            for key in store.list_sessions():
                self._shards[self.router.route(key)].host.resume(key)

    # -- routing ----------------------------------------------------------------

    @property
    def shards(self) -> int:
        return len(self._shards)

    def shard_of(self, key: str) -> int:
        """The shard index that owns ``key`` (stable across processes)."""
        return self.router.route(_validate_key(key))

    def breaker(self, index: int) -> CircuitBreaker:
        """Shard ``index``'s circuit breaker (for books and tests)."""
        return self._shards[index].breaker

    # -- keyed operations -------------------------------------------------------

    def _keyed(
        self, op: str, key: str, call: Callable[[ShardHost], T], *, write: bool = False
    ) -> T:
        """Route one keyed op: admission, span, breaker + retry.

        Every keyed op — read or write — takes the same path; a write
        runs under the shard's lock, a read with none.  Only
        :data:`RETRYABLE_ERRORS` are retried or counted against the
        breaker; admission shedding and validation errors pass straight
        through.  A retry needs no revival step here: the host rebuilds
        a wedged engine from its journal before the error reaches this
        loop.  The ``cluster.<op>`` span books the op's latency, failed
        ops included; a shed op never opens it — a refused request has
        no service latency, and admission books count it instead.
        """
        shard = self._shards[self.shard_of(key)]
        with self.admission.admit(shard.index):
            token = set_shard(shard.index)
            try:
                with _span(f"cluster.{op}", shard=shard.index, key=key):
                    breaker = shard.breaker
                    if not breaker.allow():
                        raise CircuitOpen(breaker.name, breaker.cooldown_s)
                    try:
                        value = self.resilience.retry.call(
                            lambda: shard.run(call) if write else call(shard.host),
                            retry_on=RETRYABLE_ERRORS,
                        )
                    except RETRYABLE_ERRORS:
                        breaker.record_failure()
                        raise
                    breaker.record_success()
                    return value
            finally:
                reset_shard(token)

    def record(self, key: str, query: PSQuery, answer: DataTree) -> None:
        """Refine session ``key``'s knowledge with one pair (write path)."""
        self._keyed(
            "record", key, lambda host: host.record(key, query, answer), write=True
        )

    def ask(self, key: str, source: InMemorySource, query: PSQuery) -> DataTree:
        """Query the source for session ``key`` and fold the answer in."""
        return self.ask_info(key, source, query)["answer"]

    def answer(self, key: str, query: PSQuery) -> Tuple[DataTree, bool]:
        """Session ``key``'s certain answer with caveat flag (read path).

        An unknown key answers from zero knowledge — empty sure part,
        ``may_have_more=True`` — *without* creating an engine, so probe
        traffic cannot grow the pool.
        """
        info = self.answer_info(key, query)
        return info["sure"], info["may_have_more"]

    def answer_info(self, key: str, query: PSQuery) -> Dict[str, object]:
        """:meth:`answer` plus the session's books, one round trip.

        The HTTP ``/ask`` path needs the caveated answer *and* the
        session's knowledge size and history length for its response
        body; fetching them separately would take an admission slot
        twice per request.  Returns a dict with
        ``sure``, ``may_have_more``, ``shard``, ``knowledge_size``,
        ``queries_recorded``.
        """
        return self._keyed("answer", key, lambda host: host.answer(key, query))

    def ask_info(
        self, key: str, source: InMemorySource, query: PSQuery
    ) -> Dict[str, object]:
        """:meth:`ask` plus the session's books (``answer``, ``shard``,
        ``knowledge_size``, ``queries_recorded``), one round trip."""
        return self._keyed(
            "ask", key, lambda host: host.ask(key, source, query), write=True
        )

    def engine(self, key: str) -> Optional[Webhouse]:
        """The engine behind ``key``, if the session exists."""
        return self._shards[self.shard_of(key)].host.engines.get(key)

    # -- fleet operations -------------------------------------------------------

    def ask_all(self, query: PSQuery) -> Tuple[DataTree, bool]:
        """Fleet-wide certain answer: scatter, gather, deterministic union.

        Every shard evaluates the query against each of its sessions
        (shards run in parallel, with no lock); the
        per-session sure parts are then merged in globally sorted key
        order with :func:`overlay`.  Returns ``(union, may_have_more)``
        where the flag is True when *any* session's knowledge might
        miss matches — or when the fleet holds no sessions at all.

        A failing, stalled (past the resilience deadline), or
        breaker-open shard *degrades* the fan-out instead of failing
        it: its sessions are simply absent from the union and
        ``may_have_more`` is forced True.  That direction is safe by
        Theorem 2.8/3.14 — every returned node is a certain answer of
        some healthy session, so a partial union never *invents*
        answers, it only misses some; the caveat flag owns the miss.
        Use :meth:`ask_all_info` to see which shards degraded.
        """
        info = self.ask_all_info(query)
        return info["sure"], info["may_have_more"]

    def ask_all_info(self, query: PSQuery) -> Dict[str, object]:
        """:meth:`ask_all` plus degradation books.

        Returns ``sure``, ``may_have_more``, ``degraded`` (True when any
        shard's sessions are missing from the union), ``failed_shards``
        (index → error summary), ``sessions_answered`` and
        ``knowledge_size`` (summed over the sessions answered), in one
        pass over each shard.
        """
        with _span("cluster.ask_all", shards=len(self._shards)):
            deadline = (
                Deadline.after(self.resilience.ask_all_deadline_s)
                if self.resilience.ask_all_deadline_s is not None
                else None
            )
            failed: Dict[int, str] = {}
            live: List[int] = []
            for shard in self._shards:
                if shard.breaker.allow():
                    live.append(shard.index)
                else:
                    failed[shard.index] = f"CircuitOpen: shard-{shard.index} is open"

            def per_shard(index: int) -> List[Tuple[str, DataTree, bool, int]]:
                with self.admission.admit(index):
                    if deadline is not None:
                        deadline.require(f"shard {index} answer_all")
                    return self._shards[index].host.answer_all(query)

            outcomes = self.executor.scatter_outcomes(live, per_shard, deadline=deadline)
            rows: List[Tuple[str, DataTree, bool, int]] = []
            for outcome in outcomes:
                if outcome.ok:
                    rows.extend(outcome.value)
                else:
                    error = outcome.error
                    failed[outcome.index] = f"{type(error).__name__}: {error}"
                    if isinstance(error, RETRYABLE_ERRORS):
                        self._shards[outcome.index].breaker.record_failure()
            rows.sort(key=lambda row: row[0])
            merged: Optional[DataTree] = None
            may_have_more = not rows
            for _key, sure, more, _size in rows:
                may_have_more = may_have_more or more
                if sure.is_empty():
                    continue
                merged = sure if merged is None else overlay(merged, sure)
            degraded = bool(failed)
            if _OBS.enabled:
                _OBS.metrics.inc("cluster.ask_all")
                if degraded:
                    _OBS.metrics.inc("cluster.ask_all_degraded")
            return {
                "sure": merged if merged is not None else DataTree.empty(),
                "may_have_more": may_have_more or degraded,
                "degraded": degraded,
                "failed_shards": failed,
                "sessions_answered": len(rows),
                "knowledge_size": sum(row[3] for row in rows),
            }

    def apply_remedy(self, remedy: str) -> None:
        """Apply one of the paper's growth remedies to every session.

        The SLO degrade hook's cluster path.  Each shard applies it to
        its own engines under its write lock; every
        representation shrinks independently (Theorem 3.5 keeps the
        sessions' knowledge separate).
        """
        with _span("cluster.apply_remedy", remedy=remedy):
            self.executor.scatter(
                range(len(self._shards)),
                lambda index: self._shards[index].run(
                    lambda host: host.apply_remedy(remedy)
                ),
            )

    def stats_all(self) -> Dict[str, object]:
        """Fleet rollup: per-shard session books, admission and breaker
        stats.  Latency per cluster op is :func:`cluster_latency`'s to
        read, so a caller that wants only the books does not pay for
        the summaries.  Each shard's books are a lock-free read of its
        engines' published values, so the rollup needs no fan-out.
        """
        with _span("cluster.stats_all", shards=len(self._shards)):
            per_shard_stats: List[Dict[str, object]] = []
            for shard, gate in zip(self._shards, self.admission.stats()):
                stats = shard.host.stats()
                stats["admission"] = {
                    name: count for name, count in gate.items() if name != "shard"
                }
                stats["breaker"] = shard.breaker.stats()
                per_shard_stats.append(stats)
            return {
                "shards": len(self._shards),
                "sessions": sum(s["sessions"] for s in per_shard_stats),
                "queries_recorded": sum(
                    s["queries_recorded"] for s in per_shard_stats
                ),
                "knowledge_size": sum(s["knowledge_size"] for s in per_shard_stats),
                "per_shard": per_shard_stats,
            }

    # -- inventory --------------------------------------------------------------

    def sessions(self) -> List[str]:
        """All session keys, sorted."""
        return sorted(key for shard in self._shards for key in shard.host.keys())

    def size(self) -> int:
        """Total maintained knowledge size across every session."""
        return sum(shard.host.stats()["knowledge_size"] for shard in self._shards)

    def __len__(self) -> int:
        return sum(len(shard.host.engines) for shard in self._shards)

    # -- lifecycle --------------------------------------------------------------

    def resized(self, shards: int) -> Tuple["ShardedWebhouse", List[str]]:
        """A new cluster over ``shards`` shards, engines moved as routed.

        Consistent hashing keeps most keys in place: growing ``n`` to
        ``n+1`` moves an expected ``1/(n+1)`` of the sessions.  Returns
        the new cluster and the keys that changed shard (the rebalance
        cost a deployment would pay in session migrations).  The
        resilience policy, the ``session_extra`` stamp and the admission
        budget carry over, the budget onto a controller sized for
        ``shards``.
        Engines and the store are handed over, not copied: the new
        pool journals to the same flat root without reopening any
        session, and this pool is left empty and in-memory.
        """
        engines: List[Dict[str, Webhouse]] = []
        for shard in self._shards:
            with shard.lock.write_locked():
                engines.append(shard.host.engines)
                shard.host.engines, shard.host.store = {}, None
        store, self.store = self.store, None
        new = ShardedWebhouse(
            self._alphabet,
            tree_type=self._tree_type,
            shards=shards,
            auto_minimize=self._auto_minimize,
            replicas=self.router.replicas,
            factory=self._factory,
            router=self.router.resized(shards),
            admission=AdmissionController(
                shards, max_in_flight=self.admission.max_in_flight
            ),
            resilience=self.resilience,
            session_extra=self._session_extra,
        )
        routed: List[Dict[str, Webhouse]] = [{} for _ in range(shards)]
        moved: List[str] = []
        for index, shard_engines in enumerate(engines):
            for key, engine in shard_engines.items():
                target = new.router.route(key)
                routed[target][key] = engine
                if target != index:
                    moved.append(key)
        new.store = store
        for shard, shard_engines in zip(new._shards, routed):
            shard.host.engines, shard.host.store = shard_engines, store
        return new, sorted(moved)

    def close(self) -> None:
        """Detach durable sessions and stop the executor (if owned)."""
        for shard in self._shards:
            shard.run(ShardHost.close)
        if self._owns_executor:
            self.executor.shutdown()

    def __repr__(self) -> str:
        return f"ShardedWebhouse(shards={len(self._shards)}, sessions={len(self)})"


__all__ = [
    "RETRYABLE_ERRORS",
    "cluster_latency",
    "ResiliencePolicy",
    "Shard",
    "ShardedWebhouse",
]
