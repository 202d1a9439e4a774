"""repro.cluster — a sharded webhouse pool with scatter-gather answering.

The paper's mediator holds one incomplete tree per interaction (§3.4),
and Theorem 3.5 makes each session's knowledge a pure function of its
own history — sessions never share state, so the warehouse scales out
by *grouping* sessions, not by splitting any one session's knowledge.

This package is that grouping, zero-dependency like the rest of the
repo, with every shard in this interpreter:

* :class:`~repro.cluster.host.ShardHost` — one shard's engines and
  durable namespace, and the only implementation of every shard op
  (``record``, ``ask``, ``answer``, ``answer_all``, ``keys``,
  ``stats``, ``apply_remedy``): journal resume at start, exactly-once
  dedupe of a re-sent pair, and rebuild-from-journal when a write
  fails.
* :class:`~repro.cluster.locks.RWLock` — the writer-preferring
  readers-writer lock each shard holds beside its host: reads shared,
  writes exclusive.
* :class:`~repro.cluster.ring.Router` — consistent-hash routing of
  session keys onto shard indices; stable across processes (BLAKE2b,
  not ``hash()``) and cheap to resize (~1/(n+1) keys move).
* :class:`~repro.cluster.admission.AdmissionController` — bounded
  per-shard in-flight budgets with ``shed`` / ``wait`` backpressure;
  overload raises :class:`~repro.cluster.admission.ShardOverloaded`
  (HTTP 503 at the ops plane).
* :class:`~repro.cluster.executor.Executor` — thread-pool scatter-
  gather with deterministic (item-order) gathering and the shard index
  bound to the observability context.
* :class:`~repro.cluster.sharded.ShardedWebhouse` — the pool itself:
  routing, admission, per-shard breaker + retry (one
  :data:`RETRYABLE_ERRORS` tuple), keyed
  ``record``/``ask``/``answer`` plus fleet-wide ``ask_all`` /
  ``stats_all`` / ``apply_remedy`` whose certain-answer union is
  invariant under the shard count.  It calls each host's methods
  directly under that shard's lock.

See ``docs/CLUSTER.md`` for routing, rebalancing, admission control,
and failure modes; ``repro serve --shards N`` puts the pool behind the
HTTP ops plane.
"""

from __future__ import annotations

from .admission import AdmissionController, POLICIES, ShardOverloaded
from .executor import Executor, TaskOutcome
from .host import RETRYABLE_ERRORS, ShardHost
from .locks import RWLock
from .ring import DEFAULT_REPLICAS, Router, stable_hash
from .sharded import ResiliencePolicy, Shard, ShardedWebhouse

__all__ = [
    "AdmissionController",
    "DEFAULT_REPLICAS",
    "Executor",
    "POLICIES",
    "RETRYABLE_ERRORS",
    "ResiliencePolicy",
    "RWLock",
    "Router",
    "Shard",
    "ShardHost",
    "ShardedWebhouse",
    "ShardOverloaded",
    "TaskOutcome",
    "stable_hash",
]
