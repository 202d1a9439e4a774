"""repro.cluster — a sharded webhouse pool with scatter-gather answering.

The paper's mediator holds one incomplete tree per interaction (§3.4),
and Theorem 3.5 makes each session's knowledge a pure function of its
own history — sessions never share state, so the warehouse scales out
by *grouping* sessions, not by splitting any one session's knowledge.

This package is that grouping, zero-dependency like the rest of the
repo.  One shard host sits behind two transports:

* :class:`~repro.cluster.host.ShardHost` — one shard's engines and
  durable namespace, and the only implementation of every shard op
  (``record``, ``ask``, ``answer``, ``answer_all``, ``keys``,
  ``stats``, ``apply_remedy``): journal resume at start, exactly-once
  dedupe of a re-sent pair, and rebuild-from-journal when a write
  fails.
* :class:`~repro.cluster.host.LocalTransport` — the in-process
  transport (``backend="thread"``): each host behind a
  writer-preferring :class:`~repro.cluster.locks.RWLock`, reads shared
  and writes exclusive, live objects and no codec.
* :class:`~repro.cluster.proc.ProcWorkerPool` — the pipe transport
  (``backend="process"``): one spawned worker process per shard runs
  the same host, args and results cross in ``store.codec`` JSON inside
  :mod:`~repro.cluster.wire` frames (length-prefixed, CRC-checked), and
  a dead worker is respawned — engines revived from the journal —
  before its error re-raises.

Around them, with one body each whichever transport is in use:

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
  :data:`RETRYABLE_ERRORS` tuple), latency sketches, keyed
  ``record``/``ask``/``answer`` plus fleet-wide ``ask_all`` /
  ``stats_all`` / ``apply_remedy`` whose certain-answer union is
  invariant under the shard count — and under the transport.

See ``docs/CLUSTER.md`` for routing, rebalancing, admission control,
and failure modes; ``repro serve --shards N --backend process`` puts
the pool behind the HTTP ops plane.
"""

from __future__ import annotations

from .admission import AdmissionController, POLICIES, ShardOverloaded
from .executor import Executor, TaskOutcome
from .host import RETRYABLE_ERRORS, LocalTransport, ShardHost
from .locks import RWLock
from .proc import (
    ProcWorkerPool,
    WorkerConfig,
    WorkerError,
    WorkerFault,
    WorkerUnavailable,
)
from .ring import DEFAULT_REPLICAS, Router, stable_hash
from .sharded import BACKENDS, ResiliencePolicy, Shard, ShardedWebhouse
from .wire import WireError

__all__ = [
    "AdmissionController",
    "BACKENDS",
    "DEFAULT_REPLICAS",
    "Executor",
    "LocalTransport",
    "POLICIES",
    "ProcWorkerPool",
    "RETRYABLE_ERRORS",
    "ResiliencePolicy",
    "RWLock",
    "Router",
    "Shard",
    "ShardHost",
    "ShardedWebhouse",
    "ShardOverloaded",
    "TaskOutcome",
    "WireError",
    "WorkerConfig",
    "WorkerError",
    "WorkerFault",
    "WorkerUnavailable",
    "stable_hash",
]
