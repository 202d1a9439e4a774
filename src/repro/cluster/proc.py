"""The pipe transport: one worker process per shard.

The in-process transport (:class:`~repro.cluster.host.LocalTransport`)
runs every shard's :class:`~repro.cluster.host.ShardHost` under one
GIL; this module gives each shard its own **worker process**, so
per-shard Refine/answer work can run on real cores.  The paper makes
the split safe: shards group whole sessions and never merge knowledge
(Theorem 3.5), so a shard worker is a closed world — its engines, its
durable ``SessionStore.shard(i)`` namespace, its journals — and
certain-answer unions over shards stay monotone (Theorems 2.8/3.14) no
matter where each shard evaluates.

Topology: one :class:`ProcWorkerPool` owns N workers, each spawned with
the stdlib ``multiprocessing`` **spawn** context (a fresh interpreter —
no forked locks, deterministic imports) and connected by a duplex pipe.
Every message on that pipe is a :mod:`repro.cluster.wire` frame:
length-prefixed, CRC-checked canonical JSON.  :meth:`ProcWorkerPool.call`
is the transport surface: live args go out through ``store.codec``,
the worker runs the *same* ``ShardHost`` op the in-process transport
would, and the result comes back through ``store.codec``.  The request
envelope carries the caller's context across the hop — trace id,
remaining deadline, and the armed fault-plan spec — so ``contextvars``
state survives where OS processes would drop it.

Worker lifecycle:

* **startup** — the worker's ``ShardHost`` resumes every journaled
  session in its namespace (the Theorem 3.5 snapshot+replay path a
  restart takes), then the worker sends a hello frame;
* **serving** — requests are handled strictly in order (a worker *is*
  its shard's write lock); every response pushes back the worker's
  latency-sketch and counter **deltas** since the previous response, so
  the router merges fleet telemetry without polling;
* **death** — a killed or hung worker is detected by EOF/poll timeout;
  :meth:`ProcWorkerPool.call` respawns it before re-raising, and the
  fresh worker revives its engines from the journal.  A ``record``
  acknowledged by the journal but not by the pipe is deduplicated on
  retry by the host's last-pair check — exactly-once across processes.

In-memory pools (no store) lose a killed shard's sessions on respawn —
the sound degraded direction (empty sure part, ``may_have_more``), but
a real deployment should give the pool a store.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.query import PSQuery
from ..core.tree import DataTree
from ..core.treetype import TreeType
from ..faults.inject import (
    active_plan,
    armed as _faults_armed,
    check_site as _check_site,
    fault_scope,
)
from ..faults.plan import FaultError, FaultPlan
from ..faults.policies import Deadline, DeadlineExceeded
from ..mediator.source import InMemorySource
from ..obs.sketch import QuantileSketch
from ..obs.spans import (
    current_trace_id,
    reset_shard,
    reset_trace_id,
    set_shard,
    set_trace_id,
    span as _span,
)
from ..obs.state import STATE as _OBS
from ..store.codec import (
    canonical_dumps,
    query_from_json,
    query_to_json,
    tree_from_json,
    tree_to_json,
    treetype_from_json,
)
from ..store.session import SessionStore
from . import wire
from .host import OPS, RETRYABLE_ERRORS, SHARD_OPS, ShardHost

Json = Any


class WorkerError(RuntimeError):
    """A worker reported a non-retryable failure for one request."""

    def __init__(self, remote_type: str, message: str):
        super().__init__(f"{remote_type}: {message}")
        self.remote_type = remote_type


class WorkerFault(WorkerError, OSError):
    """A worker reported a *retryable* failure (store/fault-plane).

    An ``OSError``, so the one :data:`~repro.cluster.host.
    RETRYABLE_ERRORS` tuple retries it.
    """


class WorkerUnavailable(WorkerError, ConnectionError):
    """The worker process is dead, hung, or desynchronized.

    Retryable by design (a ``ConnectionError``): :meth:`ProcWorkerPool.
    call` respawns the worker — its engines revive from the journal —
    and the resilience layer retries the operation.
    """

    def __init__(self, message: str):
        super().__init__("WorkerUnavailable", message)


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a spawned worker needs to rebuild its shard world.

    Plain picklable data only — the tree type travels as its
    ``store.codec`` JSON form, never as a live object.
    """

    shard: int
    alphabet: Tuple[str, ...]
    tree_type_json: Optional[Json] = None
    auto_minimize: bool = False
    store_root: Optional[str] = None
    snapshot_every: int = 32
    obs_enabled: bool = False
    caches_enabled: bool = False


class _Codec:
    """``store.codec`` at one end of the pipe: live values <-> JSON.

    Paper objects travel tagged — ``{"$tree": ...}``, ``{"$query":
    ...}``, ``{"$source": <document>}`` — inside otherwise plain JSON,
    so one walk carries any op's args and result.  Sources are memoized
    (by identity when encoding, by document when decoding): servers ask
    against one shared source thousands of times, and re-encoding the
    catalog per request would swamp the wire.
    """

    def __init__(self, tree_type: Optional[TreeType] = None):
        self._tree_type = tree_type
        #: memo key -> (owner, value); the owner pins identity
        self._sources: Dict[object, Tuple[object, object]] = {}

    def _remember(self, key: object, entry: Tuple[object, object]) -> object:
        if len(self._sources) >= 8:
            self._sources.clear()
        self._sources[key] = entry
        return entry[1]

    def encode(self, value: object) -> Json:
        if isinstance(value, DataTree):
            return {"$tree": tree_to_json(value)}
        if isinstance(value, PSQuery):
            return {"$query": query_to_json(value)}
        if isinstance(value, InMemorySource):
            cached = self._sources.get(id(value))
            if cached is not None and cached[0] is value:
                return {"$source": cached[1]}
            document = tree_to_json(value.document())
            return {"$source": self._remember(id(value), (value, document))}
        if isinstance(value, dict):
            return {name: self.encode(item) for name, item in value.items()}
        if isinstance(value, (list, tuple)):
            return [self.encode(item) for item in value]
        return value

    def decode(self, value: Json) -> object:
        if isinstance(value, list):
            return [self.decode(item) for item in value]
        if not isinstance(value, dict):
            return value
        if len(value) == 1:
            ((tag, body),) = value.items()
            if tag == "$tree":
                return tree_from_json(body)
            if tag == "$query":
                return query_from_json(body)
            if tag == "$source":
                key = canonical_dumps(body)
                cached = self._sources.get(key)
                if cached is not None:
                    return cached[1]
                source = InMemorySource(tree_from_json(body), self._tree_type)
                return self._remember(key, (key, source))
        return {name: self.decode(item) for name, item in value.items()}


# -- the worker process -------------------------------------------------------


class _WorkerLoop:
    """The worker side of the pipe: a :class:`ShardHost` plus books."""

    def __init__(self, config: WorkerConfig):
        tree_type = (
            None
            if config.tree_type_json is None
            else treetype_from_json(config.tree_type_json)
        )
        self.host = ShardHost(
            config.shard,
            config.alphabet,
            tree_type,
            auto_minimize=config.auto_minimize,
            store=(
                None
                if config.store_root is None
                else SessionStore(
                    config.store_root, snapshot_every=config.snapshot_every
                )
            ),
        )
        self.codec = _Codec(tree_type)
        #: per-op-family service-time sketches, reset on every push-back
        self.pending: Dict[str, QuantileSketch] = {
            op: QuantileSketch() for op in SHARD_OPS
        }
        #: counter snapshot at the last push-back (deltas travel)
        self._counter_base: Dict[str, float] = {}
        #: parsed fault plans by spec, so trigger state (``nth``/``once``)
        #: persists across the requests of one worker incarnation
        self._plans: Dict[str, FaultPlan] = {}

    def handle(self, op: str, args: Dict[str, Json]) -> Json:
        """Shard ops go to the host; three debug ops stay here."""
        if op == "ping":
            return {"pid": os.getpid()}
        if op == "sleep":  # debug/testing: simulate a hung worker
            time.sleep(float(args.get("seconds", 0.0)))
            return {"slept_s": float(args.get("seconds", 0.0))}
        if op == "spans":
            return _recent_spans(int(args.get("limit", 64)))
        if op not in OPS:
            raise ValueError(f"unknown worker op {op!r}")
        return self.codec.encode(getattr(self.host, op)(**self.codec.decode(args)))

    def observe(self, op: str, seconds: float) -> None:
        family = OPS[op][1] if op in OPS else None
        if family is not None:
            self.pending[family].observe(seconds)

    def drain_books(self) -> Dict[str, Json]:
        """The sketch/counter deltas since the last response (and reset)."""
        sketches = {
            op: sketch.to_dict()
            for op, sketch in self.pending.items()
            if sketch.count
        }
        for op in sketches:
            self.pending[op] = QuantileSketch()
        counters: Dict[str, float] = {}
        if _OBS.enabled:
            current = dict(_OBS.metrics.counters())
            for name, value in current.items():
                delta = value - self._counter_base.get(name, 0)
                if delta:
                    counters[name] = delta
            self._counter_base = current
        return {"sketches": sketches, "counters": counters}

    def plan_for(self, spec: Optional[str]) -> Optional[FaultPlan]:
        if spec is None:
            return None
        plan = self._plans.get(spec)
        if plan is None:
            try:
                plan = FaultPlan.parse(spec)
            except FaultError:
                return None  # a bad spec disarms rather than wedging the worker
            self._plans[spec] = plan
        return plan


def _recent_spans(limit: int) -> Json:
    """Recent closed spans (flattened), for trace-propagation checks."""
    rows: List[Dict[str, Json]] = []

    def walk(span) -> None:
        rows.append(
            {
                "name": span.name,
                "trace_id": span.attrs.get("trace_id"),
                "shard": span.attrs.get("shard"),
            }
        )
        for child in span.children:
            walk(child)

    for trace in list(_OBS.traces)[-limit:]:
        walk(trace)
    return {"spans": rows[-limit:]}


def _worker_entry(config: WorkerConfig, conn) -> None:
    """The spawned worker's main: serve wire frames until shutdown/EOF."""
    # the parent coordinates shutdown over the pipe; a terminal Ctrl-C
    # must not tear workers down mid-journal-write underneath it
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    from .. import obs, perf

    if config.obs_enabled:
        obs.enable(obs.RingBufferSink())
    if config.caches_enabled:
        perf.enable_caches()

    worker = _WorkerLoop(config)
    conn.send_bytes(
        wire.encode_frame(
            wire.response_envelope(0, value={"pid": os.getpid(), "hello": True})
        )
    )
    running = True
    while running:
        try:
            data = conn.recv_bytes()
        except (EOFError, OSError):
            break
        seq = -1
        books: Dict[str, Json] = {}
        try:
            request = wire.decode_request(wire.decode_frame(data))
            seq = request["seq"]
            op = request["op"]
            if op == "shutdown":
                running = False
                response = wire.response_envelope(seq, value={"pid": os.getpid()})
            else:
                started = time.perf_counter()
                shard_token = set_shard(config.shard)
                trace_token = set_trace_id(request.get("trace_id"))
                try:
                    deadline_s = request.get("deadline_s")
                    if deadline_s is not None and deadline_s <= 0:
                        raise DeadlineExceeded(
                            f"request deadline expired before worker "
                            f"{config.shard} started"
                        )
                    plan = worker.plan_for(request.get("fault_plan"))
                    with fault_scope(plan):
                        if _faults_armed():
                            _check_site(f"cluster.worker.{config.shard}")
                        with _span(f"worker.{op}", shard=config.shard):
                            value = worker.handle(op, request["args"])
                finally:
                    reset_trace_id(trace_token)
                    reset_shard(shard_token)
                worker.observe(op, time.perf_counter() - started)
                books = worker.drain_books()
                response = wire.response_envelope(seq, value=value, books=books)
        except BaseException as exc:  # every failure becomes a frame
            response = wire.response_envelope(
                seq,
                error={
                    "type": type(exc).__name__,
                    "message": str(exc),
                    "retryable": isinstance(exc, RETRYABLE_ERRORS),
                },
                books=books,
            )
        try:
            conn.send_bytes(wire.encode_frame(response))
        except (BrokenPipeError, OSError):
            break
    worker.host.close()
    conn.close()


# -- the router-side pool -----------------------------------------------------


@dataclass
class _Worker:
    """Router-side state for one shard worker."""

    config: WorkerConfig
    process: Any = None
    conn: Any = None
    lock: threading.Lock = field(default_factory=threading.Lock)
    seq: int = 0
    pid: Optional[int] = None
    restarts: int = 0
    #: accumulated worker-side service-time sketches (delta merges)
    sketches: Dict[str, QuantileSketch] = field(
        default_factory=lambda: {op: QuantileSketch() for op in SHARD_OPS}
    )
    #: accumulated worker counter deltas
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class ProcWorkerPool:
    """One spawned worker process per shard, framed by the wire codec."""

    def __init__(
        self,
        configs: List[WorkerConfig],
        *,
        request_timeout_s: float = 30.0,
        spawn_timeout_s: float = 60.0,
    ):
        import multiprocessing

        self._ctx = multiprocessing.get_context("spawn")
        self._workers = [_Worker(config) for config in configs]
        self.request_timeout_s = float(request_timeout_s)
        self.spawn_timeout_s = float(spawn_timeout_s)
        self._stopping = False
        self._codec = _Codec()

    def __len__(self) -> int:
        return len(self._workers)

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> "ProcWorkerPool":
        """Spawn every worker (started concurrently, awaited in order)."""
        for worker in self._workers:
            with worker.lock:
                if not worker.alive:
                    self._spawn(worker)
        for worker in self._workers:
            with worker.lock:
                self._await_hello(worker)
        return self

    def _spawn(self, worker: _Worker) -> None:
        """Launch one worker process; caller holds ``worker.lock``."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_entry,
            args=(worker.config, child_conn),
            name=f"repro-shard-worker-{worker.config.shard}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        worker.process = process
        worker.conn = parent_conn
        worker.pid = process.pid
        worker.seq = 0

    def _await_hello(self, worker: _Worker) -> None:
        """Block until the worker's hello frame; caller holds the lock."""
        if worker.conn is None:
            raise WorkerUnavailable(f"worker {worker.config.shard} never spawned")
        if not worker.conn.poll(self.spawn_timeout_s):
            self._discard(worker)
            raise WorkerUnavailable(
                f"worker {worker.config.shard} did not come up within "
                f"{self.spawn_timeout_s:g}s"
            )
        try:
            hello = wire.decode_response(wire.decode_frame(worker.conn.recv_bytes()))
        except (EOFError, OSError, wire.WireError) as exc:
            self._discard(worker)
            raise WorkerUnavailable(
                f"worker {worker.config.shard} failed during startup: {exc}"
            )
        if not hello["ok"] or not (hello["value"] or {}).get("hello"):
            self._discard(worker)
            raise WorkerUnavailable(
                f"worker {worker.config.shard} sent a malformed hello"
            )
        worker.pid = (hello["value"] or {}).get("pid", worker.pid)

    def _discard(self, worker: _Worker) -> None:
        """Tear down a dead/hung worker's process + pipe (lock held)."""
        if worker.conn is not None:
            try:
                worker.conn.close()
            except OSError:
                pass
            worker.conn = None
        process, worker.process = worker.process, None
        if process is not None:
            if process.is_alive():
                process.kill()
            process.join(timeout=5)

    def ensure(self, shard: int) -> None:
        """Respawn shard's worker if it is dead — the revival path.

        The fresh worker resumes every journaled session in its shard
        namespace before serving (Theorem 3.5 snapshot+replay), so a
        respawn after a kill loses nothing that reached the journal.
        """
        worker = self._workers[shard]
        with worker.lock:
            if self._stopping or worker.alive:
                return
            self._discard(worker)
            self._spawn(worker)
            worker.restarts += 1
            self._await_hello(worker)
        if _OBS.enabled:
            _OBS.metrics.inc("cluster.worker_respawns")

    def kill(self, shard: int) -> None:
        """SIGKILL shard's worker (chaos/testing); respawn is on demand."""
        worker = self._workers[shard]
        process = worker.process
        if process is not None and process.is_alive():
            process.kill()
            process.join(timeout=5)

    def stop(self) -> None:
        """Orderly shutdown: ask each worker to exit, then reap."""
        self._stopping = True
        for worker in self._workers:
            with worker.lock:
                if worker.alive and worker.conn is not None:
                    try:
                        worker.seq += 1
                        worker.conn.send_bytes(
                            wire.encode_frame(
                                wire.request_envelope(worker.seq, "shutdown")
                            )
                        )
                    except (BrokenPipeError, OSError):
                        pass
        for worker in self._workers:
            with worker.lock:
                process = worker.process
                if process is not None:
                    process.join(timeout=5)
                self._discard(worker)

    close = stop

    # -- the transport surface --------------------------------------------------

    def call(
        self,
        shard: int,
        op: str,
        args: Dict[str, object],
        deadline: Optional[Deadline] = None,
    ) -> object:
        """Run one :class:`ShardHost` op on shard's worker.

        Live args go out through ``store.codec`` and the result comes
        back through it; the caller's trace id and armed fault plan
        ride the envelope.  A dead or hung worker is respawned — its
        engines revive from the journal — before
        :class:`WorkerUnavailable` re-raises, so the caller's retry
        reaches the fresh incarnation.
        """
        try:
            value = self.request(
                shard,
                op,
                self._codec.encode(args),
                trace_id=current_trace_id(),
                deadline=deadline,
                plan=active_plan(),
            )
        except WorkerUnavailable:
            try:
                self.ensure(shard)
            except WorkerUnavailable:
                pass  # still down: the caller's breaker books the failure
            raise
        return self._codec.decode(value)

    def engines(self, shard: int):
        """Live engines exist only inside the workers: always raises."""
        raise NotImplementedError(
            "backend='process' hosts engines in worker processes; use "
            "answer_info()/stats_all() for per-session books, and reopen "
            "a durable pool to resize it"
        )

    # -- the request path -------------------------------------------------------

    def request(
        self,
        shard: int,
        op: str,
        args: Optional[Dict[str, Json]] = None,
        *,
        trace_id: Optional[str] = None,
        deadline: Optional[Deadline] = None,
        plan: Optional[FaultPlan] = None,
    ) -> Json:
        """One request/response round trip with shard's worker.

        Serialized per worker (the pipe is ordered, not multiplexed).
        Raises :class:`WorkerUnavailable` when the worker is dead, hung
        past the timeout, or desynchronized — all retryable after
        :meth:`ensure`.  Remote errors come back typed: ``ValueError``
        and :class:`DeadlineExceeded` re-raise as themselves,
        store/fault failures as :class:`WorkerFault` (retryable),
        everything else as :class:`WorkerError`.
        """
        worker = self._workers[shard]
        timeout = self.request_timeout_s
        deadline_s: Optional[float] = None
        if deadline is not None:
            deadline_s = deadline.remaining()
            if deadline_s <= 0:
                raise DeadlineExceeded(
                    f"deadline expired before reaching worker {shard}"
                )
            timeout = min(timeout, deadline_s)
        with worker.lock:
            if not worker.alive or worker.conn is None:
                raise WorkerUnavailable(f"worker {shard} is not running")
            worker.seq += 1
            seq = worker.seq
            envelope = wire.request_envelope(
                seq,
                op,
                args,
                trace_id=trace_id,
                deadline_s=deadline_s,
                fault_plan=None if plan is None else plan.spec(),
            )
            try:
                worker.conn.send_bytes(wire.encode_frame(envelope))
            except (BrokenPipeError, OSError) as exc:
                self._discard(worker)
                raise WorkerUnavailable(f"worker {shard} pipe is broken: {exc}")
            if not worker.conn.poll(timeout):
                # a hung worker blocks its whole shard; kill it so the
                # respawn path can bring the shard back from the journal
                self._discard(worker)
                raise WorkerUnavailable(
                    f"worker {shard} did not answer within {timeout:g}s"
                )
            try:
                response = wire.decode_response(
                    wire.decode_frame(worker.conn.recv_bytes())
                )
            except (EOFError, OSError) as exc:
                self._discard(worker)
                raise WorkerUnavailable(f"worker {shard} died mid-request: {exc}")
            except wire.WireError as exc:
                self._discard(worker)
                raise WorkerUnavailable(
                    f"worker {shard} sent an undecodable frame: {exc}"
                )
            if response["seq"] != seq:
                self._discard(worker)
                raise WorkerUnavailable(
                    f"worker {shard} desynchronized "
                    f"(expected seq {seq}, got {response['seq']})"
                )
            self._fold_books(worker, response.get("books") or {})
        if response["ok"]:
            return response["value"]
        return self._raise_remote(shard, response["error"])

    def _raise_remote(self, shard: int, error: Dict[str, Json]) -> Json:
        remote_type = str(error.get("type", "Exception"))
        message = str(error.get("message", ""))
        if remote_type == "ValueError":
            raise ValueError(message)
        if remote_type == "DeadlineExceeded":
            raise DeadlineExceeded(message)
        if error.get("retryable"):
            raise WorkerFault(remote_type, f"worker {shard}: {message}")
        raise WorkerError(remote_type, f"worker {shard}: {message}")

    def _fold_books(self, worker: _Worker, books: Dict[str, Json]) -> None:
        """Merge one response's pushed-back deltas (lock held)."""
        for op, document in (books.get("sketches") or {}).items():
            if op in worker.sketches:
                worker.sketches[op].merge(QuantileSketch.from_dict(document))
        counters = books.get("counters") or {}
        if counters:
            for name, delta in counters.items():
                worker.counters[name] = worker.counters.get(name, 0) + delta
            if _OBS.enabled:
                # fleet-wide /metrics sees worker-side engine counters
                _OBS.metrics.merge_counts(counters)

    # -- books ------------------------------------------------------------------

    def worker_sketches(self) -> Dict[str, QuantileSketch]:
        """Fleet service-time sketches: per-worker books merged per op."""
        return {
            op: QuantileSketch.merged(
                [worker.sketches[op] for worker in self._workers]
            )
            for op in SHARD_OPS
        }

    def stats(self) -> List[Dict[str, Json]]:
        """Per-worker lifecycle books (no pipe traffic)."""
        return [
            {
                "shard": worker.config.shard,
                "pid": worker.pid,
                "alive": worker.alive,
                "restarts": worker.restarts,
                "counters": dict(worker.counters),
            }
            for worker in self._workers
        ]

    def __repr__(self) -> str:
        alive = sum(1 for worker in self._workers if worker.alive)
        return f"ProcWorkerPool(workers={len(self._workers)}, alive={alive})"


__all__ = [
    "ProcWorkerPool",
    "WorkerConfig",
    "WorkerError",
    "WorkerFault",
    "WorkerUnavailable",
    "_worker_entry",
]
