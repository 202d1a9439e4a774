"""Scatter-gather execution of per-shard work on a thread pool.

Fleet-wide operations (``ask_all``, ``stats_all``, remedies) fan one
callable out over shard indices — every shard, or those whose breaker
admits them — and gather the results **in that order**: the merge
order is part of the cluster's determinism contract.

Each task is called with its shard index and runs with that index
bound to the observability context (:func:`repro.obs.spans.set_shard`),
so every engine span a task closes carries the ``shard`` it ran on,
however the pool threads are reused.

Fault plans, trace ids and span parentage are context-scoped and
thread pools do not inherit context, so :meth:`Executor.submit`
captures the caller's active plan, request trace id and innermost open
span, and re-binds them inside the task: a chaos scope around
``ask_all`` reaches every per-shard task, spans closed in pool threads
carry the caller's ``X-Repro-Trace-Id``, and each task's
``cluster.task`` span becomes a child of the submitting span, so one
fleet request is one trace tree.  The submitting span is pushed onto
the pool thread's *own* span stack and popped after the task; the
caller's stack list never crosses threads (a copied context would
share it), and a span opened in a plain thread still never adopts a
foreign parent.  Each task consults the injection site
``cluster.task.<shard>`` inside its ``cluster.task`` span, so schedules
can stall, delay, or fail one specific shard, and a task that fails
there leaves a span marked ``error`` in the request's trace.

A one-shard fan-out runs inline on the caller's thread with no pool hop
and no ``cluster.task`` span of its own — the fleet op's span around
it already times it, and carries the ``error`` when the task fails —
but with the same shard binding and fault site.

:meth:`scatter` raises the first (in the given order) error after all
tasks finish; :meth:`scatter_outcomes` instead reports per-shard
:class:`TaskOutcome`\\ s and enforces an optional gather deadline —
the building block for degraded partial fan-outs.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Callable, Generic, List, Optional, Sequence, TypeVar

from ..faults.inject import (
    active_plan,
    armed as _faults_armed,
    check_site as _check_site,
    fault_scope,
)
from ..faults.policies import Deadline, DeadlineExceeded
from ..obs.spans import (
    add_attrs,
    current_span,
    current_trace_id,
    reset_shard,
    reset_trace_id,
    set_shard,
    set_trace_id,
    span as _span,
)
from ..obs.state import STATE as _OBS

R = TypeVar("R")


@dataclass
class TaskOutcome(Generic[R]):
    """Shard ``index``'s task result: a value or the error that ate it."""

    index: int
    value: Optional[R] = None
    error: Optional[BaseException] = None

    @property
    def ok(self) -> bool:
        return self.error is None


class Executor:
    """A lazily-started thread pool with ordered scatter-gather."""

    def __init__(self, max_workers: Optional[int] = None):
        self._max_workers = max_workers
        self._pool: Optional[ThreadPoolExecutor] = None
        self._lock = threading.Lock()

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self._max_workers,
                    thread_name_prefix="repro-shard",
                )
            return self._pool

    @property
    def max_workers(self) -> Optional[int]:
        return self._max_workers

    def submit(
        self, shard: int, fn: Callable[..., R], *args: object, **kwargs: object
    ) -> "Future[R]":
        """Run ``fn`` on the pool with ``shard`` bound to the obs context
        and its ``cluster.task`` span under the submitting span."""
        plan = active_plan()
        trace_id = current_trace_id()
        parent = current_span()

        def bound() -> R:
            token = set_shard(shard)
            trace_token = set_trace_id(trace_id)
            stack = None if parent is None else _OBS.stack
            if stack is not None:
                stack.append(parent)
            try:
                with fault_scope(plan), _span("cluster.task", shard=shard):
                    if _faults_armed():
                        _check_site(f"cluster.task.{shard}")
                    return fn(*args, **kwargs)
            finally:
                if stack is not None:
                    stack.pop()
                reset_trace_id(trace_token)
                reset_shard(token)

        return self._ensure_pool().submit(bound)

    def scatter(self, shards: Sequence[int], fn: Callable[[int], R]) -> List[R]:
        """Run ``fn(shard)`` for every shard index concurrently; gather in
        the given order.

        The first exception (in the given order, not completion order)
        is re-raised after every task has finished, so a failing shard
        cannot leave siblings running against torn-down state.
        """
        outcomes = self.scatter_outcomes(shards, fn)
        for outcome in outcomes:
            if not outcome.ok:
                raise outcome.error  # type: ignore[misc]
        return [outcome.value for outcome in outcomes]  # type: ignore[misc]

    def scatter_outcomes(
        self,
        shards: Sequence[int],
        fn: Callable[[int], R],
        deadline: Optional[Deadline] = None,
    ) -> List[TaskOutcome[R]]:
        """Like :meth:`scatter`, but no exception wins: every shard gets a
        :class:`TaskOutcome`, in the given order.

        With a ``deadline``, each gather waits at most the remaining
        budget; an overrunning task (a stalled shard) is reported as
        :class:`DeadlineExceeded` without blocking the fan-out.  The
        task itself keeps running on its pool thread — threads cannot
        be preempted — but its result is abandoned.  The single-shard
        inline shortcut is skipped under a deadline for the same
        reason: inline execution could not be timed out.
        """
        if len(shards) == 1 and deadline is None:
            try:
                return [TaskOutcome(shards[0], value=self._run_inline(shards[0], fn))]
            except BaseException as exc:
                return [TaskOutcome(shards[0], error=exc)]
        futures = [self.submit(shard, fn, shard) for shard in shards]
        outcomes: List[TaskOutcome[R]] = []
        for shard, future in zip(shards, futures):
            try:
                timeout = None if deadline is None else deadline.remaining()
                outcomes.append(TaskOutcome(shard, value=future.result(timeout=timeout)))
            except FutureTimeoutError:
                future.cancel()
                missed = DeadlineExceeded(f"shard {shard} task missed the gather deadline")
                outcomes.append(TaskOutcome(shard, error=missed))
            except BaseException as exc:
                outcomes.append(TaskOutcome(shard, error=exc))
        return outcomes

    def _run_inline(self, shard: int, fn: Callable[[int], R]) -> R:
        token = set_shard(shard)
        try:
            if _faults_armed():
                _check_site(f"cluster.task.{shard}")
            return fn(shard)
        except BaseException as exc:
            # no task span of its own: the fan-out's span carries the error
            add_attrs(error=type(exc).__name__)
            raise
        finally:
            reset_shard(token)

    def shutdown(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __repr__(self) -> str:
        state = "idle" if self._pool is None else "running"
        return f"Executor(max_workers={self._max_workers}, {state})"


__all__ = ["Executor", "TaskOutcome"]
