"""The flight recorder: the one book of what a finished request leaves.

Serving systems for uncertain data have per-request cost that varies
wildly with representation structure — by the time an operator notices a
slow or failing ``/ask``, the interesting trace is gone unless someone
kept it.  The :class:`FlightRecorder` decides, counts and keeps it.  Every
finished request is *offered* once (:meth:`FlightRecorder.offer`), and
the recorder makes the keep decision there:

* **tail rules** keep a trace regardless of sampling: shed (429/503
  backpressure) over errored (5xx, or a span that closed with an
  ``error``) over slow (duration over ``slow_s``);
* **head** — an ordinary healthy trace is kept when a deterministic hash
  of its trace id falls under ``head_rate``.  Deterministic, so the same
  trace id always gets the same verdict and tests are exact.
  ``head_rate=1.0`` (the default) keeps everything — sampling is a
  pressure valve to turn, not a default loss.

The decision is booked (``kept``, ``dropped``, ``by_reason``) for every
request, also with span collection off, where there is no trace to hold.
A kept root is stamped with its reason (``keep``) and filed: the last
``capacity`` completed traces ride a ring (oldest evicted first), while
**errored** traces (status >= 400 or a span error) go to a separate,
much larger ring so that a burst of healthy traffic cannot flush the
evidence of a failure.

A held root is the request's whole tree: the ``ops.request`` span, and
for a fleet-wide ``/ask`` the ``cluster.task`` span of every shard with
the engine spans under it (:mod:`repro.cluster.executor` hands the
submitting span to its pool threads).  :meth:`FlightRecorder.exemplars`
names the slowest *held* trace per route and the newest held 5xx, so
every trace id ``/metrics`` links to resolves in
``/debug/flightrecorder`` — which renders the held traces as Chrome
``trace_event`` JSON that loads directly into Perfetto /
``chrome://tracing`` and passes
:func:`repro.obs.export.validate_chrome_trace`.
"""

from __future__ import annotations

import threading
import zlib
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..obs.export import chrome_trace_events
from ..obs.slo import DEFAULT_SLOW_S
from ..obs.spans import Span
from .trace import TraceHandle, _subtree_errored

#: Statuses that mean load shedding / backpressure rather than failure.
SHED_STATUSES = (429, 503)

REASON_HEAD = "head"
REASON_ERROR = "error"
REASON_SHED = "shed"
REASON_SLOW = "slow"

_HASH_SPACE = 2 ** 32


class FlightRecorder:
    """Keep decision, keep books and bounded retention of finished traces.

    ``capacity`` bounds the completed-trace ring; ``errored_capacity``
    bounds the errored ring (generously — the contract is that every
    errored trace of a test run or an incident window is retained).

    >>> from repro.ops.trace import TraceHandle
    >>> recorder = FlightRecorder(head_rate=0.0, slow_s=0.1)
    >>> recorder.offer(TraceHandle("deadbeef", None), 200, 0.01)  # dropped
    >>> recorder.offer(TraceHandle("deadbeef", None), 500, 0.01)
    'error'
    >>> recorder.offer(TraceHandle("deadbeef", None), 200, 0.5)
    'slow'
    """

    def __init__(
        self,
        capacity: int = 64,
        errored_capacity: int = 1024,
        head_rate: float = 1.0,
        slow_s: float = DEFAULT_SLOW_S,
    ):
        if capacity <= 0 or errored_capacity <= 0:
            raise ValueError("flight recorder capacities must be positive")
        if not 0.0 <= head_rate <= 1.0:
            raise ValueError(f"head_rate must be in [0, 1], got {head_rate!r}")
        if slow_s <= 0:
            raise ValueError(f"slow_s must be positive, got {slow_s!r}")
        self.capacity = capacity
        self.errored_capacity = errored_capacity
        self.head_rate = float(head_rate)
        self.slow_s = float(slow_s)
        self._completed: Deque[Span] = deque(maxlen=capacity)
        self._errored: Deque[Span] = deque(maxlen=errored_capacity)
        self._kept = 0
        self._dropped = 0
        self._by_reason: Dict[str, int] = {}
        self._lock = threading.Lock()

    # -- deciding ---------------------------------------------------------------

    def head_decision(self, trace_id: str) -> bool:
        """The deterministic hash draw for an otherwise-ordinary trace."""
        if self.head_rate >= 1.0:
            return True
        if self.head_rate <= 0.0:
            return False
        draw = zlib.crc32(trace_id.encode("utf-8")) % _HASH_SPACE
        return draw < self.head_rate * _HASH_SPACE

    def offer(
        self, handle: TraceHandle, status: int, duration_s: float
    ) -> Optional[str]:
        """Decide one finished request; returns the keep reason or ``None``.

        Tail rules trump the head draw, and a shed status classifies as
        backpressure even when the span tree carries an error mark (a
        refused request is operationally different from a failed one).
        The span tree is walked once.  When the request has a root (span
        collection on) and is kept, the root is stamped with its reason
        and filed in the errored or the completed ring.
        """
        root = handle.root
        errored = root is not None and _subtree_errored(root)
        reason: Optional[str] = None
        if status in SHED_STATUSES:
            reason = REASON_SHED
        elif errored or status >= 500:
            reason = REASON_ERROR
        elif duration_s > self.slow_s:
            reason = REASON_SLOW
        elif self.head_decision(handle.trace_id):
            reason = REASON_HEAD
        if reason is not None and root is not None:
            root.attrs["keep"] = reason
        with self._lock:
            if reason is None:
                self._dropped += 1
                return None
            self._kept += 1
            self._by_reason[reason] = self._by_reason.get(reason, 0) + 1
            if root is not None:
                if errored or status >= 400:
                    self._errored.append(root)
                else:
                    self._completed.append(root)
        return reason

    # -- reading ----------------------------------------------------------------

    def completed(self) -> List[Span]:
        """Retained non-errored trace roots, oldest first."""
        with self._lock:
            return list(self._completed)

    def errored(self) -> List[Span]:
        """Retained errored trace roots, oldest first."""
        with self._lock:
            return list(self._errored)

    def roots(self) -> List[Span]:
        """Every retained root, merged and ordered by start time."""
        with self._lock:
            merged = list(self._completed) + list(self._errored)
        merged.sort(key=lambda node: node.start)
        return merged

    def exemplars(self) -> List[Dict[str, object]]:
        """Trace-id exemplars over the *held* traces: the slowest per
        route label, then the newest 5xx.

        Only request roots (those whose latency labels carry the route)
        qualify.  Each row is ``{path, trace_id, status, kind, value}``
        with ``value`` in seconds: ``/metrics`` sets one
        ``http.exemplar_seconds`` gauge per row in the scrape's
        registry, labelled by the other four fields.
        """
        with self._lock:
            completed = list(self._completed)
            errored = list(self._errored)
        slowest: Dict[str, Tuple[float, Span]] = {}
        for root in completed + errored:
            route = (root.labels or {}).get("path")
            if route is None:
                continue
            duration, best = root.duration, slowest.get(route)
            if best is None or duration > best[0]:
                slowest[route] = (duration, root)
        rows = [
            _exemplar(route, root, duration, "slowest")
            for route, (duration, root) in sorted(slowest.items())
        ]
        for root in reversed(errored):
            route = (root.labels or {}).get("path")
            status = root.attrs.get("status", 0)
            if route is not None and status >= 500:  # type: ignore[operator]
                rows.append(_exemplar(route, root, root.duration, "last_error"))
                break
        return rows

    def stats(self) -> Dict[str, object]:
        """JSON-ready books: the keep decisions and what is held."""
        with self._lock:
            total = self._kept + self._dropped
            return {
                "head_rate": self.head_rate,
                "slow_s": self.slow_s,
                "kept": self._kept,
                "dropped": self._dropped,
                "keep_fraction": self._kept / total if total else 1.0,
                "by_reason": dict(sorted(self._by_reason.items())),
                "retained_completed": len(self._completed),
                "retained_errored": len(self._errored),
                "capacity": self.capacity,
                "errored_capacity": self.errored_capacity,
            }

    def chrome_trace(self) -> Dict[str, object]:
        """The retained traces as one Chrome trace-event document.

        Each trace root gets its own ``tid`` so concurrent requests
        render as parallel tracks; errored traces are offset into a
        separate tid band (>= 1000) for quick visual triage.
        """
        with self._lock:
            rows: List[Tuple[Span, bool]] = [(r, False) for r in self._completed]
            rows += [(r, True) for r in self._errored]
        rows.sort(key=lambda row: row[0].start)
        events: List[Dict[str, object]] = []
        completed_tid, errored_tid = 1, 1000
        for root, was_errored in rows:
            if was_errored:
                tid, errored_tid = errored_tid, errored_tid + 1
            else:
                tid, completed_tid = completed_tid, completed_tid + 1
            events.extend(chrome_trace_events([root], pid=1, tid=tid))
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "source": "repro.ops.flight",
                "format": "trace_event",
                **{key: str(val) for key, val in self.stats().items()},
            },
        }

    def __len__(self) -> int:
        with self._lock:
            return len(self._completed) + len(self._errored)

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"FlightRecorder({stats['retained_completed']}/{self.capacity} completed, "
            f"{stats['retained_errored']}/{self.errored_capacity} errored, "
            f"kept={stats['kept']}, dropped={stats['dropped']})"
        )


def _exemplar(route: str, root: Span, duration: float, kind: str) -> Dict[str, object]:
    return {
        "path": route,
        "trace_id": root.attrs.get("trace_id"),
        "status": root.attrs.get("status"),
        "value": duration,
        "kind": kind,
    }


__all__ = [
    "FlightRecorder",
    "REASON_ERROR",
    "REASON_HEAD",
    "REASON_SHED",
    "REASON_SLOW",
    "SHED_STATUSES",
]
