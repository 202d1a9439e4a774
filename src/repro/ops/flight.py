"""The flight recorder: a bounded ring of recently finished traces.

Serving systems for uncertain data have per-request cost that varies
wildly with representation structure — by the time an operator notices a
slow or failing ``/ask``, the interesting trace is gone unless someone
kept it.  The :class:`FlightRecorder` keeps it: the last ``capacity``
completed request traces ride a ring (oldest evicted first), while
**errored** traces go to a separate, much larger ring so that a burst of
healthy traffic cannot flush the evidence of a failure.

The recorder stores finished root :class:`~repro.obs.spans.Span` trees
(each carrying its request's ``trace_id``), and renders them as Chrome
``trace_event`` JSON on demand — ``/debug/flightrecorder`` returns a
document that loads directly into Perfetto / ``chrome://tracing`` and
passes :func:`repro.obs.export.validate_chrome_trace`.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..obs.export import chrome_trace_events
from ..obs.spans import Span
from .trace import _subtree_errored


class FlightRecorder:
    """Bounded retention of finished trace roots, errors kept longest.

    ``capacity`` bounds the completed-trace ring; ``errored_capacity``
    bounds the errored ring (generously — the contract is that every
    errored trace of a test run or an incident window is retained).
    """

    def __init__(self, capacity: int = 64, errored_capacity: int = 1024):
        if capacity <= 0 or errored_capacity <= 0:
            raise ValueError("flight recorder capacities must be positive")
        self.capacity = capacity
        self.errored_capacity = errored_capacity
        self._completed: Deque[Span] = deque(maxlen=capacity)
        self._errored: Deque[Span] = deque(maxlen=errored_capacity)
        self._recorded = 0
        self._recorded_errored = 0
        self._by_reason: Dict[str, int] = {}
        self._lock = threading.Lock()

    # -- recording --------------------------------------------------------------

    def record(
        self,
        root: Optional[Span],
        errored: Optional[bool] = None,
        reason: Optional[str] = None,
    ) -> None:
        """File one finished trace root (``None`` is a tolerated no-op,
        so call sites need no obs-enabled guard).

        ``errored`` overrides the classification; when omitted the tree
        is scanned for spans that closed with an ``error`` attribute.
        ``reason`` is the sampler's keep verdict (``head``/``error``/
        ``shed``/``slow``); it is stamped onto the root's attributes so
        Chrome-trace dumps show why each retained trace survived.
        """
        if root is None:
            return
        if errored is None:
            errored = _subtree_errored(root)
        if reason is not None:
            root.attrs["keep"] = reason
        with self._lock:
            self._recorded += 1
            if reason is not None:
                self._by_reason[reason] = self._by_reason.get(reason, 0) + 1
            if errored:
                self._recorded_errored += 1
                self._errored.append(root)
            else:
                self._completed.append(root)

    def clear(self) -> None:
        with self._lock:
            self._completed.clear()
            self._errored.clear()

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

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "recorded": self._recorded,
                "recorded_errored": self._recorded_errored,
                "retained_completed": len(self._completed),
                "retained_errored": len(self._errored),
                "capacity": self.capacity,
                "errored_capacity": self.errored_capacity,
                "recorded_by_reason": dict(sorted(self._by_reason.items())),
            }

    def chrome_trace(
        self, extra: Optional[Dict[str, object]] = None
    ) -> Dict[str, object]:
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
                **{key: str(val) for key, val in (extra or {}).items()},
            },
        }

    def __len__(self) -> int:
        with self._lock:
            return len(self._completed) + len(self._errored)

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"FlightRecorder({stats['retained_completed']}/{self.capacity} completed, "
            f"{stats['retained_errored']}/{self.errored_capacity} errored)"
        )


__all__ = ["FlightRecorder"]
