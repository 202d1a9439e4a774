"""Named counters and histograms — the metrics half of ``repro.obs``.

A :class:`Metrics` registry owns :class:`Counter`, :class:`Gauge` and
:class:`Histogram` instances keyed by a dotted name
(``"refine.specializations"``) plus the sorted labels of the call:
``observe("latency.seconds", dt, layer="refine.step")`` and the same
call with ``layer="cluster.answer"`` feed two label sets of one
*family*, while a call without labels addresses the family's one
unlabelled instrument.  Instruments are created lazily on first use so
call sites never need registration boilerplate, and
:meth:`Metrics.snapshot` renders the whole registry as plain dicts ready
for ``json.dumps``.

Histograms keep aggregate moments, a bounded window of recent
observations (``recent``) so ordered series — e.g. knowledge size after
each recorded query, the live view of Example 3.2's blowup — stay
readable without unbounded memory, and a mergeable
:class:`~repro.obs.sketch.QuantileSketch` so percentile queries see the
*whole* stream with a guaranteed relative-error bound.  ``recent`` is
for ordered-series inspection only; reading percentiles off it is
biased toward the newest window — use :meth:`Histogram.quantile`.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Union

from .sketch import DEFAULT_ACCURACY, SUMMARY_QUANTILES, QuantileSketch

Number = Union[int, float]
Labels = Dict[str, str]

#: How many raw observations a histogram retains for series inspection.
RECENT_WINDOW = 1024


class Counter:
    """A monotonically increasing named count.

    ``inc`` holds a per-instrument lock: ``value += amount`` is a
    read-modify-write, and concurrent workloads (thread pools timing
    their own Refine steps) would otherwise lose increments.
    """

    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: Optional[Labels] = None):
        self.name = name
        self.labels: Labels = labels or {}
        self.value: Number = 0
        self._lock = threading.Lock()

    def inc(self, amount: Number = 1) -> None:
        with self._lock:
            self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self.value})"


class Gauge:
    """A named value that can go up and down (current knowledge size,
    server uptime, in-flight requests).  Last-write-wins under a lock."""

    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: Optional[Labels] = None):
        self.name = name
        self.labels: Labels = labels or {}
        self.value: Number = 0
        self._lock = threading.Lock()

    def set(self, value: Number) -> None:
        with self._lock:
            self.value = value

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, value={self.value})"


class Histogram:
    """Aggregate moments, a bounded raw window, and a quantile sketch.

    ``observe`` updates five fields plus the sketch; the per-instrument
    lock keeps the moments mutually consistent under concurrent
    observation (the sketch carries its own lock).  Percentiles come
    from :meth:`quantile` — whole-stream, within ``relative_accuracy``
    — never from ``recent``, which only sees the newest window.
    """

    __slots__ = ("name", "labels", "count", "total", "min", "max", "recent", "sketch", "_lock")

    def __init__(
        self,
        name: str,
        labels: Optional[Labels] = None,
        window: int = RECENT_WINDOW,
        relative_accuracy: float = DEFAULT_ACCURACY,
    ):
        self.name = name
        self.labels: Labels = labels or {}
        self.count = 0
        self.total: Number = 0
        self.min: Optional[Number] = None
        self.max: Optional[Number] = None
        self.recent: Deque[Number] = deque(maxlen=window)
        self.sketch = QuantileSketch(relative_accuracy)
        self._lock = threading.Lock()

    def observe(self, value: Number) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            self.recent.append(value)
        self.sketch.observe(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """Whole-stream quantile from the sketch (None when empty)."""
        return self.sketch.quantile(q)

    def quantiles(self) -> Dict[str, Optional[float]]:
        """The standard summary quantiles, JSON-ready."""
        return {f"p{int(q * 100)}": self.sketch.quantile(q) for q in SUMMARY_QUANTILES}

    def summary(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "recent": list(self.recent),
            "quantiles": self.quantiles(),
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self.count}, mean={self.mean:.4g})"


def _key(name: str, labels: Labels) -> object:
    """The registry key of one label set: the bare name when unlabelled."""
    return (name, *sorted(labels.items())) if labels else name


def _display(instrument: Union[Counter, Gauge, Histogram]) -> str:
    """``name`` or ``name{k=v,...}``: the JSON key of one label set."""
    if not instrument.labels:
        return instrument.name
    inner = ",".join(f"{k}={v}" for k, v in sorted(instrument.labels.items()))
    return f"{instrument.name}{{{inner}}}"


def instrument_order(instrument: Union[Counter, Gauge, Histogram]) -> tuple:
    """Sort key: by name, then labels (a family's label sets adjacent)."""
    return instrument.name, sorted(instrument.labels.items())


def merged_summary(histograms: Iterable[Histogram]) -> Dict[str, object]:
    """The whole-stream summary of several label sets' pooled
    observations (sketch merge is exact-as-if-pooled)."""
    return QuantileSketch.merged(h.sketch for h in histograms).summary()


class Metrics:
    """A registry of named, optionally labelled counters, gauges and
    histograms.

    A registry is either the process book on
    :data:`repro.obs.state.STATE`, which holds events (counts and
    latencies as they happen), or one scrape's book: a fresh instance
    filled with point-in-time values, rendered, then dropped.
    """

    __slots__ = ("_counters", "_gauges", "_histograms", "_lock")

    def __init__(self) -> None:
        self._counters: Dict[object, Counter] = {}
        self._gauges: Dict[object, Gauge] = {}
        self._histograms: Dict[object, Histogram] = {}
        self._lock = threading.Lock()

    # -- access -----------------------------------------------------------------

    def _instrument(self, table: Dict, kind: type, name: str, labels: Labels):
        key = _key(name, labels)
        instrument = table.get(key)
        if instrument is None:
            # lock only the miss path: two racing creators must agree on
            # one instrument or updates on the loser are lost
            with self._lock:
                instrument = table.get(key)
                if instrument is None:
                    instrument = table[key] = kind(name, labels)
        return instrument

    def counter(self, name: str, **labels: str) -> Counter:
        return self._instrument(self._counters, Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._instrument(self._gauges, Gauge, name, labels)

    def histogram(self, name: str, **labels: str) -> Histogram:
        return self._instrument(self._histograms, Histogram, name, labels)

    def inc(self, name: str, amount: Number = 1, **labels: str) -> None:
        self._instrument(self._counters, Counter, name, labels).inc(amount)

    def set_gauge(self, name: str, value: Number, **labels: str) -> None:
        self._instrument(self._gauges, Gauge, name, labels).set(value)

    def observe(self, name: str, value: Number, **labels: str) -> None:
        self._instrument(self._histograms, Histogram, name, labels).observe(value)

    def value(self, name: str, **labels: str) -> Number:
        """Current value of a counter (0 when never incremented)."""
        instrument = self._counters.get(_key(name, labels))
        return instrument.value if instrument is not None else 0

    def series(self, name: str, **labels: str) -> List[Number]:
        """Recent observations of a histogram (empty when unknown)."""
        instrument = self._histograms.get(_key(name, labels))
        return list(instrument.recent) if instrument is not None else []

    def quantile(self, name: str, q: float, **labels: str) -> Optional[float]:
        """Whole-stream histogram quantile (None when unknown/empty)."""
        instrument = self._histograms.get(_key(name, labels))
        return instrument.quantile(q) if instrument is not None else None

    def instruments(self, kind: str) -> List:
        """Every ``"counter"``, ``"gauge"`` or ``"histogram"`` instrument,
        sorted by name, then by labels — each family's label sets are
        adjacent."""
        return sorted(getattr(self, f"_{kind}s").values(), key=instrument_order)

    def family(self, name: str, **match: str) -> List[Histogram]:
        """The label sets of histogram family ``name`` that carry every
        ``match`` label, sorted by labels."""
        return [
            h
            for h in self.instruments("histogram")
            if h.name == name and match.items() <= h.labels.items()
        ]

    def counters(self) -> Dict[str, Number]:
        return {_display(c): c.value for c in self.instruments("counter")}

    def gauges(self) -> Dict[str, Number]:
        return {_display(g): g.value for g in self.instruments("gauge")}

    def histograms(self) -> Dict[str, Dict[str, object]]:
        return {_display(h): h.summary() for h in self.instruments("histogram")}

    # -- lifecycle --------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """The whole registry as JSON-ready plain data."""
        document: Dict[str, object] = {
            "counters": self.counters(),
            "histograms": self.histograms(),
        }
        if self._gauges:
            document["gauges"] = self.gauges()
        return document

    def reset(self) -> None:
        """Drop every instrument (identity of the registry is preserved)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def __repr__(self) -> str:
        return (
            f"Metrics({len(self._counters)} counters, "
            f"{len(self._gauges)} gauges, "
            f"{len(self._histograms)} histograms)"
        )
