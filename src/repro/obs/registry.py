"""Named counters and histograms — the metrics half of ``repro.obs``.

A :class:`Metrics` registry owns :class:`Counter` and :class:`Histogram`
instances keyed by dotted names (``"refine.specializations"``,
``"matching.augmenting_paths"``).  Instruments are created lazily on
first use so call sites never need registration boilerplate, and
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
from typing import Deque, Dict, List, Optional, Union

from .sketch import DEFAULT_ACCURACY, SUMMARY_QUANTILES, QuantileSketch

Number = Union[int, float]

#: How many raw observations a histogram retains for series inspection.
RECENT_WINDOW = 1024


class Counter:
    """A monotonically increasing named count.

    ``inc`` holds a per-instrument lock: ``value += amount`` is a
    read-modify-write, and concurrent workloads (thread pools timing
    their own Refine steps) would otherwise lose increments.
    """

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
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

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value: Number = 0
        self._lock = threading.Lock()

    def set(self, value: Number) -> None:
        with self._lock:
            self.value = value

    def add(self, amount: Number = 1) -> None:
        with self._lock:
            self.value += amount

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

    __slots__ = ("name", "count", "total", "min", "max", "recent", "sketch", "_lock")

    def __init__(
        self,
        name: str,
        window: int = RECENT_WINDOW,
        relative_accuracy: float = DEFAULT_ACCURACY,
    ):
        self.name = name
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


class Metrics:
    """A registry of named counters and histograms.

    One global instance lives on :data:`repro.obs.state.STATE`;
    components that want private books (e.g. per-:class:`Webhouse`
    statistics) instantiate their own.
    """

    __slots__ = ("_counters", "_gauges", "_histograms", "_lock")

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._lock = threading.Lock()

    # -- access -----------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            # lock only the miss path: two racing creators must agree on
            # one instrument or increments on the loser are lost
            with self._lock:
                instrument = self._counters.get(name)
                if instrument is None:
                    instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._gauges.get(name)
                if instrument is None:
                    instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._histograms.get(name)
                if instrument is None:
                    instrument = self._histograms[name] = Histogram(name)
        return instrument

    def inc(self, name: str, amount: Number = 1) -> None:
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: Number) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: Number) -> None:
        self.histogram(name).observe(value)

    def value(self, name: str) -> Number:
        """Current value of a counter (0 when never incremented)."""
        instrument = self._counters.get(name)
        return instrument.value if instrument is not None else 0

    def gauge_value(self, name: str) -> Number:
        """Current value of a gauge (0 when never set)."""
        instrument = self._gauges.get(name)
        return instrument.value if instrument is not None else 0

    def series(self, name: str) -> List[Number]:
        """Recent observations of a histogram (empty when unknown)."""
        instrument = self._histograms.get(name)
        return list(instrument.recent) if instrument is not None else []

    def quantile(self, name: str, q: float) -> Optional[float]:
        """Whole-stream histogram quantile (None when unknown/empty)."""
        instrument = self._histograms.get(name)
        return instrument.quantile(q) if instrument is not None else None

    def counters(self) -> Dict[str, Number]:
        return {name: c.value for name, c in sorted(self._counters.items())}

    def gauges(self) -> Dict[str, Number]:
        return {name: g.value for name, g in sorted(self._gauges.items())}

    def histograms(self) -> Dict[str, Dict[str, object]]:
        return {name: h.summary() for name, h in sorted(self._histograms.items())}

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
