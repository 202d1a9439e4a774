"""Mergeable streaming quantile sketch (DDSketch-style, zero-dependency).

The serving story needs percentiles — query cost over incomplete trees
varies sharply with instance structure (Example 3.2's blowup), so the
tail, not the mean, is the operationally meaningful latency signal.  A
bounded ``recent`` window (PR 1's histograms) biases every quantile
toward the newest traffic and cannot be combined across shards; this
module replaces that story with a :class:`QuantileSketch`:

* **log-bucketed**: a positive value ``v`` lands in bucket
  ``ceil(log_gamma(v))`` where ``gamma = (1+a)/(1-a)`` for relative
  accuracy ``a``.  Reporting bucket ``i`` as ``2*gamma^i/(gamma+1)``
  guarantees every quantile estimate is within ``a`` *relative* error
  of the exact rank value — the DDSketch bound;
* **mergeable**: two sketches with the same accuracy merge by adding
  bucket counts.  Merge is associative and commutative, so the label
  sets of one histogram family roll up into exact-as-if-pooled
  quantiles in any order (``/slo`` reads its ``all`` row this way, with
  :func:`repro.obs.registry.merged_summary`);
* **bounded**: at most ``max_bins`` positive buckets are kept; on
  overflow the *lowest* buckets collapse into one (high quantiles — the
  ones that matter for tail latency — keep their guarantee).

Zero, negative, and sub-``MIN_POSITIVE`` values are tracked in a zero
bucket / mirrored negative store, so the sketch accepts any real series
(knowledge sizes, durations, deltas).  All mutating and reading entry
points hold an internal lock; sketches may be observed from handler
threads and merged from a scatter-gather executor concurrently.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Values with magnitude below this collapse into the zero bucket.
MIN_POSITIVE = 1e-9

#: Default relative accuracy: p99 reported within 1% of the true p99.
DEFAULT_ACCURACY = 0.01

#: Default bound on the positive (and, separately, negative) bucket maps.
#: At 1% accuracy one bucket spans a factor of ~1.0202, so 4096 buckets
#: cover > 35 orders of magnitude before any collapsing happens.
DEFAULT_MAX_BINS = 4096

#: The quantiles rendered by :meth:`QuantileSketch.summary`.
SUMMARY_QUANTILES = (0.5, 0.9, 0.95, 0.99)


class QuantileSketch:
    """A mergeable log-bucketed quantile sketch with a relative-error bound.

    >>> s = QuantileSketch()
    >>> for v in (1.0, 2.0, 3.0, 4.0, 100.0):
    ...     s.observe(v)
    >>> s.count
    5
    >>> abs(s.quantile(0.5) - 3.0) <= 0.01 * 3.0
    True
    """

    __slots__ = (
        "relative_accuracy",
        "max_bins",
        "_gamma",
        "_log_gamma",
        "count",
        "sum",
        "min",
        "max",
        "_zeros",
        "_buckets",
        "_negative",
        "collapsed",
        "_lock",
    )

    def __init__(
        self,
        relative_accuracy: float = DEFAULT_ACCURACY,
        max_bins: int = DEFAULT_MAX_BINS,
    ):
        if not 0.0 < relative_accuracy < 1.0:
            raise ValueError(
                f"relative_accuracy must be in (0, 1), got {relative_accuracy!r}"
            )
        if max_bins < 2:
            raise ValueError("max_bins must be at least 2")
        self.relative_accuracy = float(relative_accuracy)
        self.max_bins = int(max_bins)
        self._gamma = (1.0 + relative_accuracy) / (1.0 - relative_accuracy)
        self._log_gamma = math.log(self._gamma)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._zeros = 0
        #: bucket index -> count, for values > MIN_POSITIVE
        self._buckets: Dict[int, int] = {}
        #: bucket index -> count, for values < -MIN_POSITIVE (keyed by |v|)
        self._negative: Dict[int, int] = {}
        #: True once low buckets were ever collapsed (low quantiles may
        #: then exceed the relative-error bound; high ones never do).
        self.collapsed = False
        self._lock = threading.Lock()

    # -- feeding ----------------------------------------------------------------

    def _index(self, magnitude: float) -> int:
        return int(math.ceil(math.log(magnitude) / self._log_gamma))

    def observe(self, value: float, count: int = 1) -> None:
        """Fold ``count`` occurrences of ``value`` into the sketch."""
        if count <= 0:
            return
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"cannot observe non-finite value {value!r}")
        with self._lock:
            self.count += count
            self.sum += value * count
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            if value > MIN_POSITIVE:
                store = self._buckets
                index = self._index(value)
            elif value < -MIN_POSITIVE:
                store = self._negative
                index = self._index(-value)
            else:
                self._zeros += count
                return
            store[index] = store.get(index, 0) + count
            if len(store) > self.max_bins:
                self._collapse(store)

    def _collapse(self, store: Dict[int, int]) -> None:
        """Fold the lowest buckets together until the bound holds.

        Collapsing moves counts *up* into the lowest retained bucket, so
        estimates for the collapsed values are overestimates bounded by
        that bucket's upper edge — tail quantiles are unaffected.
        """
        ordered = sorted(store)
        while len(store) > self.max_bins:
            lowest, second = ordered[0], ordered[1]
            store[second] += store.pop(lowest)
            ordered.pop(0)
        self.collapsed = True

    # -- merging ----------------------------------------------------------------

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold ``other`` into this sketch in place; returns self.

        Associative and commutative: merging sketches in any order
        yields the same buckets as observing the pooled stream.
        Both sketches must share the same ``relative_accuracy``.
        """
        if other is self:
            raise ValueError("cannot merge a sketch into itself")
        if abs(other.relative_accuracy - self.relative_accuracy) > 1e-12:
            raise ValueError(
                f"cannot merge sketches with different accuracies "
                f"({self.relative_accuracy} vs {other.relative_accuracy})"
            )
        with other._lock:
            other_state = (
                other.count,
                other.sum,
                other.min,
                other.max,
                other._zeros,
                dict(other._buckets),
                dict(other._negative),
                other.collapsed,
            )
        count, total, omin, omax, zeros, buckets, negative, collapsed = other_state
        with self._lock:
            self.count += count
            self.sum += total
            if omin is not None and (self.min is None or omin < self.min):
                self.min = omin
            if omax is not None and (self.max is None or omax > self.max):
                self.max = omax
            self._zeros += zeros
            for index, n in buckets.items():
                self._buckets[index] = self._buckets.get(index, 0) + n
            for index, n in negative.items():
                self._negative[index] = self._negative.get(index, 0) + n
            self.collapsed = self.collapsed or collapsed
            if len(self._buckets) > self.max_bins:
                self._collapse(self._buckets)
            if len(self._negative) > self.max_bins:
                self._collapse(self._negative)
        return self

    @classmethod
    def merged(cls, sketches: Iterable["QuantileSketch"]) -> "QuantileSketch":
        """A fresh sketch holding the union of ``sketches`` (inputs untouched)."""
        result: Optional[QuantileSketch] = None
        for sketch in sketches:
            if result is None:
                result = cls(sketch.relative_accuracy, sketch.max_bins)
            result.merge(sketch)
        return result if result is not None else cls()

    # -- reading ----------------------------------------------------------------

    def quantile(self, q: float) -> Optional[float]:
        """The value at quantile ``q`` (lower empirical quantile).

        Targets rank ``ceil(q * count) - 1`` of the sorted stream — the
        same convention the tests' sorted-array ground truth uses — and
        returns an estimate within ``relative_accuracy`` of that rank's
        true value (unless low buckets were collapsed away under it).
        ``None`` on an empty sketch.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        with self._lock:
            if self.count == 0:
                return None
            rank = max(0, math.ceil(q * self.count) - 1)
            estimate = self._value_at_rank(rank)
            # min/max are exact; clamping never hurts the bound and makes
            # q=0 / q=1 (and single-observation sketches) exact
            assert self.min is not None and self.max is not None
            return min(max(estimate, self.min), self.max)

    def _value_at_rank(self, rank: int) -> float:
        """Walk negatives (most negative first), zeros, then positives."""
        seen = 0
        for index in sorted(self._negative, reverse=True):
            seen += self._negative[index]
            if rank < seen:
                return -self._estimate(index)
        seen += self._zeros
        if rank < seen:
            return 0.0
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if rank < seen:
                return self._estimate(index)
        # numerically unreachable; defensively report the largest bucket
        return self._estimate(max(self._buckets)) if self._buckets else 0.0

    def _estimate(self, index: int) -> float:
        return 2.0 * self._gamma ** index / (self._gamma + 1.0)

    def quantiles(self, qs: Sequence[float]) -> List[Optional[float]]:
        return [self.quantile(q) for q in qs]

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def summary(self) -> Dict[str, object]:
        """JSON-ready headline: count/sum/min/max plus standard quantiles."""
        document: Dict[str, object] = {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "relative_accuracy": self.relative_accuracy,
        }
        for q in SUMMARY_QUANTILES:
            document[f"p{int(q * 100)}"] = self.quantile(q)
        return document

    # -- serialization ----------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready full state; round-trips through :meth:`from_dict`."""
        with self._lock:
            return {
                "relative_accuracy": self.relative_accuracy,
                "max_bins": self.max_bins,
                "count": self.count,
                "sum": self.sum,
                "min": self.min,
                "max": self.max,
                "zeros": self._zeros,
                "buckets": {str(i): n for i, n in sorted(self._buckets.items())},
                "negative_buckets": {
                    str(i): n for i, n in sorted(self._negative.items())
                },
                "collapsed": self.collapsed,
            }

    @classmethod
    def from_dict(cls, document: Dict[str, object]) -> "QuantileSketch":
        sketch = cls(
            float(document["relative_accuracy"]),  # type: ignore[arg-type]
            int(document.get("max_bins", DEFAULT_MAX_BINS)),  # type: ignore[arg-type]
        )
        sketch.count = int(document["count"])  # type: ignore[arg-type]
        sketch.sum = float(document["sum"])  # type: ignore[arg-type]
        sketch.min = None if document["min"] is None else float(document["min"])  # type: ignore[arg-type]
        sketch.max = None if document["max"] is None else float(document["max"])  # type: ignore[arg-type]
        sketch._zeros = int(document.get("zeros", 0))  # type: ignore[arg-type]
        sketch._buckets = {
            int(i): int(n) for i, n in (document.get("buckets") or {}).items()  # type: ignore[union-attr]
        }
        sketch._negative = {
            int(i): int(n)
            for i, n in (document.get("negative_buckets") or {}).items()  # type: ignore[union-attr]
        }
        sketch.collapsed = bool(document.get("collapsed", False))
        return sketch

    def __len__(self) -> int:
        with self._lock:
            return len(self._buckets) + len(self._negative) + (1 if self._zeros else 0)

    def __repr__(self) -> str:
        p50, p99 = self.quantile(0.5), self.quantile(0.99)
        rendered = (
            "empty"
            if p50 is None
            else f"count={self.count}, p50={p50:.6g}, p99={p99:.6g}"
        )
        return f"QuantileSketch({rendered}, accuracy={self.relative_accuracy})"


__all__ = [
    "DEFAULT_ACCURACY",
    "DEFAULT_MAX_BINS",
    "MIN_POSITIVE",
    "QuantileSketch",
    "SUMMARY_QUANTILES",
]
