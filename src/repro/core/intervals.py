"""Exact interval algebra over the rationals.

Lemma 2.3 of the paper states that every selection condition is
equivalent to a union of intervals that is linear in the size of the
condition.  This module is that lemma made executable: an
:class:`IntervalSet` is a canonical finite union of disjoint,
non-adjacent rational intervals with open/closed endpoints (and
``±infinity`` ends), closed under union, intersection and complement.

Canonical form guarantees that two interval sets describe the same set
of rationals iff they are equal as Python objects, which gives us exact
satisfiability, implication and equivalence tests for conditions.

A union of any number of sets is one sort and one merge sweep, an
intersection walks both sorted lists once, and a complement is the
gaps between consecutive intervals: near-linear, as the lemma allows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Tuple

# Endpoints are either a Fraction or None (None = the infinity on that side).
Endpoint = Optional[Fraction]


@dataclass(frozen=True)
class Interval:
    """A single rational interval.

    ``low is None`` means unbounded below (-inf); ``high is None`` means
    unbounded above (+inf).  ``low_closed``/``high_closed`` are ignored on
    an unbounded side.  The empty interval is not representable; construct
    only non-empty intervals (checked).
    """

    low: Endpoint
    high: Endpoint
    low_closed: bool
    high_closed: bool

    def __post_init__(self) -> None:
        if self.low is not None and self.high is not None:
            if self.low > self.high:
                raise ValueError(f"empty interval: {self}")
            if self.low == self.high and not (self.low_closed and self.high_closed):
                raise ValueError(f"empty interval: {self}")

    # -- queries -----------------------------------------------------------

    def contains(self, value: Fraction) -> bool:
        """Membership test for a rational value."""
        if self.low is not None:
            if value < self.low:
                return False
            if value == self.low and not self.low_closed:
                return False
        if self.high is not None:
            if value > self.high:
                return False
            if value == self.high and not self.high_closed:
                return False
        return True

    def is_point(self) -> bool:
        """True iff the interval is a single value ``[v, v]``."""
        return self.low is not None and self.low == self.high

    def sample(self) -> Fraction:
        """Some rational inside the interval (density of Q makes this easy)."""
        if self.low is None and self.high is None:
            return Fraction(0)
        if self.low is None:
            assert self.high is not None
            return self.high - 1 if not self.high_closed else self.high
        if self.high is None:
            return self.low + 1 if not self.low_closed else self.low
        if self.low_closed:
            return self.low
        if self.high_closed:
            return self.high
        return (self.low + self.high) / 2

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        lo = "(-inf" if self.low is None else ("[" if self.low_closed else "(") + str(self.low)
        hi = "+inf)" if self.high is None else str(self.high) + ("]" if self.high_closed else ")")
        return f"{lo}, {hi}"


def point(value: Fraction) -> Interval:
    """The singleton interval ``[value, value]``."""
    return Interval(value, value, True, True)


def _overlap_or_touch(a: Interval, b: Interval) -> bool:
    """True when ``a`` and ``b`` can be merged into one interval."""
    # Order so a starts first (None = -inf starts first).
    def starts_before(x: Interval, y: Interval) -> bool:
        if x.low is None:
            return True
        if y.low is None:
            return False
        if x.low != y.low:
            return x.low < y.low
        return x.low_closed and not y.low_closed

    first, second = (a, b) if starts_before(a, b) else (b, a)
    if first.high is None:
        return True
    if second.low is None:
        return True
    if first.high > second.low:
        return True
    if first.high == second.low:
        return first.high_closed or second.low_closed
    return False


def _merge(a: Interval, b: Interval) -> Interval:
    """Union of two overlapping-or-touching intervals."""
    if a.low is None or b.low is None:
        low, low_closed = None, False
    elif a.low < b.low:
        low, low_closed = a.low, a.low_closed
    elif b.low < a.low:
        low, low_closed = b.low, b.low_closed
    else:
        low, low_closed = a.low, a.low_closed or b.low_closed
    if a.high is None or b.high is None:
        high, high_closed = None, False
    elif a.high > b.high:
        high, high_closed = a.high, a.high_closed
    elif b.high > a.high:
        high, high_closed = b.high, b.high_closed
    else:
        high, high_closed = a.high, a.high_closed or b.high_closed
    return Interval(low, high, low_closed, high_closed)


def _intersect(a: Interval, b: Interval) -> Optional[Interval]:
    """Intersection of two intervals, or None when disjoint."""
    if a.low is None:
        low, low_closed = b.low, b.low_closed
    elif b.low is None:
        low, low_closed = a.low, a.low_closed
    elif a.low > b.low:
        low, low_closed = a.low, a.low_closed
    elif b.low > a.low:
        low, low_closed = b.low, b.low_closed
    else:
        low, low_closed = a.low, a.low_closed and b.low_closed
    if a.high is None:
        high, high_closed = b.high, b.high_closed
    elif b.high is None:
        high, high_closed = a.high, a.high_closed
    elif a.high < b.high:
        high, high_closed = a.high, a.high_closed
    elif b.high < a.high:
        high, high_closed = b.high, b.high_closed
    else:
        high, high_closed = a.high, a.high_closed and b.high_closed
    if low is not None and high is not None:
        if low > high:
            return None
        if low == high and not (low_closed and high_closed):
            return None
    return Interval(low, high, low_closed, high_closed)


class IntervalSet:
    """A canonical finite union of disjoint rational intervals.

    Immutable.  Equality is structural and, thanks to canonicalization,
    coincides with set equality over Q.
    """

    __slots__ = ("_intervals",)

    def __init__(self, intervals: Iterable[Interval] = ()):
        self._intervals: Tuple[Interval, ...] = _canonicalize(list(intervals))

    # -- constructors --------------------------------------------------------

    @staticmethod
    def empty() -> "IntervalSet":
        """The empty set of rationals."""
        return _EMPTY

    @staticmethod
    def all() -> "IntervalSet":
        """All of Q."""
        return _ALL

    @staticmethod
    def singleton(value: Fraction) -> "IntervalSet":
        """The set ``{value}``."""
        return IntervalSet([point(value)])

    @staticmethod
    def comparison(op: str, value: Fraction) -> "IntervalSet":
        """The rationals satisfying ``x <op> value``.

        ``op`` is one of ``= != < <= > >=``.
        """
        if op == "=":
            return IntervalSet.singleton(value)
        if op == "!=":
            return IntervalSet(
                [Interval(None, value, False, False), Interval(value, None, False, False)]
            )
        if op == "<":
            return IntervalSet([Interval(None, value, False, False)])
        if op == "<=":
            return IntervalSet([Interval(None, value, False, True)])
        if op == ">":
            return IntervalSet([Interval(value, None, False, False)])
        if op == ">=":
            return IntervalSet([Interval(value, None, True, False)])
        raise ValueError(f"unknown comparison operator: {op!r}")

    # -- queries --------------------------------------------------------------

    @property
    def intervals(self) -> Tuple[Interval, ...]:
        """The canonical, sorted, disjoint intervals."""
        return self._intervals

    def is_empty(self) -> bool:
        return not self._intervals

    def is_all(self) -> bool:
        if len(self._intervals) != 1:
            return False
        only = self._intervals[0]
        return only.low is None and only.high is None

    def contains(self, value: Fraction) -> bool:
        return any(iv.contains(value) for iv in self._intervals)

    def is_singleton(self) -> Optional[Fraction]:
        """The unique member when this set is a single point, else None."""
        if len(self._intervals) == 1 and self._intervals[0].is_point():
            return self._intervals[0].low
        return None

    def sample(self) -> Fraction:
        """Some member; raises ValueError on the empty set."""
        if not self._intervals:
            raise ValueError("cannot sample from the empty interval set")
        return self._intervals[0].sample()

    def samples(self, limit: int = 4) -> Iterator[Fraction]:
        """Up to ``limit`` distinct members, spread across the intervals.

        Used by the enumeration oracle to pick representative data values
        (one value per interval of the decomposition suffices, per the
        proof of Lemma 2.3).
        """
        produced = 0
        for iv in self._intervals:
            if produced >= limit:
                return
            yield iv.sample()
            produced += 1
            # for wide intervals also yield a second witness
            if produced < limit and not iv.is_point():
                second = _second_sample(iv)
                if second is not None:
                    yield second
                    produced += 1

    # -- algebra ---------------------------------------------------------------

    @staticmethod
    def union_of(sets: Iterable["IntervalSet"]) -> "IntervalSet":
        """The union of any number of sets, canonicalized once."""
        return IntervalSet(iv for member in sets for iv in member._intervals)

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet(list(self._intervals) + list(other._intervals))

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        """One walk: the interval that ends first meets nothing later in
        the other list.  The pieces come out canonical."""
        left, right = self._intervals, other._intervals
        pieces = []
        i = j = 0
        while i < len(left) and j < len(right):
            a, b = left[i], right[j]
            piece = _intersect(a, b)
            if piece is not None:
                pieces.append(piece)
            if _ends_first(a, b):
                i += 1
            else:
                j += 1
        return _canonical(tuple(pieces))

    def complement(self) -> "IntervalSet":
        """The gaps around the intervals (each non-empty, by canonicity)."""
        gaps = []
        low: Endpoint = None
        low_closed = False
        for iv in self._intervals:
            if iv.low is not None:
                gaps.append(Interval(low, iv.low, low_closed, not iv.low_closed))
            low, low_closed = iv.high, not iv.high_closed
        if low is not None or not self._intervals:
            gaps.append(Interval(low, None, low_closed, False))
        return _canonical(tuple(gaps))

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        return self.intersect(other.complement())

    def implies(self, other: "IntervalSet") -> bool:
        """Subset test: every member of self is in other."""
        return self.difference(other).is_empty()

    # -- dunder ---------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._intervals == other._intervals

    def __hash__(self) -> int:
        return hash(self._intervals)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self._intervals:
            return "IntervalSet(empty)"
        return "IntervalSet(" + " u ".join(repr(iv) for iv in self._intervals) + ")"


def _second_sample(iv: Interval) -> Optional[Fraction]:
    """A second distinct witness inside a non-point interval, if easy."""
    first = iv.sample()
    if iv.high is None:
        return first + 1
    if iv.low is None:
        return first - 1
    candidate = (first + iv.high) / 2
    if candidate != first and iv.contains(candidate):
        return candidate
    return None


def _ends_first(a: Interval, b: Interval) -> bool:
    """Does ``a`` end no later than ``b`` (None = +inf)?"""
    if a.high is None:
        return b.high is None
    if b.high is None or a.high < b.high:
        return True
    return a.high == b.high and (b.high_closed or not a.high_closed)


def _canonical(intervals: Tuple[Interval, ...]) -> IntervalSet:
    """Wrap intervals already in canonical form, skipping the sweep."""
    result = IntervalSet.__new__(IntervalSet)
    result._intervals = intervals
    return result


def _sort_key(iv: Interval):
    low = iv.low
    # -inf first; at the same low value, closed endpoint starts earlier
    return (
        0 if low is None else 1,
        low if low is not None else Fraction(0),
        0 if iv.low_closed else 1,
    )


def _canonicalize(intervals: list) -> Tuple[Interval, ...]:
    if not intervals:
        return ()
    intervals.sort(key=_sort_key)
    merged = [intervals[0]]
    for iv in intervals[1:]:
        if _overlap_or_touch(merged[-1], iv):
            merged[-1] = _merge(merged[-1], iv)
        else:
            merged.append(iv)
    return tuple(merged)


_EMPTY = _canonical(())
_ALL = _canonical((Interval(None, None, False, False),))
