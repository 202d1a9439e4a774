"""Interval algebra tests, including hypothesis properties.

The key guarantee: canonical form makes structural equality coincide
with set equality, and the Boolean algebra is exact.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.intervals import Interval, IntervalSet, point


def F(x, y=1) -> Fraction:
    return Fraction(x, y)


class TestInterval:
    def test_point_contains_only_itself(self):
        p = point(F(3))
        assert p.contains(F(3))
        assert not p.contains(F(2))
        assert p.is_point()

    def test_open_interval_excludes_endpoints(self):
        iv = Interval(F(0), F(1), False, False)
        assert not iv.contains(F(0))
        assert not iv.contains(F(1))
        assert iv.contains(F(1, 2))

    def test_unbounded_sides(self):
        below = Interval(None, F(5), False, True)
        assert below.contains(F(-1000))
        assert below.contains(F(5))
        assert not below.contains(F(6))

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            Interval(F(2), F(1), True, True)
        with pytest.raises(ValueError):
            Interval(F(1), F(1), True, False)

    def test_sample_inside(self):
        for iv in [
            Interval(None, None, False, False),
            Interval(F(0), None, False, False),
            Interval(None, F(0), False, False),
            Interval(F(0), F(1), False, False),
            point(F(9)),
        ]:
            assert iv.contains(iv.sample())


class TestComparisons:
    @pytest.mark.parametrize(
        "op,value,inside,outside",
        [
            ("=", 5, [5], [4, 6]),
            ("!=", 5, [4, 6], [5]),
            ("<", 5, [4], [5, 6]),
            ("<=", 5, [5, 4], [6]),
            (">", 5, [6], [5, 4]),
            (">=", 5, [5, 6], [4]),
        ],
    )
    def test_semantics(self, op, value, inside, outside):
        s = IntervalSet.comparison(op, F(value))
        for x in inside:
            assert s.contains(F(x))
        for x in outside:
            assert not s.contains(F(x))

    def test_unknown_operator(self):
        with pytest.raises(ValueError):
            IntervalSet.comparison("~", F(1))


class TestCanonicalForm:
    def test_adjacent_closed_intervals_merge(self):
        a = IntervalSet([Interval(F(0), F(1), True, True)])
        b = IntervalSet([Interval(F(1), F(2), True, True)])
        merged = a.union(b)
        assert merged == IntervalSet([Interval(F(0), F(2), True, True)])

    def test_touching_open_closed_merge(self):
        a = IntervalSet([Interval(F(0), F(1), True, False)])
        b = IntervalSet([Interval(F(1), F(2), True, True)])
        assert len(a.union(b).intervals) == 1

    def test_gap_of_one_point_stays_split(self):
        # (0,1) u (1,2): 1 is missing, intervals must not merge
        a = IntervalSet([Interval(F(0), F(1), False, False)])
        b = IntervalSet([Interval(F(1), F(2), False, False)])
        merged = a.union(b)
        assert len(merged.intervals) == 2
        assert not merged.contains(F(1))

    def test_ne_is_two_intervals(self):
        s = IntervalSet.comparison("!=", F(0))
        assert len(s.intervals) == 2

    def test_complement_roundtrip(self):
        s = IntervalSet.comparison("<", F(3)).union(IntervalSet.singleton(F(7)))
        assert s.complement().complement() == s

    def test_all_and_empty(self):
        assert IntervalSet.all().complement() == IntervalSet.empty()
        assert IntervalSet.empty().complement() == IntervalSet.all()


# -- hypothesis properties ----------------------------------------------------

fractions = st.fractions(
    min_value=-20, max_value=20, max_denominator=8
)

atoms = st.tuples(
    st.sampled_from(["=", "!=", "<", "<=", ">", ">="]), fractions
)


def build(ops) -> IntervalSet:
    s = IntervalSet.empty()
    for op, v in ops:
        s = s.union(IntervalSet.comparison(op, v))
    return s


@given(st.lists(atoms, max_size=4), st.lists(atoms, max_size=4), fractions)
@settings(max_examples=200, deadline=None)
def test_union_semantics(left, right, probe):
    ls, rs = build(left), build(right)
    assert ls.union(rs).contains(probe) == (ls.contains(probe) or rs.contains(probe))


@given(st.lists(atoms, max_size=4), st.lists(atoms, max_size=4), fractions)
@settings(max_examples=200, deadline=None)
def test_intersection_semantics(left, right, probe):
    ls, rs = build(left), build(right)
    assert ls.intersect(rs).contains(probe) == (
        ls.contains(probe) and rs.contains(probe)
    )


@given(st.lists(atoms, max_size=4), fractions)
@settings(max_examples=200, deadline=None)
def test_complement_semantics(ops, probe):
    s = build(ops)
    assert s.complement().contains(probe) == (not s.contains(probe))


@given(st.lists(atoms, max_size=4))
@settings(max_examples=200, deadline=None)
def test_samples_are_members(ops):
    s = build(ops)
    if not s.is_empty():
        for sample in s.samples(4):
            assert s.contains(sample)


@given(st.lists(atoms, max_size=4), st.lists(atoms, max_size=4))
@settings(max_examples=200, deadline=None)
def test_implies_is_subset(left, right):
    ls, rs = build(left), build(right)
    if ls.implies(rs):
        # every sampled member of ls is in rs
        for sample in ls.samples(6):
            assert rs.contains(sample)
    else:
        witness = ls.difference(rs)
        assert not witness.is_empty()
        assert ls.contains(witness.sample())
        assert not rs.contains(witness.sample())


# -- near-linear normal form (Lemma 2.3) ----------------------------------------


def _counting(monkeypatch, name: str) -> list:
    """Count calls of ``repro.core.intervals.<name>``."""
    import repro.core.intervals as intervals

    calls = []
    original = getattr(intervals, name)

    def counted(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(intervals, name, counted)
    return calls


def test_wide_disjunction_normalizes_in_one_sweep(monkeypatch):
    """A 400-way disjunction is canonicalized once, not once per
    disjunct (which made n(n-1)/2 merge tests)."""
    from repro.core.parsing import parse_cond

    text = " | ".join(f"= {i}" for i in range(400))
    calls = _counting(monkeypatch, "_overlap_or_touch")
    cond = parse_cond(text)
    assert len(calls) < 800
    assert len(cond.values.numbers.intervals) == 400


def test_wide_conjunction_normalizes_in_one_sweep(monkeypatch):
    """A 400-way conjunction is canonicalized once, not intersected once
    per conjunct (which walked the accumulated set each time)."""
    from repro.core.parsing import parse_cond

    text = " & ".join(f"!= {i}" for i in range(400))
    merges = _counting(monkeypatch, "_overlap_or_touch")
    walks = _counting(monkeypatch, "_intersect")
    cond = parse_cond(text)
    assert len(merges) + len(walks) < 800
    assert len(cond.values.numbers.intervals) == 401
    assert not cond.accepts(7) and cond.accepts(400)


def test_implies_walks_both_lists_once(monkeypatch):
    evens = IntervalSet([point(F(2 * i)) for i in range(400)])
    odds = IntervalSet([point(F(2 * i + 1)) for i in range(400)])
    calls = _counting(monkeypatch, "_intersect")
    assert not evens.implies(odds)
    assert len(calls) < 1600
    calls.clear()
    assert evens.implies(evens)
    assert len(calls) < 1600
