"""Condition algebra tests — Lemma 2.3 made executable.

The central property: the eager ValueSet normalization agrees with
direct recursive evaluation of the Boolean combination on any probe
value.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.conditions import Cond, ValueSet, interval_partition


class TestAtoms:
    def test_numeric_equality(self):
        c = Cond.eq(5)
        assert c.accepts(5)
        assert not c.accepts(4)
        assert not c.accepts("5")

    def test_string_equality(self):
        c = Cond.eq("elec")
        assert c.accepts("elec")
        assert not c.accepts("tv")
        assert not c.accepts(0)

    def test_string_inequality_accepts_numbers(self):
        c = Cond.ne("elec")
        assert c.accepts(0)
        assert c.accepts("tv")
        assert not c.accepts("elec")

    def test_numeric_inequality_accepts_strings(self):
        # a string never equals a number, so "!= 5" holds for strings
        assert Cond.ne(5).accepts("x")

    def test_order_on_string_constant_is_unsatisfiable(self):
        assert not Cond.lt("abc").satisfiable()

    def test_order_comparison_rejects_strings(self):
        assert not Cond.lt(10).accepts("small")

    def test_unknown_operator(self):
        with pytest.raises(ValueError):
            Cond.atom("~=", 3)


class TestBooleanStructure:
    def test_conjunction(self):
        c = Cond.ge(0) & Cond.lt(10)
        assert c.accepts(0) and c.accepts(9)
        assert not c.accepts(-1) and not c.accepts(10)

    def test_disjunction(self):
        c = Cond.eq("a") | Cond.eq(1)
        assert c.accepts("a") and c.accepts(1)
        assert not c.accepts("b")

    def test_negation(self):
        c = ~Cond.lt(0)
        assert c.accepts(0)
        assert c.accepts("anything")
        assert not c.accepts(-1)

    def test_true_false(self):
        assert Cond.true().accepts(42) and Cond.true().accepts("x")
        assert not Cond.false().satisfiable()

    def test_one_of(self):
        c = Cond.one_of(1, 2, "x")
        assert c.accepts(2) and c.accepts("x") and not c.accepts(3)


class TestSemanticOperations:
    def test_satisfiability(self):
        assert not (Cond.lt(0) & Cond.gt(0)).satisfiable()
        assert (Cond.le(0) & Cond.ge(0)).satisfiable()

    def test_equivalence(self):
        assert (Cond.le(5) & Cond.ge(5)).equivalent(Cond.eq(5))
        assert (Cond.ne(5) | Cond.eq(5)).equivalent(Cond.true())
        # numbers only: < 5 or >= 5 misses the string sort
        assert not (Cond.lt(5) | Cond.ge(5)).equivalent(Cond.true())

    def test_implication(self):
        assert Cond.eq(3).implies(Cond.lt(5))
        assert not Cond.lt(5).implies(Cond.eq(3))

    def test_forced_value(self):
        assert Cond.eq(7).forced_value() == Fraction(7)
        assert Cond.eq("a").forced_value() == "a"
        assert (Cond.ge(3) & Cond.le(3)).forced_value() == Fraction(3)
        assert Cond.lt(5).forced_value() is None
        # = 7 or = "a" pins nothing single
        assert (Cond.eq(7) | Cond.eq("a")).forced_value() is None

    def test_sample_satisfies(self):
        for c in [Cond.lt(0), Cond.eq("z"), Cond.ne(0) & Cond.ne("a"), Cond.gt(100)]:
            assert c.accepts(c.sample())

    def test_eq_hash_by_denotation(self):
        a = Cond.lt(5) | Cond.eq(5)
        b = Cond.le(5)
        assert a == b
        assert hash(a) == hash(b)


class TestIntervalPartition:
    def test_cells_are_disjoint_and_cover(self):
        conds = (Cond.lt(10), Cond.ge(5), Cond.eq("a"))
        cells = interval_partition(conds)
        # every condition constant on each cell
        for cell in cells:
            for cond in conds:
                inside = cell.intersect(cond.values)
                assert inside.is_empty() or inside == cell
        # cells are pairwise disjoint
        for i, a in enumerate(cells):
            for b in cells[i + 1 :]:
                assert a.intersect(b).is_empty()

    def test_partition_size_linear(self):
        conds = tuple(Cond.lt(i) for i in range(8))
        assert len(interval_partition(conds)) <= 2 * len(conds) + 2


# -- hypothesis: normalization agrees with direct evaluation ------------------

values = st.one_of(
    st.integers(min_value=-10, max_value=10).map(Fraction),
    st.sampled_from(["a", "b", "elec"]),
)

_ATOM = st.tuples(st.just("atom"), st.sampled_from(["=", "!=", "<", "<=", ">", ">="]), values)


def cond_trees(depth=3):
    if depth == 0:
        return _ATOM
    sub = cond_trees(depth - 1)
    return st.one_of(
        _ATOM,
        st.tuples(st.just("and"), sub, sub),
        st.tuples(st.just("or"), sub, sub),
        st.tuples(st.just("not"), sub),
    )


def build_cond(tree) -> Cond:
    tag = tree[0]
    if tag == "atom":
        _t, op, v = tree
        return Cond.atom(op, v)
    if tag == "and":
        return build_cond(tree[1]) & build_cond(tree[2])
    if tag == "or":
        return build_cond(tree[1]) | build_cond(tree[2])
    return ~build_cond(tree[1])


def eval_direct(tree, value) -> bool:
    tag = tree[0]
    if tag == "atom":
        _t, op, constant = tree
        same_sort = isinstance(value, str) == isinstance(constant, str)
        if op == "=":
            return same_sort and value == constant
        if op == "!=":
            return not (same_sort and value == constant)
        if not same_sort or isinstance(constant, str):
            return False
        return {
            "<": value < constant,
            "<=": value <= constant,
            ">": value > constant,
            ">=": value >= constant,
        }[op]
    if tag == "and":
        return eval_direct(tree[1], value) and eval_direct(tree[2], value)
    if tag == "or":
        return eval_direct(tree[1], value) or eval_direct(tree[2], value)
    return not eval_direct(tree[1], value)


@given(cond_trees(), values)
@settings(max_examples=400, deadline=None)
def test_normalization_matches_direct_evaluation(tree, probe):
    assert build_cond(tree).accepts(probe) == eval_direct(tree, probe)


@given(cond_trees())
@settings(max_examples=200, deadline=None)
def test_sample_is_always_a_model(tree):
    cond = build_cond(tree)
    if cond.satisfiable():
        assert eval_direct(tree, cond.sample())


@given(st.lists(cond_trees(depth=1), min_size=1, max_size=6))
@settings(max_examples=300, deadline=None)
def test_any_of_is_the_left_fold(trees):
    """One-pass disjunction keeps the pairwise fold's denotation and text."""
    conds = [build_cond(tree) for tree in trees]
    fold = conds[0]
    for cond in conds[1:]:
        fold = fold | cond
    fast = Cond.any_of(conds)
    assert fast.values == fold.values
    assert repr(fast) == repr(fold)
    assert repr(~fast) == repr(~fold)


def test_any_of_shows_true_and_false_prefixes_as_the_fold_does():
    for conds in (
        [Cond.false(), Cond.false(), Cond.eq(1)],
        [Cond.lt(0), Cond.ge(0), Cond.eq(1)],
        [Cond.lt(0), Cond.ge(0)],
        [Cond.false(), Cond.false()],
        [Cond.eq(1), Cond.ne(1), Cond.false()],
    ):
        fold = conds[0]
        for cond in conds[1:]:
            fold = fold | cond
        assert repr(~Cond.any_of(conds)) == repr(~fold)


@given(st.lists(cond_trees(depth=1), min_size=1, max_size=6))
@settings(max_examples=300, deadline=None)
def test_all_of_is_the_left_fold(trees):
    """One-pass conjunction keeps the pairwise fold's denotation and text."""
    conds = [build_cond(tree) for tree in trees]
    fold = conds[0]
    for cond in conds[1:]:
        fold = fold & cond
    fast = Cond.all_of(conds)
    assert fast.values == fold.values
    assert repr(fast) == repr(fold)
    assert repr(~fast) == repr(~fold)


def test_all_of_shows_true_and_false_prefixes_as_the_fold_does():
    for conds in (
        [Cond.true(), Cond.true(), Cond.eq(1)],
        [Cond.lt(0), Cond.ge(0), Cond.eq(1)],
        [Cond.lt(0), Cond.ge(0)],
        [Cond.true(), Cond.true()],
        [Cond.true(), Cond.false(), Cond.ne(1)],
        [Cond.ne(1), Cond.eq(1), Cond.true()],
    ):
        fold = conds[0]
        for cond in conds[1:]:
            fold = fold & cond
        assert repr(~Cond.all_of(conds)) == repr(~fold)
