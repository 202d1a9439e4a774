"""Regression pins for the ``__hash__``/``__eq__`` invariants interning
relies on.

``repro.perf.intern`` collapses equal terms to one canonical instance;
that is sound only while

* ``Cond`` compares (and hashes) by *denotation* — syntactically
  different conditions with one value set are interchangeable;
* ``Atom``/``Disjunction`` compare structurally, order-normalized;
* ``ConditionalTreeType`` equality matches its ``cache_key()``;
* ``normalized()`` is idempotent (a normalized type is its own normal
  form, so memo tables may cache it under its own key).

If any of these drift, interning silently changes semantics — these
tests are the tripwire.
"""

from __future__ import annotations

import pytest

import repro.perf as perf
from repro.core.conditions import Cond
from repro.core.multiplicity import Atom, Disjunction, Mult
from repro.incomplete.conditional import ConditionalTreeType
from repro.perf.intern import InternPool


def _example_type() -> ConditionalTreeType:
    return ConditionalTreeType(
        roots=["r"],
        mu={
            "r": Disjunction.single(Atom.of(a="*", b="?")),
            "a": Disjunction.leaf(),
            "b": Disjunction.leaf(),
        },
        cond={"r": Cond.eq(0), "a": Cond.ne(0)},
        sigma={"r": "r", "a": "a", "b": "b"},
    )


class TestCondDenotationHashing:
    #: pairs of syntactically distinct, denotationally equal conditions
    EQUAL_PAIRS = [
        (Cond.eq(5) & Cond.ge(2), Cond.eq(5)),
        (Cond.true() & Cond.lt(3), Cond.lt(3)),
        (Cond.eq(5) & Cond.ne(0), Cond.eq(5)),
        # note strings: numeric comparisons reject them, so the union of
        # < and >= is NOT true(); != keeps strings, making this one total
        (Cond.ne(5) | Cond.eq(5), Cond.true()),
        (Cond.le(4) & Cond.ge(4), Cond.eq(4)),
        ((Cond.eq(1) | Cond.eq(2)) & Cond.ne(2), Cond.eq(1)),
    ]

    @pytest.mark.parametrize("left, right", EQUAL_PAIRS)
    def test_equal_denotation_equal_hash(self, left, right):
        assert left == right
        assert hash(left) == hash(right)

    @pytest.mark.parametrize("left, right", EQUAL_PAIRS)
    def test_interning_collapses_to_one_instance(self, left, right):
        pool = InternPool()
        assert pool.cond(left) is pool.cond(right)

    def test_distinct_denotations_stay_distinct(self):
        pool = InternPool()
        a, b = Cond.eq(5), Cond.eq(6)
        assert a != b
        assert pool.cond(a) is not pool.cond(b)


class TestAtomDisjunctionHashing:
    def test_atom_entry_order_irrelevant(self):
        a = Atom([("x", Mult.ONE), ("y", Mult.STAR)])
        b = Atom([("y", Mult.STAR), ("x", Mult.ONE)])
        assert a == b
        assert hash(a) == hash(b)
        pool = InternPool()
        assert pool.atom(a) is pool.atom(b)

    def test_disjunction_atom_multiset(self):
        a1 = Atom([("x", Mult.ONE)])
        a2 = Atom([("y", Mult.PLUS)])
        d1 = Disjunction([a1, a2])
        d2 = Disjunction([Atom([("x", Mult.ONE)]), Atom([("y", Mult.PLUS)])])
        assert d1 == d2
        assert hash(d1) == hash(d2)
        pool = InternPool()
        assert pool.disjunction(d1) is pool.disjunction(d2)

    def test_unequal_atoms_unequal(self):
        assert Atom([("x", Mult.ONE)]) != Atom([("x", Mult.STAR)])
        assert Atom([("x", Mult.ONE)]) != Atom([("y", Mult.ONE)])


class TestConditionalTreeTypeKeys:
    def test_equal_types_equal_key(self):
        t1, t2 = _example_type(), _example_type()
        assert t1 is not t2
        assert t1 == t2
        assert t1.cache_key() == t2.cache_key()
        assert hash(t1.cache_key()) == hash(t2.cache_key())

    def test_cond_syntactic_variants_share_key(self):
        """cache_key components use denotation-hashed conds, so a type
        built with ``=5 ∧ ≥2`` keys identically to one with ``=5``."""
        base = _example_type()
        variant = ConditionalTreeType(
            roots=["r"],
            mu={
                "r": Disjunction.single(Atom.of(a="*", b="?")),
                "a": Disjunction.leaf(),
                "b": Disjunction.leaf(),
            },
            cond={"r": Cond.eq(0) & Cond.le(0), "a": Cond.ne(0)},
            sigma={"r": "r", "a": "a", "b": "b"},
        )
        assert base == variant
        assert base.cache_key() == variant.cache_key()

    def test_normalized_idempotent(self):
        tau = _example_type()
        once = tau.normalized()
        assert once.normalized() == once
        # and under caching too (the memoized path must agree)
        perf.clear_caches()
        with perf.cached():
            once_cached = tau.normalized()
            assert once_cached.normalized() == once_cached
            assert once_cached == once
        perf.clear_caches()

    def test_normalized_idempotent_after_denormalization(self):
        """A type with an unproductive symbol normalizes to a fixpoint."""
        tau = ConditionalTreeType(
            roots=["r"],
            mu={
                "r": Disjunction.single(Atom.of(a="*")),
                "a": Disjunction.leaf(),
                # never satisfiable: requires itself
                "loop": Disjunction.single(Atom.of(loop="1")),
            },
            cond={},
            sigma={"r": "r", "a": "a", "loop": "loop"},
        )
        once = tau.normalized()
        assert "loop" not in once.symbols()
        assert once.normalized() == once
