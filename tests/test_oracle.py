"""Differential suite: brute-force oracle vs the library, cached vs not.

Two layers:

* fast smoke tests (unmarked) — curated instances, run on every
  ``pytest`` invocation;
* the full randomized sweep (``@pytest.mark.oracle``, deselected by the
  default ``-m "not oracle"`` addopts) — scaled by the
  ``REPRO_ORACLE_INSTANCES`` environment variable (CI runs 200).

All checks are *one-sided* where the oracle's enumeration is bounded:
the oracle may miss witnesses beyond its budget but never invents them,
so an oracle witness forces the library's "possible" and a library
"certain" forces every enumerated tree (see tests/test_certainty.py for
the original statement of this methodology).  Cache-on vs cache-off runs
must agree *exactly* (up to ``incomplete_equivalent``) — no bounds.
"""

from __future__ import annotations

import os
import random

import pytest

import repro.perf as perf
from tests.oracle import (
    oracle_answer_set,
    oracle_canonical,
    oracle_certain_prefix,
    oracle_embeds,
    oracle_evaluate,
    oracle_member,
    oracle_possible_prefix,
    oracle_rep_equal,
    oracle_trees,
)
from repro.core.conditions import Cond
from repro.core.matching import feasible_assignment, max_bipartite_matching
from repro.core.query import PSQuery, pattern, subtree
from repro.core.treetype import TreeType
from repro.incomplete.certainty import (
    certain_prefix,
    incomplete_equivalent,
    possible_prefix,
)
from repro.incomplete.enumerate import enumerate_trees
from repro.mediator.webhouse import Webhouse
from repro.answering.query_incomplete import query_incomplete
from repro.refine.minimize import merge_equivalent_symbols
from repro.refine.refine import refine_sequence
from repro.refine.type_intersect import intersect_with_tree_type
from repro.workloads.generators import random_history, random_ps_query, random_tree

#: Full-sweep size; CI exports REPRO_ORACLE_INSTANCES=200.
FULL_INSTANCES = int(os.environ.get("REPRO_ORACLE_INSTANCES", "40"))
#: Smoke-sweep size (runs in the default, oracle-deselected profile).
SMOKE_INSTANCES = 6

#: Small source types for randomized instances (kept tiny: the oracle
#: enumerates rep(T) exhaustively).
SOURCE_TYPES = [
    TreeType.parse(
        """
        root: r
        r -> a* b?
        a -> c*
        """
    ),
    TreeType.parse(
        """
        root: r
        r -> a+ d?
        a -> b? c*
        """
    ),
    TreeType.parse(
        """
        root: catalog
        catalog -> product*
        product -> name price?
        """
    ),
]


def _instance(seed: int):
    """A random (tree type, document, history, incomplete tree) tuple.

    Built entirely uncached so the resulting incomplete tree is the
    ground-truth baseline for cached comparisons.
    """
    rng = random.Random(seed)
    tt = SOURCE_TYPES[seed % len(SOURCE_TYPES)]
    doc = random_tree(tt, seed=rng, max_depth=4, max_children_per_entry=2,
                      values=(0, 1, 5))
    history = random_history(
        tt, doc, n_queries=2, seed=rng, max_depth=3, values=(0, 1, 5)
    )
    with perf.uncached():
        inc = refine_sequence(sorted(tt.alphabet), history, tree_type=tt)
    return tt, doc, history, inc


def _prefix_candidates(tree):
    """A few upward-closed restrictions of ``tree`` to use as prefixes."""
    if tree.is_empty():
        return []
    root = tree.root
    candidates = [tree.restrict([root]), tree]
    kids = tree.children(root)
    if kids:
        candidates.append(tree.restrict([root, kids[0]]))
    return candidates


def _assert_equiv(a, b, context) -> None:
    """Cached and uncached results must represent the same tree set.

    ``incomplete_equivalent`` is the library's (deliberately weak)
    check; where it cannot certify — ``allows_empty`` trees carrying
    anchored nodes — fall back to comparing bounded oracle
    enumerations, which is reflexive and refutation-sound.
    """
    with perf.uncached():
        if incomplete_equivalent(a, b):
            return
        assert oracle_rep_equal(a, b), context


def _bounded_oracle_trees(incomplete, **kwargs):
    kwargs.setdefault("max_nodes", 5)
    kwargs.setdefault("extra_values", (1,))
    with perf.uncached():
        return oracle_trees(incomplete, **kwargs)


# ---------------------------------------------------------------------------
# smoke layer: curated instances, always on
# ---------------------------------------------------------------------------


class TestOracleAgainstLibrary:
    def test_membership_agrees_both_ways(self, example_2_2):
        incomplete, _ = example_2_2
        trees = _bounded_oracle_trees(incomplete)
        assert trees, "oracle found no member trees for Example 2.2"
        with perf.uncached():
            for t in trees:
                assert incomplete.contains(t), t.pretty()
            # and the library's own enumeration must pass the oracle
            for t in enumerate_trees(incomplete, max_nodes=5, max_trees=200):
                assert oracle_member(incomplete, t), t.pretty()

    def test_possible_prefix_never_contradicts_oracle(self, example_2_2):
        incomplete, _ = example_2_2
        anchored = incomplete.data_node_ids()
        trees = _bounded_oracle_trees(incomplete)
        with perf.uncached():
            for t in trees[:12]:
                for prefix in _prefix_candidates(t):
                    if oracle_possible_prefix(prefix, trees, anchored):
                        assert possible_prefix(prefix, incomplete), prefix.pretty()

    def test_certain_prefix_implies_all_enumerated(self, example_2_2):
        incomplete, _ = example_2_2
        anchored = incomplete.data_node_ids()
        trees = _bounded_oracle_trees(incomplete)
        with perf.uncached():
            dt = incomplete.data_tree()
            for prefix in _prefix_candidates(dt):
                if certain_prefix(prefix, incomplete):
                    assert oracle_certain_prefix(prefix, trees, anchored), (
                        prefix.pretty()
                    )

    def test_query_evaluation_agrees(self, example_2_2):
        incomplete, query = example_2_2
        anchored = incomplete.data_node_ids()
        trees = _bounded_oracle_trees(incomplete)
        bar_query = PSQuery(
            pattern("root", Cond.true(), [subtree("a", Cond.ne(0))])
        )
        for q in (query, bar_query):
            for t in trees:
                ours = oracle_evaluate(q, t)
                theirs = q.evaluate(t)
                assert oracle_canonical(ours, anchored) == oracle_canonical(
                    theirs, anchored
                ), (q, t.pretty(), ours.pretty(), theirs.pretty())

    def test_query_incomplete_is_strong_representation(self, example_2_2):
        """q(rep(T)) ⊆ rep(q(T)) checked tree by tree with the oracle's
        own membership test (the sound direction under bounded
        enumeration)."""
        incomplete, query = example_2_2
        trees = _bounded_oracle_trees(incomplete)
        with perf.uncached():
            answered = query_incomplete(incomplete, query)
            saw_empty = False
            for t in trees:
                answer = oracle_evaluate(query, t)
                if answer.is_empty():
                    saw_empty = True
                assert oracle_member(answered, answer), (
                    t.pretty(),
                    answer.pretty(),
                )
            if saw_empty:
                assert answered.allows_empty


# ---------------------------------------------------------------------------
# randomized differential layer
# ---------------------------------------------------------------------------


def _check_instance(seed: int) -> None:
    tt, doc, history, inc = _instance(seed)
    context = f"seed={seed} type={sorted(tt.roots)}"

    with perf.uncached():
        assert oracle_member(inc, doc), f"{context}: source doc not in rep"
        assert not inc.is_empty(), context
        trees = oracle_trees(inc, max_nodes=4, extra_values=(1,),
                             per_star_cap=1)[:40]
        anchored = inc.data_node_ids()
        for t in trees:
            assert inc.contains(t), f"{context}\n{t.pretty()}"
            # every member is a possible prefix of itself
            assert possible_prefix(t, inc), f"{context}\n{t.pretty()}"
        dt = inc.data_tree()
        if trees and not dt.is_empty() and certain_prefix(dt, inc):
            assert oracle_certain_prefix(dt, trees, anchored), (
                f"{context}\n{dt.pretty()}"
            )
        # answers of enumerated members lie in rep(q(T))
        probe = history[0][0]
        answered = query_incomplete(inc, probe)
        for t in trees[:15]:
            answer = oracle_evaluate(probe, t)
            if answer.is_empty():
                assert answered.allows_empty, f"{context}\n{t.pretty()}"
            else:
                assert oracle_member(answered, answer), (
                    f"{context}\n{t.pretty()}\n{answer.pretty()}"
                )

    # cached run of the whole pipeline must be equivalent to uncached
    perf.clear_caches()
    with perf.cached():
        inc_cached = refine_sequence(sorted(tt.alphabet), history, tree_type=tt)
        answered_cached = query_incomplete(inc_cached, probe)
        again = refine_sequence(sorted(tt.alphabet), history, tree_type=tt)
    _assert_equiv(inc, inc_cached, context)
    _assert_equiv(answered, answered_cached, context)
    _assert_equiv(inc, again, f"{context} (warm rerun)")
    perf.clear_caches()


@pytest.mark.parametrize("seed", range(SMOKE_INSTANCES))
def test_differential_smoke(seed):
    _check_instance(seed)


@pytest.mark.oracle
@pytest.mark.parametrize("seed", range(SMOKE_INSTANCES, FULL_INSTANCES))
def test_differential_full(seed):
    _check_instance(seed)


# ---------------------------------------------------------------------------
# cache-on vs cache-off equivalence per memoized entry point
# ---------------------------------------------------------------------------


class TestCacheEquivalence:
    def _both(self, fn):
        """Run ``fn`` uncached then twice cached (cold + warm)."""
        perf.clear_caches()
        with perf.uncached():
            plain = fn()
        with perf.cached():
            cold = fn()
            warm = fn()
        perf.clear_caches()
        return plain, cold, warm

    @pytest.mark.parametrize("seed", range(4))
    def test_refine_sequence(self, seed):
        tt, doc, history, _ = _instance(seed)
        plain, cold, warm = self._both(
            lambda: refine_sequence(sorted(tt.alphabet), history, tree_type=tt)
        )
        _assert_equiv(plain, cold, seed)
        _assert_equiv(plain, warm, seed)

    @pytest.mark.parametrize("seed", range(4))
    def test_webhouse_knowledge_and_verdicts(self, seed):
        """A history recorded through a Webhouse: uncached, cached cold,
        and cached warm, where the ``knowledge`` table hands the session
        the value the cold run derived."""
        tt, doc, history, _ = _instance(seed)
        queries = [query for query, _ in history] + [
            random_ps_query(tt, seed=seed + offset, max_depth=3) for offset in (200, 300)
        ]

        def run():
            webhouse = Webhouse(sorted(tt.alphabet), tree_type=tt)
            for query, answer in history:
                webhouse.record(query, answer)
            return webhouse.knowledge, [webhouse.answer_with_caveats(q) for q in queries]

        plain, cold, warm = self._both(run)
        for knowledge, verdicts in (cold, warm):
            _assert_equiv(plain[0], knowledge, seed)
            assert verdicts == plain[1], seed

    @pytest.mark.parametrize("seed", range(4))
    def test_query_incomplete(self, seed):
        tt, doc, history, inc = _instance(seed)
        query = random_ps_query(tt, seed=seed + 100, max_depth=3)
        plain, cold, warm = self._both(lambda: query_incomplete(inc, query))
        _assert_equiv(plain, cold, seed)
        _assert_equiv(plain, warm, seed)

    @pytest.mark.parametrize("seed", range(4))
    def test_intersect_with_tree_type(self, seed):
        tt, doc, history, inc = _instance(seed)
        plain, cold, warm = self._both(lambda: intersect_with_tree_type(inc, tt))
        _assert_equiv(plain, cold, seed)
        _assert_equiv(plain, warm, seed)

    @pytest.mark.parametrize("seed", range(4))
    def test_merge_equivalent_symbols(self, seed):
        tt, doc, history, inc = _instance(seed)
        plain, cold, warm = self._both(lambda: merge_equivalent_symbols(inc))
        _assert_equiv(plain, cold, seed)
        _assert_equiv(plain, warm, seed)

    @pytest.mark.parametrize("seed", range(4))
    def test_emptiness_and_normalization(self, seed):
        tt, doc, history, inc = _instance(seed)
        tau = inc.type
        plain, cold, warm = self._both(
            lambda: (
                tau.is_empty(),
                tau.productive_symbols(),
                tau.normalized(),
            )
        )
        assert plain[0] == cold[0] == warm[0], seed
        assert plain[1] == cold[1] == warm[1], seed
        assert plain[2] == cold[2] == warm[2], seed

    @pytest.mark.parametrize("seed", range(6))
    def test_matching_primitives(self, seed):
        rng = random.Random(seed)
        left = [f"l{i}" for i in range(rng.randint(1, 5))]
        right = [f"r{i}" for i in range(rng.randint(1, 5))]
        adjacency = {
            l: frozenset(r for r in right if rng.random() < 0.6) for l in left
        }
        slots = {r: (0, rng.randint(1, 2)) for r in right}
        plain, cold, warm = self._both(
            lambda: (
                max_bipartite_matching(left, adjacency),
                feasible_assignment(left, slots, adjacency),
            )
        )
        assert plain == cold == warm, seed

    @pytest.mark.parametrize("seed", range(3))
    def test_oracle_sees_no_cache_effect(self, seed):
        """The oracle's enumerated rep(T) is identical whether the
        library underneath runs cached or not (the oracle itself never
        calls memoized code, but instance *construction* does)."""
        tt, doc, history, inc = _instance(seed)
        perf.clear_caches()
        with perf.cached():
            inc_cached = refine_sequence(
                sorted(tt.alphabet), history, tree_type=tt
            )
        perf.clear_caches()
        anchored = inc.data_node_ids()
        forms = {
            oracle_canonical(t, anchored)
            for t in oracle_trees(inc, max_nodes=4, per_star_cap=1)
        }
        forms_cached = {
            oracle_canonical(t, anchored)
            for t in oracle_trees(inc_cached, max_nodes=4, per_star_cap=1)
        }
        assert forms == forms_cached, seed
