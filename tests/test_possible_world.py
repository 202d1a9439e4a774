"""The observed document is a possible world of every session's knowledge.

Every session observes one known document D, so the paper gives a
direct check that needs no enumeration of rep(T), at any scale:

* Refine is sound (Theorem 3.4): D ∈ rep(knowledge) after every step.
  Membership is the *possibility problem* (Amarilli, arXiv 1404.3131),
  PTIME here through ``IncompleteTree.contains``;
* a certain answer is a prefix of q(D) (Theorem 2.8), so its node ids
  are a subset of q(D)'s;
* an answer with ``may_have_more`` false is q(D) (Corollary 3.15).

Each probe is also asked twice with the perf caches on, so the second
ask reads the verdict the knowledge value keeps, and both must equal
Corollary 3.15 computed afresh on that value with the caches off.

A second session observes another document, drawn with another catalog
seed, and makes the same fetches with its writes under the perf caches,
so its values come from the ``knowledge`` table whenever an equal
derivation put one there.  The first session writes with the caches as
the caller left them (off in tier-1), so its resume computes its own
replay: with the table on, a resume in the same process is handed the
live value.

The property runs over generated catalogs and fetch histories.  About a
third of the histories apply a growth remedy part-way, and some move to
a store and resume from it.  A small sweep runs in every ``pytest``
invocation; the full sweep is marked ``oracle`` and scaled by
``REPRO_ORACLE_INSTANCES``.  The mutation tests check the property
itself: a Refine that drops one specialization must fail it, and so
must a verdict table that survives a write, and a ``knowledge`` table
key that drops the answers.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from typing import List, Optional, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.mediator.webhouse as webhouse_module
import repro.perf as perf
from repro.answering.answerable import fully_answerable
from repro.core.conditions import Cond
from repro.core.parsing import parse_query_spec
from repro.incomplete import ConditionalTreeType, IncompleteTree
from repro.mediator.source import InMemorySource
from repro.mediator.webhouse import Webhouse
from repro.store import SessionStore
from repro.workloads.catalog import (
    CATALOG_ALPHABET,
    catalog_type,
    generate_catalog,
    query1,
    query2,
    query3,
    query4,
)

#: Full-sweep size; CI exports REPRO_ORACLE_INSTANCES=200.
FULL_INSTANCES = int(os.environ.get("REPRO_ORACLE_INSTANCES", "40"))

NAMED = {"q1": query1, "q2": query2, "q3": query3, "q4": query4}

#: Fetches drawn besides the price thresholds; every one is also a probe.
SPECS = (
    "q1",
    "q2",
    "q3",
    "q4",
    "catalog/product/name",
    "catalog/product/cat",
    "catalog/product/picture",
)

REMEDIES = ("conjunctive", "linear", "lossy")


@dataclass(frozen=True)
class Trial:
    products: int
    seed: int
    fetches: Tuple[str, ...]
    #: applied just before fetch ``remedy_at``
    remedy: Optional[str] = None
    remedy_at: int = 0
    #: the session moves to a store before fetch ``resume_at``, and is
    #: detached and resumed right after it
    resume_at: Optional[int] = None


def _spec(price_form: str, bar: int) -> str:
    return f"catalog/product/{price_form}price[<{bar}]"


@st.composite
def trials(draw, max_products: int) -> Trial:
    fetch = st.one_of(
        st.sampled_from(SPECS),
        st.builds(_spec, st.sampled_from(("", "~")), st.integers(10, 1000)),
    )
    fetches = tuple(draw(st.lists(fetch, min_size=1, max_size=6)))
    return Trial(
        products=draw(st.integers(3, max_products)),
        seed=draw(st.integers(0, 10_000)),
        fetches=fetches,
        remedy=draw(st.sampled_from(REMEDIES + (None,) * 6)),
        remedy_at=draw(st.integers(0, len(fetches) - 1)),
        resume_at=draw(st.one_of(st.none(), st.integers(0, len(fetches) - 1))),
    )


def _check(webhouse: Webhouse, document, probes, where: str) -> List[str]:
    """The checks, after one step."""
    problems = []
    value = webhouse.value
    if not value.tree.contains(document):
        problems.append(f"{where}: D is not a possible world of the knowledge")
    for spec, query in probes:
        exact = query.evaluate(document)
        with perf.uncached():
            answerable, local = fully_answerable(value.tree, query)
        with perf.cached():
            asks = [webhouse.answer_with_caveats(query) for _ in range(2)]
        if query not in value._verdicts:
            problems.append(f"{where}: the verdict on {spec} was not kept")
        if asks != [(local, not answerable)] * 2:
            problems.append(f"{where}: the kept verdict on {spec} is not the value's")
        sure, more = asks[0]
        if not set(sure.node_ids()) <= set(exact.node_ids()):
            problems.append(f"{where}: certain answer to {spec} is not a prefix of q(D)")
        if not more and sure != exact:
            problems.append(f"{where}: exact answer to {spec} differs from q(D)")
    return problems


def violations(trial: Trial) -> List[str]:
    """Run ``trial`` and return every failed check, in step order."""
    tree_type = catalog_type()
    document = generate_catalog(trial.products, seed=trial.seed)
    source = InMemorySource(document, tree_type)
    other = generate_catalog(trial.products, seed=trial.seed + 1)
    other_source = InMemorySource(other, tree_type)
    probes = [
        (spec, parse_query_spec(spec, named=NAMED))
        for spec in dict.fromkeys(SPECS + trial.fetches)
    ]
    problems: List[str] = []
    with tempfile.TemporaryDirectory() as root:
        store = SessionStore(root, snapshot_every=1)
        webhouse = Webhouse(CATALOG_ALPHABET, tree_type=tree_type)
        with perf.cached():
            shared = Webhouse(CATALOG_ALPHABET, tree_type=tree_type)
        try:
            for step, spec in enumerate(trial.fetches):
                if trial.remedy is not None and step == trial.remedy_at:
                    webhouse.apply_remedy(trial.remedy)
                    with perf.cached():
                        shared.apply_remedy(trial.remedy)
                if step == trial.resume_at:
                    webhouse.attach(
                        store.create("s", CATALOG_ALPHABET, tree_type=tree_type)
                    )
                webhouse.ask(source, parse_query_spec(spec, named=NAMED))
                problems += _check(webhouse, document, probes, f"step {step} ({spec})")
                with perf.cached():
                    shared.ask(other_source, parse_query_spec(spec, named=NAMED))
                problems += _check(shared, other, probes, f"second session, step {step} ({spec})")
                if step == trial.resume_at:
                    webhouse.detach()
                    webhouse = Webhouse.resume(store, "s")
                    problems += _check(webhouse, document, probes, f"resume {step}")
        finally:
            if webhouse.session is not None:
                webhouse.detach()
    return problems


def _assert_possible(trial: Trial) -> None:
    problems = violations(trial)
    assert not problems, f"{trial}:\n  " + "\n  ".join(problems)


_SETTINGS = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(autouse=True)
def _empty_knowledge_table():
    """Values derived under a mutant must not outlive its test."""
    perf.clear_caches()
    yield
    perf.clear_caches()


@given(trials(max_products=10))
@settings(max_examples=15, **_SETTINGS)
def test_document_is_a_possible_world(trial):
    _assert_possible(trial)


@pytest.mark.oracle
@given(trials(max_products=32))
@settings(max_examples=FULL_INSTANCES, **_SETTINGS)
def test_document_is_a_possible_world_full_sweep(trial):
    _assert_possible(trial)


def test_remedies_and_resumes_are_covered():
    """The curated trials below the property: every remedy, with and
    without a resume after it."""
    for remedy in REMEDIES:
        for resume_at in (None, 2):
            _assert_possible(
                Trial(8, 3, ("q1", "q2", "catalog/product/~price[<300]"), remedy, 1, resume_at)
            )


# -- mutation: the property must catch an unsound Refine ---------------------------


def _drop_one_specialization(incomplete: IncompleteTree) -> IncompleteTree:
    """``incomplete`` minus its last specialization of ``product`` that
    is neither a data node nor a root: an unsatisfiable condition leaves
    no tree able to use it."""
    tau = incomplete.type
    victims = [
        symbol
        for symbol in tau.symbols_for_target("product")
        if symbol not in tau.roots
    ]
    if not victims:
        return incomplete
    victim = victims[-1]
    symbols = sorted(tau.symbols())
    mutated = ConditionalTreeType(
        tau.roots,
        {symbol: tau.mu(symbol) for symbol in symbols},
        {
            symbol: Cond.false() if symbol == victim else tau.cond(symbol)
            for symbol in symbols
        },
        tau.sigma_map(),
    )
    return IncompleteTree(incomplete.data_nodes(), mutated, incomplete.allows_empty)


@pytest.mark.parametrize("fetches", [("q1",), ("q2", "q1"), ("catalog/product/price[<300]",)])
def test_refine_dropping_a_specialization_is_caught(monkeypatch, fetches):
    real = webhouse_module.refine
    monkeypatch.setattr(
        webhouse_module,
        "refine",
        lambda *args: _drop_one_specialization(real(*args)),
    )
    for products, seed in ((8, 3), (16, 11)):
        problems = violations(Trial(products, seed, fetches))
        assert any("not a possible world" in problem for problem in problems), (
            f"a Refine that drops a specialization went unnoticed on {fetches}"
        )


@pytest.mark.parametrize("fetches", [("q1",), ("q2", "q1"), ("catalog/product/price[<300]",)])
def test_a_derivation_key_that_drops_the_answers_is_caught(monkeypatch, fetches):
    """Keyed by its queries alone, a record hands the second session the
    value the first derived from other answers: its document is then no
    possible world of what it holds.  Both sessions write through the
    table here, the first one first."""
    real = Webhouse._derive

    def by_queries_alone(parent, transition, compute):
        if isinstance(transition, tuple) and isinstance(transition[1], bool):  # a record
            pairs, auto_minimize = transition
            transition = (tuple(query for query, _answer in pairs), auto_minimize)
        return real(parent, transition, compute)

    monkeypatch.setattr(Webhouse, "_derive", staticmethod(by_queries_alone))
    for products, seed in ((8, 3), (16, 11)):
        perf.clear_caches()
        with perf.cached():
            problems = violations(Trial(products, seed, fetches))
        assert any(
            problem.startswith("second session") and "not a possible world" in problem
            for problem in problems
        ), f"a derivation key without the answers went unnoticed on {fetches}"


def test_a_verdict_table_that_survives_a_write_is_caught(monkeypatch):
    """Verdicts kept on the Webhouse rather than on each value: every
    value it publishes shares its predecessor's table, so a read after
    a write answers from the knowledge before it."""
    real = Webhouse._publish

    def publish_sharing_the_table(self, value, *events):
        value._verdicts = self._value._verdicts
        real(self, value, *events)

    monkeypatch.setattr(Webhouse, "_publish", publish_sharing_the_table)
    for fetches in (("q1", "q2"), ("catalog/product/price[<300]", "q3")):
        problems = violations(Trial(8, 3, fetches))
        assert any("is not the value's" in problem for problem in problems), (
            f"a verdict table that survives a write went unnoticed on {fetches}"
        )
