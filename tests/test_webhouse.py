"""End-to-end Webhouse scenario tests (the Section 1 story)."""

import pytest

from repro.core.conditions import Cond
from repro.core.query import linear_query
from repro.answering.answerable import fully_answerable
from repro.core.tree import DataTree, node
from repro.faults.inject import FaultInjected, fault_scope
from repro.faults.plan import FaultPlan
from repro.mediator.source import InMemorySource
from repro.mediator.webhouse import Webhouse
from repro.store import SessionStore
from repro.workloads.catalog import (
    CATALOG_ALPHABET,
    catalog_type,
    demo_catalog,
    generate_catalog,
    query1,
    query2,
    query3,
    query4,
    query5,
)


@pytest.fixture()
def setup(catalog_tt, catalog_doc):
    source = InMemorySource(catalog_doc, catalog_tt)
    wh = Webhouse(CATALOG_ALPHABET, tree_type=catalog_tt)
    wh.ask(source, query1())
    wh.ask(source, query2())
    return wh, source


class TestScenario:
    def test_example_3_4_flow(self, setup, catalog_doc):
        wh, source = setup
        # Query 3 answerable locally, without a source round-trip
        queries_before = source.stats.queries
        assert wh.can_answer(query3())
        assert wh.answer_locally(query3()) == query3().evaluate(catalog_doc)
        assert source.stats.queries == queries_before
        # Query 4 is not
        assert not wh.can_answer(query4())
        with pytest.raises(ValueError):
            wh.answer_locally(query4())

    def test_certain_part_and_possibility(self, setup, catalog_doc):
        wh, _source = setup
        sure = wh.certain_answer_part(query4())
        names = {sure.value(n) for n in sure.node_ids() if sure.label(n) == "name"}
        # the known cameras: cheap or pictured
        assert names == {"Canon", "Nikon", "Olympus"}
        # there may be more cameras (expensive without pictures)
        assert wh.may_match(query5())

    def test_semantic_claims(self, setup):
        wh, _source = setup
        nikon_pic = DataTree.build(
            node("cat0", "catalog", 0,
                 [node("p-nikon", "product", 0, [node("f", "picture", "x.jpg")])])
        )
        assert not wh.is_possible_prefix(nikon_pic)
        cheap_olympus = DataTree.build(
            node("cat0", "catalog", 0,
                 [node("p-olympus", "product", 0, [node("f", "price", 150)])])
        )
        assert not wh.is_possible_prefix(cheap_olympus)
        fair_olympus = DataTree.build(
            node("cat0", "catalog", 0,
                 [node("p-olympus", "product", 0, [node("f", "price", 250)])])
        )
        assert wh.is_possible_prefix(fair_olympus)

    def test_mediated_answer(self, setup, catalog_doc):
        wh, source = setup
        before = source.stats.nodes_served
        answer, plan = wh.complete_and_answer(source, query4())
        assert answer == query4().evaluate(catalog_doc)
        assert plan
        assert source.stats.nodes_served - before < len(catalog_doc)

    def test_possible_answers_structure(self, setup, catalog_doc):
        wh, _source = setup
        answers = wh.possible_answers(query4())
        assert answers.contains(query4().evaluate(catalog_doc))


class TestLifecycle:
    def test_reset(self, catalog_tt, catalog_doc):
        source = InMemorySource(catalog_doc, catalog_tt)
        wh = Webhouse(CATALOG_ALPHABET, tree_type=catalog_tt)
        wh.ask(source, query1())
        assert wh.history
        wh.reset()
        assert not wh.history
        assert wh.data_tree().is_empty()

    def test_compact_keeps_data(self, catalog_tt, catalog_doc):
        source = InMemorySource(catalog_doc, catalog_tt)
        wh = Webhouse(CATALOG_ALPHABET, tree_type=catalog_tt)
        wh.ask(source, query1())
        before = wh.size()
        data_before = set(wh.data_tree().node_ids())
        wh.compact()
        assert set(wh.data_tree().node_ids()) == data_before
        assert wh.size() <= before

    def test_auto_minimize_mode(self, catalog_tt, catalog_doc):
        source = InMemorySource(catalog_doc, catalog_tt)
        fat = Webhouse(CATALOG_ALPHABET, tree_type=catalog_tt)
        slim = Webhouse(CATALOG_ALPHABET, tree_type=catalog_tt, auto_minimize=True)
        for wh in (fat, slim):
            wh.ask(InMemorySource(catalog_doc, catalog_tt), query1())
            wh.ask(InMemorySource(catalog_doc, catalog_tt), query2())
        assert slim.size() <= fat.size()
        assert slim.can_answer(query3()) == fat.can_answer(query3())

    def test_without_tree_type(self, catalog_doc):
        wh = Webhouse(CATALOG_ALPHABET)
        source = InMemorySource(catalog_doc)
        wh.ask(source, query1())
        assert wh.can_answer(query1())

    def test_small_alphabet_session(self):
        alphabet = ["root", "a", "b"]
        doc = DataTree.build(
            node("r", "root", 0, [node("x", "a", 5, [node("y", "b", 1)])])
        )
        source = InMemorySource(doc)
        wh = Webhouse(alphabet)
        q = linear_query(["root", "a"], [None, Cond.gt(0)])
        wh.ask(source, q)
        assert wh.can_answer(q)
        answer, _plan = wh.complete_and_answer(
            source, linear_query(["root", "a", "b"])
        )
        assert answer == linear_query(["root", "a", "b"]).evaluate(doc)


# -- the one knowledge value -----------------------------------------------------


def _seed3_source() -> InMemorySource:
    return InMemorySource(generate_catalog(8, seed=3), catalog_type())


class TestKnowledgeValue:
    def test_a_write_publishes_a_new_value_and_leaves_the_old_one(self, catalog_tt):
        source = _seed3_source()
        wh = Webhouse(CATALOG_ALPHABET, tree_type=catalog_tt)
        wh.ask(source, query1())
        before = wh.value
        sure, more = wh.answer_with_caveats(query2())
        wh.ask(source, query2())
        assert wh.value is not before
        assert len(before.history) == 1 and len(wh.history) == 2
        # the old value still answers as it did
        assert fully_answerable(before.tree, query2()) == (not more, sure)

    def test_history_is_the_values_tuple(self, setup):
        wh, _source = setup
        assert wh.history is wh.history is wh.value.history

    def test_materialized_once_per_value(self, catalog_tt, monkeypatch):
        import repro.mediator.webhouse as webhouse_module

        calls = []
        real = webhouse_module.intersect_with_tree_type
        monkeypatch.setattr(
            webhouse_module,
            "intersect_with_tree_type",
            lambda *args: calls.append(None) or real(*args),
        )
        source = _seed3_source()
        wh = Webhouse(CATALOG_ALPHABET, tree_type=catalog_tt)
        wh.ask(source, query1())
        wh.can_answer(query3())
        wh.size()
        wh.prepare()
        assert len(calls) == 1
        wh.ask(source, query2())
        wh.can_answer(query3())
        assert len(calls) == 2

    @pytest.mark.parametrize("write", ["ask", "record"])
    def test_failed_journal_append_publishes_nothing(self, tmp_path, write):
        """Memory never holds a pair its journal lacks: a failed append
        leaves history and size as they were, in memory and on disk."""
        source = _seed3_source()
        store = SessionStore(str(tmp_path))
        wh = Webhouse(CATALOG_ALPHABET, tree_type=catalog_type())
        wh.attach(store.create("s", CATALOG_ALPHABET, tree_type=catalog_type()))
        try:
            wh.ask(source, query1())
            before = (wh.history, wh.size())
            with fault_scope(FaultPlan.parse("store.journal.append:error:once")):
                with pytest.raises(FaultInjected):
                    if write == "ask":
                        wh.ask(source, query2())
                    else:
                        wh.record(query2(), source.ask(query2()))
            assert (wh.history, wh.size()) == before
        finally:
            wh.detach()
        resumed = Webhouse.resume(store, "s")
        try:
            assert (resumed.history, resumed.size()) == before
        finally:
            resumed.detach()

    def test_conjunctive_mode_snapshot_keeps_knowledge(self, tmp_path):
        """A snapshot taken while the knowledge is layered must not lose
        what was recorded since the remedy: resume answers as live."""
        source = _seed3_source()
        store = SessionStore(str(tmp_path), snapshot_every=1)
        wh = Webhouse(CATALOG_ALPHABET, tree_type=catalog_type())
        wh.attach(store.create("s", CATALOG_ALPHABET, tree_type=catalog_type()))
        wh.ask(source, query1())
        wh.apply_remedy("conjunctive")
        wh.ask(source, query2())
        assert wh.engine == "conjunctive"
        live = [wh.answer_with_caveats(q) for q in (query2(), query3())]
        assert [(len(sure), more) for sure, more in live] == [(12, False), (7, False)]
        wh.detach()
        resumed = Webhouse.resume(store, "s")
        try:
            assert resumed.history == wh.history
            assert [resumed.answer_with_caveats(q) for q in (query2(), query3())] == live
        finally:
            resumed.detach()

    def test_checkpoint_takes_no_snapshot_while_layered(self, tmp_path):
        """Layered knowledge has no one state rep-equal to its history,
        so its durable copy is the journal."""
        source = _seed3_source()
        store = SessionStore(str(tmp_path))
        wh = Webhouse(CATALOG_ALPHABET, tree_type=catalog_type())
        wh.attach(store.create("s", CATALOG_ALPHABET, tree_type=catalog_type()))
        try:
            wh.ask(source, query1())
            wh.apply_remedy("conjunctive")
            assert wh.checkpoint() is None
            assert wh.session.info()["snapshots"] == 0
        finally:
            wh.detach()
