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


# -- verdicts kept on the value ----------------------------------------------------


def _counting_fully_answerable(monkeypatch):
    """Count the calls a Webhouse makes to Corollary 3.15's check."""
    import repro.mediator.webhouse as webhouse_module

    calls = []
    real = webhouse_module.fully_answerable
    monkeypatch.setattr(
        webhouse_module,
        "fully_answerable",
        lambda *args: calls.append(args[1]) or real(*args),
    )
    return calls


def _price_query(limit: int):
    return linear_query(["catalog", "product", "price"], [None, None, Cond.lt(limit)])


class TestVerdictTable:
    def test_cached_reads_compute_a_verdict_once_per_value(self, catalog_tt, monkeypatch):
        import repro.obs as obs
        import repro.perf as perf

        calls = _counting_fully_answerable(monkeypatch)
        source = _seed3_source()
        wh = Webhouse(CATALOG_ALPHABET, tree_type=catalog_tt)
        wh.ask(source, query1())
        with perf.cached(), obs.capture():
            first = wh.answer_with_caveats(query2())
            assert wh.answer_with_caveats(query2()) == first
            assert wh.can_answer(query2()) is (not first[1])
            assert wh.can_answer(query1())
            assert wh.answer_locally(query1()) == source.ask(query1())
            assert len(calls) == 2
            assert obs.metrics.value("webhouse.verdict_misses") == 2
            assert obs.metrics.value("webhouse.verdict_hits") == 3
            wh.ask(source, query2())
            wh.answer_with_caveats(query2())
            assert len(calls) == 3

    def test_uncached_computes_every_verdict(self, catalog_tt, monkeypatch):
        import repro.perf as perf

        calls = _counting_fully_answerable(monkeypatch)
        source = _seed3_source()
        wh = Webhouse(CATALOG_ALPHABET, tree_type=catalog_tt)
        wh.ask(source, query1())
        with perf.cached():
            wh.answer_with_caveats(query2())
        with perf.uncached():
            for _ in range(3):
                wh.answer_with_caveats(query2())
            wh.can_answer(query2())
            wh.answer_locally(query1())
        assert len(calls) == 6

    def test_table_never_exceeds_its_bound(self, catalog_tt):
        import repro.perf as perf
        from repro.mediator.webhouse import MAX_VERDICTS

        source = _seed3_source()
        wh = Webhouse(CATALOG_ALPHABET, tree_type=catalog_tt)
        wh.ask(source, query1())
        value = wh.value
        sizes = []
        with perf.cached():
            for limit in range(10, 10 + 3 * MAX_VERDICTS):
                query = _price_query(limit)
                assert wh.answer_with_caveats(query) == wh.answer_with_caveats(query)
                sizes.append(len(value._verdicts))
        assert max(sizes) == MAX_VERDICTS
        # a full table is emptied before the next verdict goes in
        assert sizes[MAX_VERDICTS] == 1

    @pytest.mark.parametrize(
        "write",
        ["ask", "record_many", "reset", "compact", "conjunctive", "linear", "lossy"],
    )
    def test_every_write_publishes_an_empty_table(self, catalog_tt, write):
        import repro.perf as perf

        source = _seed3_source()
        wh = Webhouse(CATALOG_ALPHABET, tree_type=catalog_tt)
        wh.ask(source, query1())
        with perf.cached():
            wh.answer_with_caveats(query2())
            wh.can_answer(query3())
        before = wh.value
        assert len(before._verdicts) == 2
        if write == "ask":
            wh.ask(source, query2())
        elif write == "record_many":
            wh.record_many([(q, source.ask(q)) for q in (query2(), query3())])
        elif write in ("reset", "compact"):
            getattr(wh, write)()
        else:
            wh.apply_remedy(write)
        assert wh.value is not before
        assert wh.value._verdicts == {}
        assert len(before._verdicts) == 2

    def test_resume_starts_with_an_empty_table(self, tmp_path):
        import repro.perf as perf

        source = _seed3_source()
        store = SessionStore(str(tmp_path))
        wh = Webhouse(CATALOG_ALPHABET, tree_type=catalog_type())
        wh.attach(store.create("s", CATALOG_ALPHABET, tree_type=catalog_type()))
        wh.ask(source, query1())
        with perf.cached():
            live = wh.answer_with_caveats(query2())
        wh.detach()
        resumed = Webhouse.resume(store, "s")
        try:
            assert resumed.value._verdicts == {}
            with perf.cached():
                assert resumed.answer_with_caveats(query2()) == live
        finally:
            resumed.detach()

    def test_answers_from_the_value_it_is_given(self, catalog_tt):
        import repro.perf as perf

        source = _seed3_source()
        wh = Webhouse(CATALOG_ALPHABET, tree_type=catalog_tt)
        wh.ask(source, query1())
        taken = wh.value
        before = wh.answer_with_caveats(query2())
        wh.ask(source, query2())
        with perf.cached():
            assert wh.answer_with_caveats(query2(), taken) == before
            assert wh.answer_with_caveats(query2()) != before


# -- equal derivations share one value --------------------------------------------


@pytest.fixture()
def knowledge_table():
    """The perf caches on, from empty tables: a value can outlive the
    test that derived it."""
    import repro.perf as perf

    perf.clear_caches()
    perf.STATE.reset_stats()
    with perf.cached():
        yield perf.STATE.caches["knowledge"]
    perf.clear_caches()


def _counting_refine(monkeypatch):
    """Count the Refine steps a Webhouse runs."""
    import repro.mediator.webhouse as webhouse_module

    calls = []
    real = webhouse_module.refine
    monkeypatch.setattr(
        webhouse_module, "refine", lambda *args: calls.append(args[1]) or real(*args)
    )
    return calls


def _fetch_q1_q2(webhouse: Webhouse, source: InMemorySource) -> Webhouse:
    for query in (query1(), query2()):
        webhouse.ask(source, query)  # each ask builds its own answer tree
    return webhouse


class TestSharedKnowledge:
    def test_equal_histories_share_one_value(self, catalog_tt, knowledge_table, monkeypatch):
        calls = _counting_refine(monkeypatch)
        source = _seed3_source()
        first = _fetch_q1_q2(Webhouse(CATALOG_ALPHABET, tree_type=catalog_tt), source)
        assert len(calls) == 2
        second = _fetch_q1_q2(Webhouse(CATALOG_ALPHABET, tree_type=catalog_tt), source)
        assert len(calls) == 2
        assert second.value is first.value
        assert second.history == first.history
        assert second.stats() == first.stats()

    def test_different_answers_give_different_values(self, catalog_tt, knowledge_table):
        documents = [generate_catalog(8, seed=seed) for seed in (3, 4)]
        sessions = [
            _fetch_q1_q2(
                Webhouse(CATALOG_ALPHABET, tree_type=catalog_tt),
                InMemorySource(document, catalog_tt),
            )
            for document in documents
        ]
        assert sessions[0].value is not sessions[1].value
        for webhouse, document in zip(sessions, documents):
            assert webhouse.knowledge.contains(document)
        assert not sessions[0].knowledge.contains(documents[1])

    @pytest.mark.parametrize(
        "write", ["record", "record_many", "compact", "conjunctive", "linear", "reset"]
    )
    def test_each_transition_shares(self, catalog_tt, knowledge_table, write):
        source = _seed3_source()
        values, misses = [], []
        for _ in range(2):
            misses.append(knowledge_table.misses)
            webhouse = Webhouse(CATALOG_ALPHABET, tree_type=catalog_tt)
            webhouse.ask(source, query1())
            if write == "record":
                webhouse.record(query2(), source.ask(query2()))
            elif write == "record_many":
                webhouse.record_many([(q, source.ask(q)) for q in (query2(), query3())])
            elif write == "compact":
                webhouse.compact(["product"])
            elif write == "reset":
                webhouse.reset()
            else:
                webhouse.apply_remedy(write)
            values.append(webhouse.value)
        assert values[0] is values[1]
        # the second session derived nothing: every lookup hit
        assert knowledge_table.misses == misses[1] > misses[0]

    def test_a_different_auto_minimize_does_not_share(self, catalog_tt, knowledge_table):
        source = _seed3_source()
        plain, minimizing = (
            Webhouse(CATALOG_ALPHABET, tree_type=catalog_tt, auto_minimize=flag)
            for flag in (False, True)
        )
        assert plain.value is minimizing.value  # the bare type is shared
        plain.ask(source, query1())
        minimizing.ask(source, query1())
        assert plain.value is not minimizing.value

    def test_a_resume_replays_through_the_table(self, tmp_path, knowledge_table, monkeypatch):
        calls = _counting_refine(monkeypatch)
        source = _seed3_source()
        live = _fetch_q1_q2(Webhouse(CATALOG_ALPHABET, tree_type=catalog_type()), source)
        store = SessionStore(str(tmp_path))
        durable = Webhouse(CATALOG_ALPHABET, tree_type=catalog_type())
        durable.attach(store.create("s", CATALOG_ALPHABET, tree_type=catalog_type()))
        _fetch_q1_q2(durable, source).detach()
        resumed = Webhouse.resume(store, "s")
        try:
            assert resumed.value is live.value
            assert len(calls) == 2
        finally:
            resumed.detach()

    def test_uncached_shares_nothing(self, catalog_tt, knowledge_table, monkeypatch):
        import repro.perf as perf

        calls = _counting_refine(monkeypatch)
        source = _seed3_source()
        with perf.uncached():
            first, second = (
                _fetch_q1_q2(Webhouse(CATALOG_ALPHABET, tree_type=catalog_tt), source)
                for _ in range(2)
            )
            assert Webhouse(CATALOG_ALPHABET).value is not Webhouse(CATALOG_ALPHABET).value
        assert first.value is not second.value
        assert len(calls) == 4
        assert len(knowledge_table) == 0
        assert knowledge_table.hits + knowledge_table.misses == 0

    def test_racing_sessions_each_hold_an_exact_value(self, catalog_tt, knowledge_table):
        """Threads deriving the same values at once: racing misses put
        equal values and the last put wins, so every session holds a
        value whose history is its own and whose knowledge admits the
        document."""
        import sys
        import threading

        source = _seed3_source()
        pairs = [(query, source.ask(query)) for query in (query1(), query2())]
        sessions, errors = [], []

        def onboard() -> None:
            try:
                for _ in range(5):
                    webhouse = Webhouse(CATALOG_ALPHABET, tree_type=catalog_tt)
                    for query, answer in pairs:
                        webhouse.record(query, answer)
                    sessions.append(webhouse)
            except Exception as exc:  # reported below, not lost in the thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=onboard) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and len(sessions) == 40
        for webhouse in sessions:
            assert webhouse.history == tuple(pairs)
            assert webhouse.knowledge.contains(source.document())
        assert len({id(webhouse.value) for webhouse in sessions}) < len(sessions)

    def test_table_never_exceeds_its_bound(self, knowledge_table):
        source = _seed3_source()
        sizes = []
        for limit in range(knowledge_table.capacity + 16):
            query = _price_query(limit)
            Webhouse(CATALOG_ALPHABET).record(query, source.ask(query))
            sizes.append(len(knowledge_table))
        assert max(sizes) == knowledge_table.capacity
        assert knowledge_table.evictions == 17  # the bare type and 144 records
