"""Longer-lived session behaviours: interleaving, compaction mid-flight,
source updates, and equivalence of maintenance strategies."""

import pytest

from repro.core.conditions import Cond
from repro.mediator.source import InMemorySource
from repro.mediator.webhouse import Webhouse
from repro.workloads.catalog import (
    CATALOG_ALPHABET,
    catalog_type,
    generate_catalog,
    query1,
    query2,
    query3,
    query4,
)
from repro.workloads.generators import random_ps_query


@pytest.fixture()
def setting():
    tt = catalog_type()
    doc = generate_catalog(12, seed=99)
    return tt, doc, InMemorySource(doc, tt)


class TestInterleavedSession:
    def test_ask_answer_ask(self, setting):
        """Answering locally between acquisitions must not corrupt state."""
        tt, doc, source = setting
        wh = Webhouse(CATALOG_ALPHABET, tree_type=tt)
        wh.ask(source, query1())
        local_before = wh.can_answer(query1())
        wh.possible_answers(query4())  # read-only operation
        wh.ask(source, query2())
        assert wh.can_answer(query1()) == local_before
        assert wh.answer_locally(query1()) == query1().evaluate(doc)

    def test_many_random_queries_remain_exact(self, setting):
        tt, doc, source = setting
        wh = Webhouse(CATALOG_ALPHABET, tree_type=tt, auto_minimize=True)
        queries = [random_ps_query(tt, seed=s, max_depth=3) for s in range(4)]
        for q in queries:
            wh.ask(source, q)
        # every recorded query remains answerable with the true answer
        for q in queries:
            assert wh.can_answer(q)
            assert wh.answer_locally(q) == q.evaluate(doc)
        assert wh.knowledge.contains(doc)

    def test_repeated_query_is_idempotent_in_semantics(self, setting):
        tt, doc, source = setting
        wh = Webhouse(CATALOG_ALPHABET, tree_type=tt)
        wh.ask(source, query1())
        size_once = wh.size()
        wh.ask(source, query1())
        # semantics unchanged (the representation may differ in size)
        assert wh.knowledge.contains(doc)
        assert wh.answer_locally(query1()) == query1().evaluate(doc)
        assert wh.size() <= size_once * 4  # no blowup from repetition


class TestCompactionMidSession:
    def test_compact_then_continue(self, setting):
        tt, doc, source = setting
        wh = Webhouse(CATALOG_ALPHABET, tree_type=tt)
        wh.ask(source, query1())
        wh.compact()  # lossy: rep grows, data stays
        assert wh.knowledge.contains(doc)
        # continue refining after compaction
        wh.ask(source, query2())
        assert wh.knowledge.contains(doc)
        assert wh.answer_locally(query2()) == query2().evaluate(doc)

    def test_compact_preserves_answerability_of_sure_data(self, setting):
        tt, doc, source = setting
        wh = Webhouse(CATALOG_ALPHABET, tree_type=tt)
        wh.ask(source, query1())
        before = wh.certain_answer_part(query1())
        wh.compact()
        assert wh.certain_answer_part(query1()) == before


class TestSourceUpdates:
    def test_reset_on_source_change(self, setting):
        """The paper's policy: on source updates, reinitialize to the
        type."""
        tt, _doc, _source = setting
        doc_v2 = generate_catalog(12, seed=100)
        source_v2 = InMemorySource(doc_v2, tt)
        wh = Webhouse(CATALOG_ALPHABET, tree_type=tt)
        wh.ask(source_v2, query1())
        wh.reset()
        assert wh.data_tree().is_empty()
        # fresh acquisition against the updated source works
        wh.ask(source_v2, query2())
        assert wh.knowledge.contains(doc_v2)

    def test_two_sessions_do_not_share_state(self, setting):
        tt, doc, source = setting
        a = Webhouse(CATALOG_ALPHABET, tree_type=tt)
        b = Webhouse(CATALOG_ALPHABET, tree_type=tt)
        a.ask(source, query1())
        assert b.data_tree().is_empty()
        assert not b.history


class TestCrashRecovery:
    def test_truncation_at_every_byte_recovers_a_history_prefix(
        self, setting, tmp_path
    ):
        """Property: cutting the journal anywhere inside the last record
        recovers exactly the history without it; any earlier clean cut
        recovers a prefix.  Knowledge rebuilt from the recovered history
        matches refining that prefix from scratch (Theorem 3.5)."""
        from repro.incomplete.certainty import incomplete_equivalent
        from repro.refine.refine import refine_sequence
        from repro.store import SessionStore

        tt, doc, source = setting
        store = SessionStore(str(tmp_path), snapshot_every=10_000)
        wh = Webhouse(CATALOG_ALPHABET, tree_type=tt)
        wh.attach(store.create("crash", CATALOG_ALPHABET, tree_type=tt))
        for q in (query1(), query2()):
            wh.ask(source, q)
        full_history = wh.history
        session = wh.detach()
        journal_path = session.journal.path
        pristine = open(journal_path, "rb").read()
        last_newline = pristine.rindex(b"\n", 0, len(pristine) - 1)
        last_record_start = last_newline + 1

        alphabet = sorted(set(CATALOG_ALPHABET) | set(tt.alphabet))
        for cut in range(last_record_start, len(pristine)):
            with open(journal_path, "wb") as handle:
                handle.write(pristine[:cut])
            resumed = Webhouse.resume(store, "crash")
            try:
                recovered = resumed.history
                assert recovered == full_history[: len(recovered)]
                # the torn last record is gone, the rest survives
                assert len(recovered) == len(full_history) - 1
                from_scratch = refine_sequence(alphabet, list(recovered))
                assert incomplete_equivalent(resumed.value.rep.state, from_scratch)
            finally:
                resumed.detach()

        # the untouched file recovers everything
        with open(journal_path, "wb") as handle:
            handle.write(pristine)
        resumed = Webhouse.resume(store, "crash")
        assert resumed.history == full_history
        assert resumed.can_answer(query1())
        resumed.detach()


class TestMaintenanceStrategiesAgree:
    def test_minimized_and_plain_same_decisions(self, setting):
        tt, doc, source1 = setting
        source2 = InMemorySource(doc, tt)
        plain = Webhouse(CATALOG_ALPHABET, tree_type=tt)
        slim = Webhouse(CATALOG_ALPHABET, tree_type=tt, auto_minimize=True)
        for q in (query1(), query2()):
            plain.ask(source1, q)
            slim.ask(source2, q)
        for q in (query1(), query3(), query4()):
            assert plain.can_answer(q) == slim.can_answer(q)
        assert plain.may_match(query4()) == slim.may_match(query4())
        assert slim.size() <= plain.size()
