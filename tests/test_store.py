"""Durable session store: codecs, journal, snapshots, SessionStore, and
the Webhouse attach/resume integration (acceptance: a journaled session
killed and resumed answers exactly like the uninterrupted one)."""

import errno
import json
import os
import subprocess

import pytest

from repro.core.conditions import Cond
from repro.core.query import PSQuery, linear_query, pattern, subtree
from repro.core.tree import DataTree, node
from repro.core.treetype import TreeType
from repro.incomplete.certainty import incomplete_equivalent
from repro.mediator.source import InMemorySource
from repro.mediator.webhouse import Webhouse
from repro.refine.refine import refine_sequence
from repro.store import (
    CodecError,
    Journal,
    SessionLockedError,
    SessionStore,
    StoreError,
    canonical_dumps,
    cond_from_json,
    cond_to_json,
    decode_document,
    encode_document,
    incomplete_from_json,
    incomplete_to_json,
    latest_snapshot,
    prune_snapshots,
    query_from_json,
    query_to_json,
    tree_from_json,
    tree_to_json,
    treetype_from_json,
    treetype_to_json,
    value_from_json,
    value_to_json,
    write_snapshot,
)
from repro.store.session import LOCK_FILENAME
from repro.workloads.catalog import (
    CATALOG_ALPHABET,
    catalog_type,
    demo_catalog,
    generate_catalog,
    query1,
    query2,
    query3,
    query4,
)


def full_alphabet():
    return sorted(set(CATALOG_ALPHABET) | set(catalog_type().alphabet))


class TestCodec:
    def test_value_round_trip(self):
        from fractions import Fraction

        for value in (Fraction(3), Fraction(-7, 2), "elec", "", "3/4"):
            assert value_from_json(value_to_json(value)) == value
        # the string "3/4" and the fraction 3/4 stay distinct sorts
        assert value_from_json(value_to_json("3/4")) != Fraction(3, 4)

    def test_value_malformed(self):
        with pytest.raises(CodecError):
            value_from_json(["x", "?"])
        with pytest.raises(CodecError):
            value_from_json(["n", "not-a-number"])
        with pytest.raises(CodecError):
            value_from_json("bare")

    def test_cond_round_trip_preserves_semantics(self):
        conds = [
            Cond.true(),
            Cond.false(),
            Cond.lt(200) & Cond.ne(100),
            (Cond.ge(10) & Cond.lt(20)) | Cond.eq("n/a"),
            ~Cond.eq("elec"),  # cofinite string set
            Cond.eq(7) | Cond.eq("x") | Cond.gt(1000),
        ]
        probes = [0, 7, 15, 100, 150, 999, 1001, "elec", "x", "n/a", "other"]
        for cond in conds:
            back = cond_from_json(cond_to_json(cond))
            for probe in probes:
                assert back.accepts(probe) == cond.accepts(probe), (cond, probe)

    def test_tree_round_trip(self):
        doc = demo_catalog()
        assert tree_from_json(tree_to_json(doc)) == doc
        assert tree_from_json(tree_to_json(DataTree.empty())).is_empty()
        single = DataTree.single("n1", "name", "Canon")
        assert tree_from_json(tree_to_json(single)) == single

    def test_query_round_trip(self):
        queries = [
            query1(),
            query2(),
            query3(),
            query4(),
            linear_query(["catalog", "product", "price"], [None, None, Cond.lt(300)]),
            PSQuery(pattern("catalog", children=[subtree("product", Cond.ne(0))])),
        ]
        doc = generate_catalog(9, seed=4)
        for query in queries:
            back = query_from_json(query_to_json(query))
            assert back == query
            assert back.evaluate(doc) == query.evaluate(doc)

    def test_treetype_round_trip(self):
        tt = catalog_type()
        back = treetype_from_json(treetype_to_json(tt))
        assert back == tt
        # leaf-only labels survive via the explicit alphabet
        bare = TreeType.parse("root: r\nr -> a*", extra_labels=["orphan"])
        assert treetype_from_json(treetype_to_json(bare)) == bare

    def test_incomplete_round_trip_preserves_semantics(self):
        tt = catalog_type()
        doc = generate_catalog(6, seed=1)
        source = InMemorySource(doc, tt)
        wh = Webhouse(CATALOG_ALPHABET, tree_type=tt)
        wh.ask(source, query1())
        wh.ask(source, query2())
        state = wh.knowledge
        back = incomplete_from_json(incomplete_to_json(state))
        assert back.allows_empty == state.allows_empty
        assert back.data_node_ids() == state.data_node_ids()
        assert back.data_tree() == state.data_tree()
        assert back.contains(doc) == state.contains(doc)
        assert incomplete_equivalent(back, state)

    def test_canonical_dumps_is_deterministic(self):
        state = refine_sequence(full_alphabet(), [(query1(), query1().evaluate(demo_catalog()))])
        a = canonical_dumps(incomplete_to_json(state))
        b = canonical_dumps(incomplete_to_json(state))
        assert a == b
        assert "\n" not in a and ": " not in a

    def test_envelope_versioning(self):
        doc = encode_document("thing", {"x": 1})
        assert decode_document("thing", doc) == {"x": 1}
        with pytest.raises(CodecError):
            decode_document("other", doc)
        with pytest.raises(CodecError):
            decode_document("thing", {**doc, "format": 99})
        with pytest.raises(CodecError):
            decode_document("thing", "not-a-dict")


class TestJournal:
    def test_append_reopen_round_trip(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with Journal(path) as journal:
            assert journal.append({"type": "record", "n": 1}) == 1
            assert journal.append({"type": "record", "n": 2}) == 2
        with Journal(path) as journal:
            events = list(journal.events())
            assert [e["n"] for e in events] == [1, 2]
            assert journal.last_seq == 2

    def test_torn_tail_is_truncated_on_open(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with Journal(path) as journal:
            journal.append({"n": 1})
            journal.append({"n": 2})
        data = open(path, "rb").read()
        open(path, "wb").write(data[:-5])  # torn final line
        with Journal(path) as journal:
            assert [e["n"] for e in journal.events()] == [1]
            journal.append({"n": 3})  # continues after the repaired tail
        with Journal(path) as journal:
            assert [e["n"] for e in journal.events()] == [1, 3]
            assert journal.records()[-1].seq == 2

    def test_corrupt_line_stops_replay(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with Journal(path) as journal:
            journal.append({"n": 1})
            journal.append({"n": 2})
        data = open(path, "rb").read().splitlines(keepends=True)
        data[0] = b"00000000 " + data[0][9:]  # bad checksum on record 1
        open(path, "wb").writelines(data)
        with Journal(path) as journal:
            assert len(journal) == 0  # later records need the contiguous run

    def test_compaction_preserves_sequence_numbers(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with Journal(path) as journal:
            for n in range(1, 6):
                journal.append({"n": n})
            assert journal.compact(3) == 3
            assert [record.seq for record in journal.records()] == [4, 5]
            journal.append({"n": 6})
            assert journal.last_seq == 6
        with Journal(path) as journal:
            assert [record.seq for record in journal.records()] == [4, 5, 6]

    def test_seq_floor_after_full_compaction(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with Journal(path) as journal:
            journal.append({"n": 1})
            journal.compact(1)
            assert len(journal) == 0
            assert journal.last_seq == 1
            assert journal.append({"n": 2}) == 2
        # ...but an empty file alone cannot remember the floor: sessions
        # re-seed it from the snapshot seq via ensure_seq_floor
        fresh = Journal(str(tmp_path / "j2.jsonl"))
        fresh.ensure_seq_floor(7)
        assert fresh.append({"n": 1}) == 8
        fresh.close()

    def test_truncation_at_every_offset_of_the_final_record(self, tmp_path):
        """A crash can cut the tail anywhere — inside the 8-char length
        prefix, the checksum, exactly at the header/body boundary, or
        mid-body.  Every cut must open cleanly as [first record]."""
        path = str(tmp_path / "j.jsonl")
        with Journal(path) as journal:
            journal.append({"n": 1, "pad": "x" * 40})
        first_len = os.path.getsize(path)
        with Journal(path) as journal:
            journal.append({"n": 2, "pad": "y" * 40})
        data = open(path, "rb").read()
        for cut in range(first_len, len(data)):
            open(path, "wb").write(data[:cut])
            with Journal(path) as journal:
                assert [e["n"] for e in journal.events()] == [1], f"cut at {cut}"
                assert journal.append({"n": 3}) == 2  # tail repaired in place
        # an untruncated file still reads both, of course
        open(path, "wb").write(data)
        with Journal(path) as journal:
            assert [e["n"] for e in journal.events()] == [1, 2]

    def test_truncation_inside_the_first_record_empties_the_log(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with Journal(path) as journal:
            journal.append({"n": 1})
        data = open(path, "rb").read()
        for cut in (1, 5, 8, 9, 17, 18, len(data) - 1):
            open(path, "wb").write(data[:cut])
            with Journal(path) as journal:
                assert len(journal) == 0
                assert journal.append({"n": 1}) == 1

    def test_legacy_v1_lines_still_read(self, tmp_path):
        """Files written before the length-prefixed v2 format must stay
        readable, and appends continue (in v2) after the v1 prefix."""
        import zlib

        path = str(tmp_path / "j.jsonl")
        with open(path, "wb") as handle:
            for seq in (1, 2):
                body = canonical_dumps(
                    {"seq": seq, "event": {"n": seq}}
                ).encode("utf-8")
                crc = zlib.crc32(body) & 0xFFFFFFFF
                handle.write(b"%08x " % crc + body + b"\n")
        with Journal(path) as journal:
            assert [e["n"] for e in journal.events()] == [1, 2]
            assert journal.append({"n": 3}) == 3
        with Journal(path) as journal:  # mixed v1+v2 file re-reads fine
            assert [e["n"] for e in journal.events()] == [1, 2, 3]

    def test_torn_v1_tail_is_truncated_too(self, tmp_path):
        import zlib

        path = str(tmp_path / "j.jsonl")
        body = canonical_dumps({"seq": 1, "event": {"n": 1}}).encode("utf-8")
        line = b"%08x " % (zlib.crc32(body) & 0xFFFFFFFF) + body + b"\n"
        open(path, "wb").write(line + line[: len(line) // 2])
        with Journal(path) as journal:
            assert [e["n"] for e in journal.events()] == [1]


class TestSnapshot:
    def _state_and_history(self):
        history = [(query1(), query1().evaluate(demo_catalog()))]
        return refine_sequence(full_alphabet(), history), history

    def test_write_and_load(self, tmp_path):
        state, history = self._state_and_history()
        write_snapshot(str(tmp_path), 5, state, history)
        loaded = latest_snapshot(str(tmp_path))
        assert loaded is not None
        upto, loaded_state, loaded_history = loaded
        assert upto == 5
        assert incomplete_equivalent(loaded_state, state)
        assert loaded_history == history

    def test_corrupt_snapshot_falls_back_to_older(self, tmp_path):
        state, history = self._state_and_history()
        write_snapshot(str(tmp_path), 3, state, history)
        newest = write_snapshot(str(tmp_path), 9, state, history)
        raw = open(newest).read()
        open(newest, "w").write(raw[: len(raw) // 2])  # crash mid-write shape
        loaded = latest_snapshot(str(tmp_path))
        assert loaded is not None and loaded[0] == 3

    def test_all_corrupt_means_pure_replay(self, tmp_path):
        state, history = self._state_and_history()
        path = write_snapshot(str(tmp_path), 3, state, history)
        open(path, "w").write("{}")
        assert latest_snapshot(str(tmp_path)) is None

    def test_prune_keeps_newest(self, tmp_path):
        state, history = self._state_and_history()
        for upto in (1, 2, 3, 4):
            write_snapshot(str(tmp_path), upto, state, history)
        assert prune_snapshots(str(tmp_path), keep=2) == 2
        loaded = latest_snapshot(str(tmp_path))
        assert loaded is not None and loaded[0] == 4


class TestSessionStore:
    def test_create_open_list_delete(self, tmp_path):
        store = SessionStore(str(tmp_path))
        session = store.create("alpha", CATALOG_ALPHABET, tree_type=catalog_type())
        session.close()
        assert store.list_sessions() == ["alpha"]
        assert store.exists("alpha") and not store.exists("beta")
        with store.open("alpha") as session:
            assert session.name == "alpha"
            assert session.tree_type() == catalog_type()
            assert set(CATALOG_ALPHABET) <= set(session.alphabet())
        store.delete("alpha")
        assert store.list_sessions() == []
        with pytest.raises(StoreError):
            store.open("alpha")

    def test_duplicate_create_rejected(self, tmp_path):
        store = SessionStore(str(tmp_path))
        store.create("dup", CATALOG_ALPHABET).close()
        with pytest.raises(StoreError):
            store.create("dup", CATALOG_ALPHABET)

    def test_invalid_names_rejected(self, tmp_path):
        store = SessionStore(str(tmp_path))
        for bad in ("", ".", "..", "a/b", ".hidden"):
            with pytest.raises(StoreError):
                store.create(bad, CATALOG_ALPHABET)

    def test_live_lock_conflicts(self, tmp_path):
        store = SessionStore(str(tmp_path))
        session = store.create("locked", CATALOG_ALPHABET)
        # pid 1 is alive and is not us: simulate another live writer
        with open(os.path.join(session.directory, LOCK_FILENAME), "w") as handle:
            handle.write("1")
        with pytest.raises(SessionLockedError):
            store.open("locked")
        with pytest.raises(SessionLockedError):
            store.delete("locked")
        session.close()  # releases by removing the lock file

    def test_stale_lock_is_broken(self, tmp_path):
        store = SessionStore(str(tmp_path))
        store.create("stale", CATALOG_ALPHABET).close()
        dead = subprocess.Popen(["true"])
        dead.wait()
        lock_path = os.path.join(str(tmp_path), "stale", LOCK_FILENAME)
        with open(lock_path, "w") as handle:
            handle.write(str(dead.pid))
        with store.open("stale") as session:  # stale lock broken silently
            assert session.name == "stale"

    def test_a_failed_open_is_not_a_missing_session(self, tmp_path, monkeypatch):
        """Only a missing ``meta.json`` reads ``no such session``; any
        other open failure, such as running out of descriptors, names
        its own cause."""
        store = SessionStore(str(tmp_path))
        store.create("busy", CATALOG_ALPHABET).close()

        def exhausted(*args, **kwargs):
            raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))

        monkeypatch.setattr("repro.store.session.open", exhausted, raising=False)
        for read in (store.open, store.peek):
            with pytest.raises(StoreError) as excinfo:
                read("busy")
            message = str(excinfo.value)
            assert "no such session" not in message
            assert os.strerror(errno.EMFILE) in message
            assert isinstance(excinfo.value.__cause__, OSError)
        monkeypatch.undo()
        for read in (store.open, store.peek):
            with pytest.raises(StoreError, match="no such session 'absent'"):
                read("absent")

    def test_fork_copies_knowledge(self, tmp_path):
        tt = catalog_type()
        doc = generate_catalog(8, seed=2)
        store = SessionStore(str(tmp_path))
        wh = Webhouse(CATALOG_ALPHABET, tree_type=tt)
        wh.attach(store.create("orig", CATALOG_ALPHABET, tree_type=tt))
        wh.ask(InMemorySource(doc, tt), query1())
        wh.detach()
        store.fork("orig", "copy")
        copy = Webhouse.resume(store, "copy")
        orig = Webhouse.resume(store, "orig")
        assert copy.history == orig.history
        assert copy.can_answer(query1())
        # diverging the copy leaves the original untouched
        copy.ask(InMemorySource(doc, tt), query2())
        assert len(copy.history) == 2 and len(orig.history) == 1
        copy.detach()
        orig.detach()


@pytest.fixture()
def setting(tmp_path):
    tt = catalog_type()
    doc = generate_catalog(10, seed=42)
    return tt, doc, InMemorySource(doc, tt), SessionStore(str(tmp_path))


class TestWebhouseSessions:
    def _checks(self, wh, doc):
        return (
            wh.can_answer(query1()),
            wh.can_answer(query3()),
            wh.can_answer(query4()),
            wh.is_certain_prefix(query1().evaluate(doc)),
            wh.may_match(query4()),
            wh.data_tree(),
        )

    def test_kill_and_resume_matches_uninterrupted(self, setting):
        """Acceptance: journaled + killed + resumed == uninterrupted."""
        tt, doc, source, store = setting
        journaled = Webhouse(CATALOG_ALPHABET, tree_type=tt)
        journaled.attach(store.create("s", CATALOG_ALPHABET, tree_type=tt))
        uninterrupted = Webhouse(CATALOG_ALPHABET, tree_type=tt)
        for query in (query1(), query2()):
            journaled.ask(source, query)
            uninterrupted.ask(InMemorySource(doc, tt), query)
        expected = self._checks(uninterrupted, doc)
        journaled.detach()  # the process "dies"

        resumed = Webhouse.resume(store, "s")
        assert self._checks(resumed, doc) == expected
        assert resumed.history == uninterrupted.history
        assert incomplete_equivalent(resumed.value.rep.state, uninterrupted.value.rep.state)
        resumed.detach()

    def test_pure_replay_and_snapshot_paths_agree(self, setting):
        tt, doc, source, store = setting
        replay_store = SessionStore(store.root, snapshot_every=10_000)
        snap_store = SessionStore(store.root, snapshot_every=1)
        for store_variant, name in ((replay_store, "replay"), (snap_store, "snap")):
            wh = Webhouse(CATALOG_ALPHABET, tree_type=tt)
            wh.attach(store_variant.create(name, CATALOG_ALPHABET, tree_type=tt))
            for query in (query1(), query2()):
                wh.ask(InMemorySource(doc, tt), query)
            wh.detach()

        via_replay = Webhouse.resume(replay_store, "replay")
        via_snapshot = Webhouse.resume(snap_store, "snap")
        # one went through checkpoint + suffix, the other replayed all
        assert via_replay.session.info()["snapshots"] == 0
        assert via_snapshot.session.info()["snapshots"] >= 1
        assert via_replay.history == via_snapshot.history
        assert incomplete_equivalent(via_replay.value.rep.state, via_snapshot.value.rep.state)
        assert self._checks(via_replay, doc) == self._checks(via_snapshot, doc)
        via_replay.detach()
        via_snapshot.detach()

    def test_snapshot_equals_theorem_3_5_replay(self, setting):
        """Snapshot + suffix must equal refine_sequence over the history."""
        tt, doc, source, store = setting
        snap_store = SessionStore(store.root, snapshot_every=2)
        wh = Webhouse(CATALOG_ALPHABET, tree_type=tt)
        wh.attach(snap_store.create("t35", CATALOG_ALPHABET, tree_type=tt))
        for query in (query1(), query2(), query4()):
            wh.ask(source, query)
        wh.detach()
        resumed = Webhouse.resume(snap_store, "t35")
        from_scratch = refine_sequence(full_alphabet(), list(resumed.history))
        assert incomplete_equivalent(resumed.value.rep.state, from_scratch)
        resumed.detach()

    def test_resume_decodes_the_snapshot_once(self, setting, monkeypatch):
        """Opening a session decodes its newest snapshot and the replay
        reuses it: one snapshot read per resume."""
        from repro.store import snapshot

        tt, doc, source, store = setting
        snap_store = SessionStore(store.root, snapshot_every=1)
        wh = Webhouse(CATALOG_ALPHABET, tree_type=tt)
        wh.attach(snap_store.create("once", CATALOG_ALPHABET, tree_type=tt))
        for query in (query1(), query2()):
            wh.ask(source, query)
        wh.detach()
        reads = []
        read = snapshot._read_snapshot
        monkeypatch.setattr(
            snapshot, "_read_snapshot", lambda path: reads.append(path) or read(path)
        )
        resumed = Webhouse.resume(snap_store, "once")
        try:
            assert len(reads) == 1
            assert resumed.history == wh.history
        finally:
            resumed.detach()

    def test_reset_and_compact_survive_resume(self, setting):
        tt, doc, source, store = setting
        wh = Webhouse(CATALOG_ALPHABET, tree_type=tt)
        wh.attach(store.create("rc", CATALOG_ALPHABET, tree_type=tt))
        wh.ask(source, query1())
        wh.reset()
        wh.ask(source, query2())
        wh.compact()
        expected = (len(wh.history), wh.can_answer(query2()), wh.data_tree())
        expected_state = wh.value.rep.state
        wh.detach()
        resumed = Webhouse.resume(store, "rc")
        assert (
            len(resumed.history),
            resumed.can_answer(query2()),
            resumed.data_tree(),
        ) == expected
        assert incomplete_equivalent(resumed.value.rep.state, expected_state)
        resumed.detach()

    def test_attach_fresh_session_journals_existing_history(self, setting):
        tt, doc, source, store = setting
        wh = Webhouse(CATALOG_ALPHABET, tree_type=tt)
        wh.ask(source, query1())  # before any session exists
        wh.attach(store.create("late", CATALOG_ALPHABET, tree_type=tt))
        wh.ask(source, query2())
        wh.detach()
        resumed = Webhouse.resume(store, "late")
        assert len(resumed.history) == 2
        assert resumed.can_answer(query1())
        resumed.detach()

    def test_attach_conflicts_are_rejected(self, setting):
        tt, doc, source, store = setting
        wh = Webhouse(CATALOG_ALPHABET, tree_type=tt)
        session = store.create("conflict", CATALOG_ALPHABET, tree_type=tt)
        wh.attach(session)
        with pytest.raises(ValueError):
            wh.attach(session)
        wh.ask(source, query1())
        wh.detach()
        other = Webhouse(CATALOG_ALPHABET, tree_type=tt)
        other.ask(source, query2())
        with pytest.raises(ValueError):
            other.attach(store.open("conflict"))

    def test_history_is_immutable_from_outside(self, setting):
        tt, doc, source, store = setting
        wh = Webhouse(CATALOG_ALPHABET, tree_type=tt)
        wh.ask(source, query1())
        exposed = wh.history
        assert isinstance(exposed, tuple)
        with pytest.raises(AttributeError):
            exposed.append((query2(), DataTree.empty()))
        assert len(wh.history) == 1

    def test_unattached_webhouse_still_works(self, setting):
        tt, doc, source, _store = setting
        wh = Webhouse(CATALOG_ALPHABET, tree_type=tt)
        wh.ask(source, query1())
        assert wh.session is None
        assert wh.detach() is None
        assert wh.checkpoint() is None

    def test_obs_counters_cover_store_operations(self, setting):
        import repro.obs as obs

        tt, doc, source, store = setting
        snap_store = SessionStore(store.root, snapshot_every=1)
        obs.reset()
        with obs.capture():
            wh = Webhouse(CATALOG_ALPHABET, tree_type=tt)
            wh.attach(snap_store.create("obs", CATALOG_ALPHABET, tree_type=tt))
            wh.ask(source, query1())
            wh.detach()
            resumed = Webhouse.resume(snap_store, "obs")
            resumed.detach()
            assert obs.metrics.value("store.journal.appends") >= 1
            assert obs.metrics.value("store.snapshot.writes") >= 1
            assert obs.metrics.value("webhouse.resumes") == 1
            span_names = {root.name for root in obs.traces()}
        assert "store.session.recover" in span_names


class TestSessionCli:
    def _run(self, argv):
        from repro.__main__ import main

        return main(["repro", "session", *argv])

    def test_full_cli_cycle(self, tmp_path, capsys):
        root = str(tmp_path / "sessions")
        assert self._run(["create", "demo", "--root", root, "--products", "8", "--seed", "3"]) == 0
        assert self._run(["ask", "demo", "q1", "--root", root]) == 0
        assert self._run(["ask", "demo", "q2", "--root", root]) == 0
        capsys.readouterr()
        assert self._run(["answer", "demo", "q3", "--root", root]) == 0
        reply = json.loads(capsys.readouterr().out)
        assert reply["answerable"] is True and reply["queries_recorded"] == 2
        assert self._run(["compact", "demo", "--root", root]) == 0
        compacted = json.loads(capsys.readouterr().out)
        assert compacted["snapshots"] >= 1 and compacted["mutations_pending"] == 0
        assert self._run(["ask", "demo", "catalog/product/price[<300]", "--root", root]) == 0
        capsys.readouterr()
        assert self._run(["info", "demo", "--root", root]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["queries_recorded"] == 3
        assert self._run(["list", "--root", root]) == 0
        assert json.loads(capsys.readouterr().out)["sessions"] == ["demo"]
        assert self._run(["delete", "demo", "--root", root]) == 0

    def test_cli_errors(self, tmp_path, capsys):
        root = str(tmp_path / "sessions")
        assert self._run([]) == 2
        assert self._run(["nonsense"]) == 2
        assert self._run(["ask", "ghost", "q1", "--root", root]) == 1
        assert self._run(["create", "x", "y", "--root", root]) == 1
        capsys.readouterr()

    def test_query_spec_parsing(self):
        """The CLI's QUERY argument: a named query or a slash path."""
        from repro.core.parsing import parse_query_spec
        from repro.workloads.catalog import named_queries

        named = named_queries()
        doc = generate_catalog(8, seed=3)
        assert parse_query_spec("q1", named=named) == query1()
        spec = parse_query_spec("catalog/product/price[<300]", named=named)
        expected = linear_query(
            ["catalog", "product", "price"], [None, None, Cond.lt(300)]
        )
        assert spec.evaluate(doc) == expected.evaluate(doc)
        bar = parse_query_spec("catalog/~product", named=named)
        assert bar.has_bars()
        with pytest.raises(ValueError):
            parse_query_spec("catalog/~product/name", named=named)
        with pytest.raises(ValueError):
            parse_query_spec("", named=named)
