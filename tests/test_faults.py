"""The fault-injection plane: plans, scopes, injection sites, live ops.

Covers the PR-9 plumbing: spec round-trips and deterministic triggers
(:mod:`repro.faults.plan`), context-scoped arming
(:mod:`repro.faults.inject`), the store-layer injection sites (torn /
corrupt / fsync journal appends, damaged snapshot writes) together with
the recovery they force, and the ops server's ``/debug/faults``
live-plan endpoint.  The end-to-end seeded schedules live in
``tests/test_chaos.py``.
"""

from __future__ import annotations

import json
import os
import random

import pytest

import repro.obs as obs
from repro.faults.inject import (
    FaultInjected,
    active_plan,
    armed,
    check_site,
    fault_scope,
)
from repro.faults.plan import DEFAULT_STALL_MS, FaultError, FaultPlan, FaultRule
from repro.incomplete.certainty import incomplete_equivalent
from repro.mediator.webhouse import Webhouse
from repro.obs.sinks import NullSink
from repro.ops import OpsServer, demo_cluster
from repro.ops.server import drive_request
from repro.refine.refine import refine_sequence
from repro.store import Journal, SessionStore, StoreError, latest_snapshot, write_snapshot
from repro.store.snapshot import SnapshotError
from repro.workloads.catalog import (
    CATALOG_ALPHABET,
    catalog_type,
    demo_catalog,
    query1,
    query2,
)


@pytest.fixture(autouse=True)
def clean_state():
    obs.disable()
    obs.STATE.sink = NullSink()
    obs.STATE.clear()
    yield
    obs.disable()
    obs.STATE.sink = NullSink()
    obs.STATE.clear()


def full_alphabet():
    return sorted(set(CATALOG_ALPHABET) | set(catalog_type().alphabet))


# -- plan specs ------------------------------------------------------------------


class TestFaultPlanSpec:
    def test_rule_spec_round_trip(self):
        specs = [
            "store.journal.append:error",
            "store.journal.append:torn:p=0.25:frac=0.75",
            "store.snapshot.write:corrupt:nth=3",
            "ops.request:status:once:status=503",
            "cluster.task.0:stall:ms=150",
            "cluster.task.*:latency:p=0.5:ms=5",
        ]
        for spec in specs:
            rule = FaultRule.parse(spec)
            assert rule.spec() == spec
            assert FaultRule.parse(rule.spec()) == rule

    def test_plan_spec_round_trip(self):
        spec = "seed=42;store.journal.append:torn:p=0.3;ops.request:status:nth=2"
        plan = FaultPlan.parse(spec)
        assert plan.spec() == spec
        assert plan.seed == 42 and len(plan) == 2
        again = FaultPlan.parse(plan.spec())
        assert again.spec() == plan.spec()

    def test_bad_specs_raise(self):
        for bad in (
            "",
            ";;",
            "siteonly",
            "site:notaneffect",
            "site:error:p=2.0",
            "site:error:nth=0",
            "site:latency:ms=-1",
            "site:status:status=42",
            "site:torn:frac=1.5",
            "site:error:bogus=1",
            "seed=x;site:error",
        ):
            with pytest.raises(FaultError):
                FaultPlan.parse(bad)

    def test_nth_trigger_fires_exactly_once(self):
        plan = FaultPlan.parse("s:torn:nth=3")
        fired = [plan.decide("s") for _ in range(6)]
        assert [f is not None for f in fired] == [False, False, True, False, False, False]
        assert plan.fires() == 1

    def test_once_trigger(self):
        plan = FaultPlan.parse("s:torn:once")
        assert plan.decide("s") is not None
        assert all(plan.decide("s") is None for _ in range(5))

    def test_probability_trigger_is_seed_deterministic(self):
        plan = FaultPlan.parse("seed=7;s:torn:p=0.4")
        first = [plan.decide("s") is not None for _ in range(50)]
        plan.reset()
        second = [plan.decide("s") is not None for _ in range(50)]
        assert first == second and any(first) and not all(first)
        # a different seed draws a different stream
        other = FaultPlan.parse("seed=8;s:torn:p=0.4")
        assert [other.decide("s") is not None for _ in range(50)] != first

    def test_wildcard_site_matching(self):
        plan = FaultPlan.parse("cluster.task.*:error")
        assert plan.decide("store.journal.append") is None
        with pytest.raises(FaultInjected):
            with fault_scope(plan):
                check_site("cluster.task.3")

    def test_stats_count_checks_and_fires(self):
        plan = FaultPlan.parse("s:torn:nth=2;s:fsync")
        plan.decide("s")  # rule 1 misses (nth=2), rule 2 fires
        plan.decide("s")  # rule 1 fires first; rule 2 still counts the check
        stats = plan.stats()
        assert [s["checks"] for s in stats] == [2, 2]
        assert [s["fires"] for s in stats] == [1, 1]
        assert plan.fires() == 2


# -- scoping and effects ---------------------------------------------------------


class TestFaultScope:
    def test_disarmed_is_inert(self):
        assert not armed()
        assert active_plan() is None
        assert check_site("anything") is None

    def test_scope_arms_and_restores(self):
        plan = FaultPlan.parse("s:error")
        with fault_scope(plan):
            assert armed() and active_plan() is plan
        assert not armed() and active_plan() is None

    def test_none_scope_is_a_noop(self):
        with fault_scope(None):
            assert not armed()

    def test_nested_scopes_innermost_wins(self):
        outer = FaultPlan.parse("a:error")
        inner = FaultPlan.parse("b:error")
        with fault_scope(outer):
            with fault_scope(inner):
                assert active_plan() is inner
                assert check_site("a") is None  # outer plan is shadowed
            assert active_plan() is outer
            assert armed()

    def test_error_effect_raises(self):
        with fault_scope(FaultPlan.parse("s:error")):
            with pytest.raises(FaultInjected) as err:
                check_site("s")
        assert err.value.site == "s" and err.value.effect == "error"

    def test_latency_and_stall_sleep(self):
        slept = []
        with fault_scope(FaultPlan.parse("s:latency:ms=12;t:stall")):
            assert check_site("s", sleep=slept.append) is None
            assert check_site("t", sleep=slept.append) is None
        assert slept == [0.012, DEFAULT_STALL_MS / 1000.0]

    def test_data_effects_are_returned(self):
        with fault_scope(FaultPlan.parse("s:torn:frac=0.25")):
            fault = check_site("s")
        assert fault is not None
        assert fault.effect == "torn" and fault.fraction == 0.25


# -- journal injection sites -----------------------------------------------------


class TestJournalInjection:
    def _journal_with_one(self, tmp_path) -> str:
        path = str(tmp_path / "j.jsonl")
        with Journal(path) as journal:
            journal.append({"n": 1})
        return path

    def test_error_fires_before_the_write(self, tmp_path):
        path = self._journal_with_one(tmp_path)
        journal = Journal(path)
        size = os.path.getsize(path)
        with fault_scope(FaultPlan.parse("store.journal.append:error")):
            with pytest.raises(FaultInjected):
                journal.append({"n": 2})
        assert os.path.getsize(path) == size  # nothing touched: safe to retry
        journal.append({"n": 2})
        journal.close()
        assert [e["n"] for e in Journal(path).events()] == [1, 2]

    @pytest.mark.parametrize("frac", [0.1, 0.5, 0.9])
    def test_torn_append_loses_only_the_tail(self, tmp_path, frac):
        path = self._journal_with_one(tmp_path)
        journal = Journal(path)
        with fault_scope(FaultPlan.parse(f"store.journal.append:torn:frac={frac}")):
            with pytest.raises(FaultInjected):
                journal.append({"n": 2})
        # the handle is closed (crash semantics) ...
        from repro.store.journal import JournalError

        with pytest.raises(JournalError):
            journal.append({"n": 3})
        # ... and recovery keeps exactly the acknowledged prefix
        recovered = Journal(path)
        assert [e["n"] for e in recovered.events()] == [1]
        assert recovered.append({"n": 3}) == 2
        recovered.close()

    def test_corrupt_append_is_dropped_on_recovery(self, tmp_path):
        path = self._journal_with_one(tmp_path)
        journal = Journal(path)
        with fault_scope(FaultPlan.parse("store.journal.append:corrupt")):
            with pytest.raises(FaultInjected):
                journal.append({"n": 2})
        assert [e["n"] for e in Journal(path).events()] == [1]

    def test_fsync_crash_persists_the_unacknowledged_record(self, tmp_path):
        path = self._journal_with_one(tmp_path)
        journal = Journal(path)
        with fault_scope(FaultPlan.parse("store.journal.append:fsync")):
            with pytest.raises(FaultInjected):
                journal.append({"n": 2})
        # the record reached disk even though the append never returned
        assert [e["n"] for e in Journal(path).events()] == [1, 2]


# -- snapshot injection sites ----------------------------------------------------


class TestSnapshotInjection:
    def _state_and_history(self):
        history = [(query1(), query1().evaluate(demo_catalog()))]
        return refine_sequence(full_alphabet(), history), history

    @pytest.mark.parametrize("effect", ["torn", "corrupt"])
    def test_damaged_write_raises_and_leaves_nothing(self, tmp_path, effect):
        state, history = self._state_and_history()
        with fault_scope(FaultPlan.parse(f"store.snapshot.write:{effect}")):
            with pytest.raises(SnapshotError):
                write_snapshot(str(tmp_path), 5, state, history)
        assert os.listdir(str(tmp_path)) == []  # no snapshot, no temp litter
        assert latest_snapshot(str(tmp_path)) is None

    def test_recheckpoint_cannot_clobber_a_good_snapshot(self, tmp_path):
        """The regression the chaos suite found: a re-checkpoint at an
        already-snapshotted seq lands on the *same filename*; promoting
        unverified bytes would destroy the only copy of records the
        journal has compacted away."""
        state, history = self._state_and_history()
        write_snapshot(str(tmp_path), 5, state, history)
        good = latest_snapshot(str(tmp_path))
        assert good is not None
        with fault_scope(FaultPlan.parse("store.snapshot.write:torn:frac=0.8")):
            with pytest.raises(SnapshotError):
                write_snapshot(str(tmp_path), 5, state, history)
        survived = latest_snapshot(str(tmp_path))
        assert survived is not None and survived[0] == 5
        assert incomplete_equivalent(survived[1], good[1])

    def test_session_converts_snapshot_failure_to_store_error(self, tmp_path):
        store = SessionStore(str(tmp_path))
        session = store.create("s", full_alphabet(), tree_type=catalog_type())
        wh = Webhouse(full_alphabet(), tree_type=catalog_type())
        wh.attach(session)
        try:
            wh.record(query1(), query1().evaluate(demo_catalog()))
            with fault_scope(FaultPlan.parse("store.snapshot.write:corrupt")):
                with pytest.raises(StoreError):
                    wh.checkpoint()
            wh.checkpoint()  # disarmed: succeeds, nothing was lost
        finally:
            wh.detach()


# -- session-level recovery ------------------------------------------------------


class TestSessionRecovery:
    def test_torn_record_recovers_to_acknowledged_prefix(self, tmp_path):
        """One focused slice of the chaos invariant: a torn append loses
        at most the in-flight pair, and the resumed knowledge is
        equivalent to a fault-free replay of the recovered history."""
        alphabet = full_alphabet()
        store = SessionStore(str(tmp_path))
        session = store.create("s", alphabet, tree_type=catalog_type())
        wh = Webhouse(alphabet, tree_type=catalog_type())
        wh.attach(session)
        first = (query1(), query1().evaluate(demo_catalog()))
        second = (query2(), query2().evaluate(demo_catalog()))
        wh.record(*first)
        with fault_scope(FaultPlan.parse("store.journal.append:torn:frac=0.3")):
            with pytest.raises((FaultInjected, StoreError)):
                wh.record(*second)
        # abandon the handle (simulated crash; the same-pid stale lock
        # is broken on resume) and recover from disk
        resumed = Webhouse.resume(store, "s")
        try:
            assert list(resumed.history) == [first]
            reference = refine_sequence(
                alphabet, resumed.history, tree_type=catalog_type()
            )
            assert incomplete_equivalent(resumed.knowledge, reference)
            resumed.record(*second)  # the retry lands cleanly
            assert list(resumed.history) == [first, second]
        finally:
            resumed.detach()


# -- ops server ------------------------------------------------------------------


class TestOpsFaults:
    def _server(self, **kwargs) -> OpsServer:
        cluster, source = demo_cluster(shards=1, products=3)
        return OpsServer(cluster, source=source, **kwargs)

    def test_debug_faults_reports_disarmed(self):
        srv = self._server()
        status, body = drive_request(srv, "/debug/faults")
        assert status == 200
        document = json.loads(body)
        assert document == {"armed": False, "plan": None, "rules": [], "fires": 0}

    def test_install_observe_reset_disarm(self):
        srv = self._server()
        spec = "ops.request:status:nth=2:status=503"
        status, body = drive_request(srv, f"/debug/faults?plan={spec}")
        assert status == 200 and json.loads(body)["plan"] == spec
        # next dispatched request is check #1 (misses), the one after
        # that is check #2 and eats the injected 503
        status, _ = drive_request(srv, "/ask?q=q1")
        assert status == 200
        status, body = drive_request(srv, "/ask?q=q1")
        assert status == 503 and "injected fault" in body
        status, body = drive_request(srv, "/debug/faults")
        assert json.loads(body)["fires"] == 1
        status, body = drive_request(srv, "/debug/faults?reset=1")
        assert json.loads(body)["fires"] == 0
        status, body = drive_request(srv, "/debug/faults?disarm=1")
        assert json.loads(body) == {"armed": False, "plan": None, "rules": [], "fires": 0}
        status, _ = drive_request(srv, "/ask?q=q1")
        assert status == 200

    def test_bad_plan_is_a_400(self):
        srv = self._server()
        status, body = drive_request(srv, "/debug/faults?plan=nonsense")
        assert status == 400 and "bad fault plan" in body
        assert srv.fault_plan is None

    def test_injected_errors_feed_the_slo_books(self):
        """An injected 5xx is a real failed request as far as the
        always-on telemetry is concerned: availability burns."""
        plan = FaultPlan.parse("ops.request:status:status=500:p=1")
        srv = self._server(fault_plan=plan)
        for _ in range(4):
            status, _ = drive_request(srv, "/ask?q=q1")
            assert status == 500
        srv.fault_plan = None  # disarm so /slo itself answers
        status, body = drive_request(srv, "/slo")
        assert status == 200
        availability = next(
            o
            for o in json.loads(body)["slo"]["objectives"]
            if o["name"].startswith("availability")
        )
        assert availability["lifetime"]["bad"] >= 4

    def test_latency_injection_shows_in_request_latency(self):
        plan = FaultPlan.parse("ops.request:latency:ms=30:nth=1")
        srv = self._server(fault_plan=plan)
        obs.enable()  # the request's span is its latency book
        status, _ = drive_request(srv, "/ask?q=q1")
        assert status == 200  # latency delays, it does not fail
        status, body = drive_request(srv, "/slo")
        latency = json.loads(body)["latency"]["/ask"]
        assert latency["count"] >= 1 and latency["max"] >= 0.03
