"""The cluster layer: routing, locks, admission, scatter-gather, HTTP.

Covers the PR-7 acceptance criteria: the consistent-hash router is
deterministic across processes and moves few keys on resize; concurrent
clients hammering distinct sessions across shards get unique trace ids
and fully isolated knowledge; and the certain answers are invariant
under the shard count — the same fact sequence yields identical
answers on 1, 2, and 8 shards (Theorems 3.5 / 2.8: each session's
knowledge is a pure function of its own history, and grouping sessions
into shards changes no history).
"""

from __future__ import annotations

import json
import os
import threading
import time
import urllib.error
import urllib.request

import pytest

import repro.obs as obs
from repro.cluster import (
    AdmissionController,
    Executor,
    Router,
    RWLock,
    ResiliencePolicy,
    ShardedWebhouse,
    ShardOverloaded,
    stable_hash,
)
from repro.cluster.sharded import cluster_latency
from repro.core.tree import DataTree
from repro.faults.plan import FaultPlan
from repro.mediator.local_query import overlay
from repro.mediator.source import InMemorySource
from repro.mediator.webhouse import Webhouse
from repro.obs.sinks import NullSink
from repro.obs.spans import current_trace_id, reset_trace_id, set_trace_id
from repro.ops import FlightRecorder, OpsServer, demo_cluster, drive_request
from repro.ops.server import self_check
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


@pytest.fixture(autouse=True)
def clean_state():
    """Pristine obs state around every test."""
    obs.disable()
    obs.STATE.sink = NullSink()
    obs.STATE.clear()
    yield
    obs.disable()
    obs.STATE.sink = NullSink()
    obs.STATE.clear()


def _catalog_source(products: int = 8, seed: int = 7) -> InMemorySource:
    return InMemorySource(generate_catalog(products, seed=seed), catalog_type())


def _cluster(shards: int, **kwargs) -> ShardedWebhouse:
    return ShardedWebhouse(
        CATALOG_ALPHABET, tree_type=catalog_type(), shards=shards, **kwargs
    )


def _descendants(node) -> list:
    """Every span strictly below ``node``."""
    return [span for child in node.children for span in [child, *_descendants(child)]]


def _tree_facts(tree: DataTree):
    """A comparable rendering of a data tree: (id, label, value, parent)."""
    return sorted(
        (nid, tree.label(nid), tree.value(nid), tree.parent(nid))
        for nid in tree.node_ids()
    )


# -- router ----------------------------------------------------------------------


class TestRouter:
    def test_routing_is_deterministic_across_instances(self):
        first, second = Router(8), Router(8)
        keys = [f"tenant-{i}" for i in range(200)]
        assert [first.route(k) for k in keys] == [second.route(k) for k in keys]

    def test_hash_is_process_independent(self):
        # pinned: BLAKE2b, not hash(); a PYTHONHASHSEED change or a new
        # process must not re-route journaled sessions
        assert stable_hash("repro:demo") == 3288973811430667500

    def test_distribution_is_balanced(self):
        router = Router(4)
        counts = router.distribution(f"key-{i}" for i in range(4000))
        assert set(counts) == {0, 1, 2, 3}
        for shard, count in counts.items():
            assert 500 <= count <= 1600, f"shard {shard} holds {count}/4000"

    def test_resize_moves_few_keys(self):
        keys = [f"tenant-{i}" for i in range(1000)]
        old = Router(4)
        new = old.resized(5)
        moved = old.moved_keys(new, keys)
        # ideal is 1/5 = 200; allow slack for virtual-node granularity
        assert len(moved) < 400
        for key in set(keys) - set(moved):
            assert old.route(key) == new.route(key)

    def test_resize_down_and_bounds(self):
        router = Router(3)
        assert router.resized(1).route("anything") == 0
        with pytest.raises(ValueError):
            Router(0)
        with pytest.raises(ValueError):
            Router(2, replicas=0)


# -- rwlock ----------------------------------------------------------------------


class TestRWLock:
    def test_readers_share(self):
        lock = RWLock()
        entered = threading.Barrier(3, timeout=5.0)

        def reader():
            with lock.read_locked():
                entered.wait()  # all three inside simultaneously

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5.0)
        assert lock.readers == 0

    def test_writer_excludes_readers(self):
        lock = RWLock()
        observed = []
        lock.acquire_write()
        reader = threading.Thread(
            target=lambda: (lock.acquire_read(), observed.append(lock.write_held), lock.release_read())
        )
        reader.start()
        time.sleep(0.05)
        assert observed == []  # reader blocked behind the writer
        lock.release_write()
        reader.join(timeout=5.0)
        assert observed == [False]

    def test_waiting_writer_blocks_new_readers(self):
        lock = RWLock()
        lock.acquire_read()
        writer = threading.Thread(target=lambda: (lock.acquire_write(), lock.release_write()))
        writer.start()
        time.sleep(0.05)
        late = []
        reader = threading.Thread(
            target=lambda: (lock.acquire_read(), late.append(True), lock.release_read())
        )
        reader.start()
        time.sleep(0.05)
        # writer-preferring: the late reader queues behind the waiting writer
        assert late == []
        lock.release_read()
        writer.join(timeout=5.0)
        reader.join(timeout=5.0)
        assert late == [True]


# -- admission -------------------------------------------------------------------


class TestAdmission:
    def test_shed_at_limit(self):
        control = AdmissionController(2, max_in_flight=1)
        with control.admit(0):
            with pytest.raises(ShardOverloaded) as excinfo:
                with control.admit(0):
                    pass
            assert excinfo.value.shard == 0
            with control.admit(1):  # sibling shard unaffected
                assert control.in_flight(1) == 1
        assert control.in_flight(0) == 0
        stats = control.stats()
        assert stats[0]["shed"] == 1 and stats[0]["admitted"] == 1
        assert stats[1]["shed"] == 0

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            AdmissionController(0)
        with pytest.raises(ValueError):
            AdmissionController(1, max_in_flight=0)


# -- executor --------------------------------------------------------------------


class TestExecutor:
    def test_gather_preserves_item_order(self):
        ex = Executor(max_workers=4)
        try:
            delays = [0.05, 0.0, 0.02, 0.0]

            def work(index):
                time.sleep(delays[index])
                return index

            assert ex.scatter(range(4), work) == [0, 1, 2, 3]
        finally:
            ex.shutdown()

    def test_first_exception_in_item_order_wins(self):
        ex = Executor(max_workers=4)
        try:

            def work(index):
                if index in (1, 2):
                    raise RuntimeError(f"boom-{index}")
                return index

            with pytest.raises(RuntimeError, match="boom-1"):
                ex.scatter(range(4), work)
        finally:
            ex.shutdown()

    def test_tasks_bind_shard_to_obs_context(self):
        ex = Executor(max_workers=2)
        try:
            with obs.capture():
                ex.scatter(range(3), lambda i: i)
                shards = sorted(
                    sp.attrs["shard"]
                    for root in obs.traces()
                    for sp in root.find("cluster.task")
                )
            assert shards == [0, 1, 2]
        finally:
            ex.shutdown()

    def test_pool_tasks_are_children_of_the_submitting_span(self):
        """Each pool task's ``cluster.task`` span lands under the span
        that submitted it, not as a root of its own."""
        ex = Executor(max_workers=2)
        try:
            with obs.capture():
                with obs.span("fanout") as parent:
                    ex.scatter(range(3), lambda i: i)
                roots = obs.traces()
            assert [root.name for root in roots] == ["fanout"]
            assert sorted(task.attrs["shard"] for task in parent.children) == [0, 1, 2]
        finally:
            ex.shutdown()

    def test_concurrent_fanouts_keep_their_own_children(self):
        """Pool threads serve many callers' tasks in turn; each task
        lands under its own caller's span, none is lost or adopted by
        another fan-out, and no parent is left on a pool thread's stack."""
        import sys

        ex = Executor(max_workers=4)
        callers, rounds, width = 6, 15, 4
        parents = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with obs.capture():

                def caller(tag: int) -> None:
                    for round_ in range(rounds):
                        token = set_trace_id(f"caller-{tag}-{round_}")
                        try:
                            with obs.span("fanout") as parent:
                                ex.scatter(range(width), lambda i: i)
                        finally:
                            reset_trace_id(token)
                        parents[(tag, round_)] = parent

                threads = [
                    threading.Thread(target=caller, args=(tag,)) for tag in range(callers)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                # a parentless task sees only its own span on the stack
                depths = ex.scatter(range(width), lambda i: len(obs.STATE.stack))
            assert depths == [1] * width
            assert len(parents) == callers * rounds
            for (tag, round_), parent in parents.items():
                assert sorted(task.attrs["shard"] for task in parent.children) == list(
                    range(width)
                )
                assert {task.attrs["trace_id"] for task in parent.children} == {
                    f"caller-{tag}-{round_}"
                }
            assert {root.name for root in obs.traces()} == {"fanout", "cluster.task"}
        finally:
            sys.setswitchinterval(interval)
            ex.shutdown()

    def test_single_item_runs_inline_without_a_task_span(self):
        """A one-shard fan-out is timed by its caller's span: no pool hop,
        no ``cluster.task`` span, its own shard still bound."""
        ex = Executor(max_workers=2)
        try:
            with obs.capture():
                with obs.span("fanout") as parent:
                    assert ex.scatter([2], lambda i: obs.current_shard()) == [2]
            assert parent.children == []
        finally:
            ex.shutdown()

    def test_single_shard_failure_marks_the_fanout_span(self):
        """Inline there is no task span: the fan-out's own span carries
        the error a captured outcome would otherwise hide."""
        ex = Executor(max_workers=2)
        try:
            with obs.capture():
                with obs.span("fanout") as parent:
                    (outcome,) = ex.scatter_outcomes([2], lambda i: 1 // 0)
            assert (outcome.index, outcome.ok) == (2, False)
            assert parent.attrs["error"] == "ZeroDivisionError"
        finally:
            ex.shutdown()

    def test_trace_id_crosses_thread_pool_boundary(self):
        """Executor.submit re-binds the caller's trace id in pool threads."""
        ex = Executor(max_workers=2)
        try:
            token = set_trace_id("trace-thread-pin")
            try:
                seen = ex.scatter([0, 1], lambda i: current_trace_id())
            finally:
                reset_trace_id(token)
            assert seen == ["trace-thread-pin", "trace-thread-pin"]
        finally:
            ex.shutdown()


# -- sharded webhouse ------------------------------------------------------------


class TestShardedWebhouse:
    def test_routing_and_isolation(self):
        source = _catalog_source()
        cluster = _cluster(4)
        try:
            cluster.ask("alice", source, query1())
            # bob never ingested anything: his knowledge is empty even
            # though alice's session may share bob's shard
            sure, more = cluster.answer("bob", query1())
            assert sure.is_empty() and more
            sure, more = cluster.answer("alice", query1())
            assert not more
            assert _tree_facts(sure) == _tree_facts(query1().evaluate(source.document()))
        finally:
            cluster.close()

    def test_unknown_key_does_not_create_engine(self):
        cluster = _cluster(2)
        try:
            cluster.answer("probe", query1())
            assert len(cluster) == 0 and cluster.sessions() == []
        finally:
            cluster.close()

    def test_invalid_keys_rejected(self):
        cluster = _cluster(2)
        try:
            for bad in ("", "a/b", ".hidden", ".."):
                with pytest.raises(ValueError):
                    cluster.record(bad, query1(), DataTree.empty())
        finally:
            cluster.close()

    def test_ask_all_unions_certain_answers(self):
        source = _catalog_source()
        cluster = _cluster(4)
        try:
            cluster.ask("alice", source, query1())
            cluster.ask("bob", source, query3())
            sure, more = cluster.ask_all(query1())
            assert _tree_facts(sure) == _tree_facts(query1().evaluate(source.document()))
            assert more  # bob's knowledge alone cannot answer query1
        finally:
            cluster.close()

    def test_ask_all_empty_fleet(self):
        cluster = _cluster(3)
        try:
            sure, more = cluster.ask_all(query1())
            assert sure.is_empty() and more
        finally:
            cluster.close()

    def test_stats_all_rolls_up_shards(self):
        source = _catalog_source()
        cluster = _cluster(4)
        try:
            for key in ("alice", "bob", "carol"):
                cluster.ask(key, source, query1())
            rollup = cluster.stats_all()
            assert rollup["shards"] == 4
            assert rollup["sessions"] == 3
            assert rollup["queries_recorded"] == 3
            per_shard = rollup["per_shard"]
            assert [s["shard"] for s in per_shard] == [0, 1, 2, 3]
            assert sum(s["sessions"] for s in per_shard) == 3
            gathered = sorted(k for s in per_shard for k in s["session_keys"])
            assert gathered == ["alice", "bob", "carol"]
            assert all("admitted" in s["admission"] for s in per_shard)
        finally:
            cluster.close()

    @pytest.mark.parametrize("shards", [1, 2, 8])
    def test_shard_count_invariance(self, shards):
        """The tentpole invariant: same facts, same certain answers,
        regardless of how sessions are grouped into shards."""
        source = _catalog_source(products=6)
        reference = _cluster(1)
        cluster = _cluster(shards)
        try:
            for target in (reference, cluster):
                for i in range(6):
                    key = f"tenant-{i}"
                    target.ask(key, source, query1() if i % 2 else query2())
            for query in (query1(), query2(), query3()):
                expected = reference.ask_all(query)
                actual = cluster.ask_all(query)
                assert _tree_facts(actual[0]) == _tree_facts(expected[0])
                assert actual[1] == expected[1]
            for i in range(6):
                key = f"tenant-{i}"
                exp_sure, exp_more = reference.answer(key, query1())
                act_sure, act_more = cluster.answer(key, query1())
                assert _tree_facts(act_sure) == _tree_facts(exp_sure)
                assert act_more == exp_more
        finally:
            reference.close()
            cluster.close()

    def test_resize_preserves_answers_and_moves_few(self):
        source = _catalog_source()
        cluster = _cluster(4)
        try:
            keys = [f"tenant-{i}" for i in range(20)]
            for key in keys:
                cluster.ask(key, source, query1())
            before = cluster.ask_all(query1())
            resized, moved = cluster.resized(5)
            try:
                assert len(resized) == 20
                assert len(moved) < 20  # consistent hashing: most keys stay put
                after = resized.ask_all(query1())
                assert _tree_facts(after[0]) == _tree_facts(before[0])
                for key in keys:
                    assert resized.router.route(key) == resized.shard_of(key)
            finally:
                resized.close()
        finally:
            cluster.close()

    def test_resize_keeps_resilience_and_admission(self):
        resilience = ResiliencePolicy(breaker_failures=2, ask_all_deadline_s=0.5)
        cluster = _cluster(
            2,
            admission=AdmissionController(2, max_in_flight=3),
            resilience=resilience,
        )
        try:
            resized, _ = cluster.resized(3)
            try:
                assert resized.resilience is resilience
                assert resized.breaker(2).failure_threshold == 2
                admission = resized.admission
                assert admission is not cluster.admission
                assert len(admission.stats()) == 3
                assert admission.max_in_flight == 3
            finally:
                resized.close()
        finally:
            cluster.close()

    def test_spans_carry_shard_attribute(self):
        source = _catalog_source()
        cluster = _cluster(4)
        try:
            with obs.capture():
                cluster.ask("alice", source, query1())
                shard = cluster.shard_of("alice")
                roots = obs.traces()
            cluster_spans = [sp for r in roots for sp in r.find("cluster.ask")]
            assert cluster_spans and all(
                sp.attrs["shard"] == shard for sp in cluster_spans
            )
            # engine spans opened *inside* the cluster op inherit the
            # context-bound shard, so profiles attribute Refine to shards
            engine_spans = [sp for r in roots for sp in r.find("webhouse.record")]
            assert engine_spans and all(
                sp.attrs["shard"] == shard for sp in engine_spans
            )
        finally:
            cluster.close()

    def test_concurrent_hammer_isolated_sessions(self):
        """M threads ingesting into distinct sessions: no leakage, and
        every session ends with exactly its own history."""
        source = _catalog_source()
        cluster = _cluster(4)
        errors = []

        def client(i):
            key = f"tenant-{i}"
            try:
                cluster.ask(key, source, query1())
                cluster.ask(key, source, query2())
                sure, more = cluster.answer(key, query1())
                assert not more
                assert _tree_facts(sure) == _tree_facts(
                    query1().evaluate(source.document())
                )
            except Exception as exc:  # pragma: no cover - failure path
                errors.append((key, exc))

        try:
            threads = [threading.Thread(target=client, args=(i,)) for i in range(12)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
            assert errors == []
            assert len(cluster) == 12
            rollup = cluster.stats_all()
            assert rollup["queries_recorded"] == 24
            for i in range(12):
                engine = cluster.engine(f"tenant-{i}")
                assert len(engine.history) == 2
        finally:
            cluster.close()

    def test_keyed_read_answers_while_a_write_refines(self, monkeypatch):
        """Reads take no shard lock: while a record on the same session
        is held inside Refine, a keyed read answers at once, from the
        value published before the write."""
        import repro.mediator.webhouse as webhouse_module

        source = _catalog_source()
        cluster = _cluster(1)
        try:
            cluster.ask("alice", source, query1())
            before = cluster.answer_info("alice", query2())
            inside, release = threading.Event(), threading.Event()
            refine = webhouse_module.refine

            def held_refine(*args):
                inside.set()
                release.wait(30.0)
                return refine(*args)

            monkeypatch.setattr(webhouse_module, "refine", held_refine)
            answer = query2().evaluate(source.document())
            writer = threading.Thread(
                target=cluster.record, args=("alice", query2(), answer)
            )
            writer.start()
            assert inside.wait(30.0)
            reads = []
            reader = threading.Thread(
                target=lambda: reads.append(cluster.answer_info("alice", query2()))
            )
            reader.start()
            reader.join(5.0)
            answered_during_write = bool(reads)
            release.set()
            writer.join(30.0)
            reader.join(30.0)
            assert answered_during_write, "the read waited for the write"
            during = reads[0]
            assert _tree_facts(during["sure"]) == _tree_facts(before["sure"])
            assert (during["may_have_more"], during["knowledge_size"]) == (
                before["may_have_more"],
                before["knowledge_size"],
            )
            assert during["queries_recorded"] == before["queries_recorded"] == 1
            assert cluster.answer_info("alice", query2())["queries_recorded"] == 2
        finally:
            cluster.close()

    def test_lock_free_reads_see_whole_values_under_contention(self):
        """Readers racing writers on one shard, with a tiny switch
        interval: every read's books belong to one value (the size that
        goes with the history length it reports), and writers creating
        sessions on the shard lose none of them."""
        import sys

        source = _catalog_source()
        queries = [query1(), query2(), query3(), query4()]
        reference = Webhouse(CATALOG_ALPHABET, tree_type=catalog_type())
        # before its first pair publishes, a session is unknown
        sizes = {0: {0}}
        for count, query in enumerate(queries, 1):
            reference.ask(source, query)
            sizes[count] = {reference.size()}
        cluster = _cluster(1)
        books, errors = [], []

        def guarded(work):
            def run():
                try:
                    work()
                except Exception as exc:  # surfaced by the assert below
                    errors.append(exc)
            return run

        def alice():
            for query in queries:
                cluster.ask("alice", source, query)

        def tenant(index):
            for key in (f"w{index}-a", f"w{index}-b"):
                for query in queries[:2]:
                    cluster.ask(key, source, query)

        def reader():
            for _ in range(60):
                info = cluster.answer_info("alice", query3())
                books.append((info["queries_recorded"], info["knowledge_size"]))
                cluster.sessions()

        work = [alice] + [lambda i=i: tenant(i) for i in range(4)] + [reader] * 3
        threads = [threading.Thread(target=guarded(job)) for job in work]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        try:
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            assert all(size in sizes[count] for count, size in books), books
            assert len(cluster) == 9
            assert len(cluster.engine("alice").history) == 4
            assert all(len(cluster.engine(f"w{i}-b").history) == 2 for i in range(4))
        finally:
            cluster.close()

    def test_a_session_is_unknown_until_its_first_write_publishes(self, monkeypatch):
        """While a session's first fetch is held inside Refine, a keyed
        read answers as for an unknown key and no inventory counts it."""
        import repro.mediator.webhouse as webhouse_module

        source = _catalog_source()
        cluster = _cluster(1)
        inside, release = threading.Event(), threading.Event()
        refine = webhouse_module.refine

        def held_refine(*args):
            inside.set()
            release.wait(30.0)
            return refine(*args)

        monkeypatch.setattr(webhouse_module, "refine", held_refine)
        writer = threading.Thread(target=cluster.ask, args=("alice", source, query1()))
        writer.start()
        try:
            assert inside.wait(30.0)
            during = cluster.answer_info("alice", query1())
            sessions, count = cluster.sessions(), len(cluster)
            fleet = cluster.ask_all_info(query1())
        finally:
            release.set()
            writer.join(30.0)
        try:
            assert (during["knowledge_size"], during["queries_recorded"]) == (0, 0)
            assert during["may_have_more"] and during["sure"].is_empty()
            assert (sessions, count) == ([], 0)
            assert fleet["sessions_answered"] == 0
            assert cluster.sessions() == ["alice"]
            assert cluster.answer_info("alice", query1())["queries_recorded"] == 1
        finally:
            cluster.close()

    @pytest.mark.parametrize("error", [RuntimeError, OSError])
    def test_a_failed_first_write_leaves_no_session(self, error):
        class Broken(InMemorySource):
            def ask(self, query):
                raise error("source down")

        broken = Broken(generate_catalog(8, seed=7), catalog_type())
        cluster = _cluster(1)
        try:
            with pytest.raises(error):
                cluster.ask("alice", broken, query1())
            assert cluster.sessions() == [] and len(cluster) == 0
            info = cluster.answer_info("alice", query1())
            assert (info["knowledge_size"], info["queries_recorded"]) == (0, 0)
            assert cluster.ask_all_info(query1())["sessions_answered"] == 0
            cluster.ask("alice", _catalog_source(), query1())
            assert cluster.sessions() == ["alice"]
        finally:
            cluster.close()

    def test_a_read_answers_verdict_and_books_from_one_value(self, monkeypatch):
        """Writes published on both sides of a read's answer change
        nothing in that read: the verdict and the books of a keyed
        response, and of a fleet row, come from the value it took."""
        source = _catalog_source()
        real = Webhouse.answer_with_caveats
        pending = []

        def answer_between_writes(self, *args):
            self.record(pending[0], source.ask(pending[0]))
            result = real(self, *args)
            self.record(pending[1], source.ask(pending[1]))
            return result

        def facts(info):
            return (
                _tree_facts(info["sure"]),
                info["may_have_more"],
                info["knowledge_size"],
                info.get("queries_recorded"),
            )

        for read in ("answer_info", "ask_all_info"):
            cluster = _cluster(1)
            try:
                cluster.ask("alice", source, query1())
                args = ("alice", query2()) if read == "answer_info" else (query2(),)
                before = getattr(cluster, read)(*args)
                pending[:] = [query2(), query4()]
                with monkeypatch.context() as patch:
                    patch.setattr(Webhouse, "answer_with_caveats", answer_between_writes)
                    during = getattr(cluster, read)(*args)
                assert len(cluster.engine("alice").history) == 3
                assert before["may_have_more"]
                assert facts(during) == facts(before), read
            finally:
                cluster.close()

    def test_admission_backpressure_on_keyed_ops(self):
        cluster = _cluster(
            2, admission=AdmissionController(2, max_in_flight=1)
        )
        try:
            shard = cluster.shard_of("alice")
            with cluster.admission.admit(shard):
                with pytest.raises(ShardOverloaded):
                    cluster.answer("alice", query1())
            # slot released: the same call succeeds now
            sure, more = cluster.answer("alice", query1())
            assert sure.is_empty() and more
        finally:
            cluster.close()


class TestSharedFleetKnowledge:
    #: the served ``fleet`` workload's eight specs
    SPECS = (
        "q1",
        "q2",
        "q3",
        "q4",
        "catalog/product/price[<100]",
        "catalog/product/price[<300]",
        "catalog/product/price[<500]",
        "catalog/product/name",
    )

    def test_a_cold_fleet_pass_computes_a_verdict_per_distinct_history(self):
        """The ``fleet`` workload's 33 sessions (``demo`` and 32 tenants,
        each fetching two consecutive specs) hold 9 distinct histories.
        Equal histories share one value, so a cold fleet-wide pass over
        the 8 specs computes 9 x 8 verdicts, not 33 x 8."""
        import repro.perf as perf
        from repro.core.parsing import parse_query_spec
        from repro.workloads.catalog import named_queries

        queries = [parse_query_spec(spec, named=named_queries()) for spec in self.SPECS]
        obs.enable(NullSink())
        perf.clear_caches()
        with perf.cached():
            cluster, source = demo_cluster(1, products=16)
            try:
                for tenant in range(32):
                    for step in range(2):
                        query = queries[(tenant + step) % len(queries)]
                        cluster.ask(f"t{tenant:03d}", source, query)
                assert len(cluster) == 33
                before = obs.metrics.value("webhouse.verdict_misses")
                for query in queries:
                    cluster.ask_all(query)
                assert obs.metrics.value("webhouse.verdict_misses") - before == 72
            finally:
                cluster.close()
                perf.clear_caches()


# -- durability ------------------------------------------------------------------


class TestDurableCluster:
    @pytest.mark.parametrize("fault", ["journal", "source"])
    def test_a_failed_first_write_is_revived_from_disk(self, tmp_path, fault):
        """A durable session whose first write fails is on disk, so it
        is revived from its journal and stays visible, as a restart
        would find it; the next write lands on it."""
        from repro.faults.inject import FaultInjected, fault_scope

        class Broken(InMemorySource):
            def ask(self, query):
                raise RuntimeError("source down")

        cluster = _cluster(1, store=SessionStore(str(tmp_path)))
        try:
            if fault == "journal":
                with fault_scope(FaultPlan.parse("store.journal.append:error")):
                    with pytest.raises(FaultInjected):
                        cluster.ask("alice", _catalog_source(), query1())
            else:
                broken = Broken(generate_catalog(8, seed=7), catalog_type())
                with pytest.raises(RuntimeError):
                    cluster.ask("alice", broken, query1())
            assert cluster.sessions() == ["alice"]
            assert cluster.answer_info("alice", query1())["queries_recorded"] == 0
            cluster.ask("alice", _catalog_source(), query1())
            assert cluster.answer_info("alice", query1())["queries_recorded"] == 1
        finally:
            cluster.close()

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
    )
    def test_a_revive_closes_the_engine_it_drops(self, tmp_path):
        """The revive path closes the dropped engine's session before
        it resumes one from disk, so a reader still holding the dropped
        engine keeps no journal open: 20 revived writes leave the
        process's open descriptors where they were."""
        from repro.faults.inject import fault_scope

        source = _catalog_source()
        cluster = _cluster(1, store=SessionStore(str(tmp_path)))
        keys = [f"tenant-{i}" for i in range(20)]
        try:
            for key in keys:
                cluster.ask(key, source, query1())
            held = [cluster.engine(key) for key in keys]  # as readers do
            before = len(os.listdir("/proc/self/fd"))
            for key in keys:
                with fault_scope(FaultPlan.parse("store.journal.append:error:once")):
                    cluster.ask(key, source, query2())
            assert len(os.listdir("/proc/self/fd")) == before
            assert all(engine.session is None for engine in held)
            assert all(cluster.engine(key) is not engine for key, engine in zip(keys, held))
            assert cluster.answer_info(keys[0], query1())["queries_recorded"] == 2
        finally:
            cluster.close()

    @pytest.mark.parametrize("reopen", [1, 2, 3, 8])
    def test_cluster_resumes_sessions_into_same_shards(self, tmp_path, reopen):
        """Written at 3 shards and reopened at any count, every session
        comes back on the shard its key routes to, with its full
        history: sessions live flat under the root, so routing is an
        in-memory decision."""
        source = _catalog_source()
        cluster = _cluster(3, store=SessionStore(str(tmp_path)))
        keys = [f"tenant-{i}" for i in range(12)]
        try:
            for i, key in enumerate(keys):
                cluster.ask(key, source, query1())
                if i % 2:
                    cluster.ask(key, source, query2())
            before = {key: cluster.answer_info(key, query1()) for key in keys}
        finally:
            cluster.close()

        resumed = _cluster(reopen, store=SessionStore(str(tmp_path)))
        try:
            assert resumed.sessions() == sorted(keys)
            per_shard = resumed.stats_all()["per_shard"]
            for key in keys:
                shard = resumed.shard_of(key)
                assert key in per_shard[shard]["session_keys"]
                info = resumed.answer_info(key, query1())
                assert info["queries_recorded"] == before[key]["queries_recorded"]
                assert _tree_facts(info["sure"]) == _tree_facts(before[key]["sure"])
                assert info["may_have_more"] == before[key]["may_have_more"]
        finally:
            resumed.close()

    @pytest.mark.parametrize("op", ["record", "ask"])
    def test_resent_record_lands_once(self, tmp_path, op):
        """A client re-sending the pair it just wrote — by ``record`` or
        by a keyed fetch — does not double-record it, open or after a
        restart."""
        source = _catalog_source()
        query = query1()
        answer = source.ask(query)
        cluster = _cluster(2, store=SessionStore(str(tmp_path)))
        try:
            for _ in range(2):
                if op == "record":
                    cluster.record("alice", query, answer)
                else:
                    cluster.ask("alice", source, query)
            assert cluster.answer_info("alice", query)["queries_recorded"] == 1
        finally:
            cluster.close()
        resumed = _cluster(2, store=SessionStore(str(tmp_path)))
        try:
            assert resumed.answer_info("alice", query)["queries_recorded"] == 1
        finally:
            resumed.close()

    def test_session_created_after_resize_is_journaled(self, tmp_path):
        """resized() hands the store over: a session the new pool
        creates is journaled, an old one keeps journaling, and both
        survive a reopen."""
        source = _catalog_source()
        cluster = _cluster(2, store=SessionStore(str(tmp_path)))
        try:
            cluster.ask("alice", source, query1())
            resized, _ = cluster.resized(3)
        finally:
            cluster.close()  # the old pool holds nothing after the hand-over
        try:
            resized.ask("alice", source, query2())
            resized.ask("bob", source, query2())
        finally:
            resized.close()
        reopened = _cluster(3, store=SessionStore(str(tmp_path)))
        try:
            assert reopened.sessions() == ["alice", "bob"]
            assert reopened.answer_info("alice", query1())["queries_recorded"] == 2
            assert reopened.answer_info("bob", query1())["queries_recorded"] == 1
        finally:
            reopened.close()

    def test_pool_and_session_cli_share_the_root(self, tmp_path):
        """A durable pool and ``python -m repro session`` see the same
        sessions: the pool resumes one the CLI created, and the CLI
        reads one the pool wrote."""
        from repro.__main__ import main

        root = str(tmp_path)
        session = ["repro", "session"]
        assert main([*session, "create", "cli", "--root", root, "--seed", "7"]) == 0
        assert main([*session, "ask", "cli", "q1", "--root", root]) == 0
        source = _catalog_source()
        cluster = _cluster(2, store=SessionStore(root))
        try:
            assert cluster.sessions() == ["cli"]
            assert cluster.answer_info("cli", query1())["queries_recorded"] == 1
            cluster.ask("pool", source, query1())
        finally:
            cluster.close()
        assert SessionStore(root).list_sessions() == ["cli", "pool"]
        resumed = Webhouse.resume(SessionStore(root), "pool")
        try:
            assert len(resumed.history) == 1
        finally:
            resumed.detach()


# -- mono reference --------------------------------------------------------------

_KEYS = [f"tenant-{i}" for i in range(6)]


def _drive(cluster: ShardedWebhouse, source):
    """One deterministic workload; comparable per-key + fleet facts."""
    queries = [query1(), query2(), query3()]
    for i, key in enumerate(_KEYS):
        cluster.ask(key, source, queries[i % 3])
    out = []
    for key in _KEYS:
        sure, more = cluster.answer(key, queries[0])
        out.append((key, _tree_facts(sure), more))
    union, more = cluster.ask_all(queries[1])
    out.append(("fleet", _tree_facts(union), more))
    return out


def _mono_reference(source):
    """The same workload on bare per-key engines — the paper baseline."""
    queries = [query1(), query2(), query3()]
    engines = {}
    for i, key in enumerate(_KEYS):
        engine = engines.setdefault(
            key, Webhouse(CATALOG_ALPHABET, tree_type=catalog_type())
        )
        engine.ask(source, queries[i % 3])
        engine.prepare()
    out = []
    for key in _KEYS:
        sure, more = engines[key].answer_with_caveats(queries[0])
        out.append((key, _tree_facts(sure), more))
    merged = None
    more_any = False
    for key in sorted(engines):
        sure, more = engines[key].answer_with_caveats(queries[1])
        more_any = more_any or more
        if not sure.is_empty():
            merged = sure if merged is None else overlay(merged, sure)
    out.append(
        (
            "fleet",
            _tree_facts(merged if merged is not None else DataTree.empty()),
            more_any,
        )
    )
    return out


@pytest.mark.parametrize("shards", [1, 2, 8])
def test_certain_answers_match_mono_reference(tmp_path, shards):
    """A durable cluster answers bit-for-bit like one bare engine per key."""
    source = _catalog_source()
    cluster = _cluster(shards, store=SessionStore(str(tmp_path)))
    try:
        assert _drive(cluster, source) == _mono_reference(source)
    finally:
        cluster.close()


def test_in_memory_answers_match_mono_reference():
    source = _catalog_source()
    cluster = _cluster(2)
    try:
        assert _drive(cluster, source) == _mono_reference(source)
    finally:
        cluster.close()


# -- HTTP cluster plane ----------------------------------------------------------


def _get(url: str, timeout: float = 10.0):
    """(status, headers, body-bytes), following HTTPError for 4xx/5xx."""
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            return resp.status, resp.headers, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.headers, exc.read()


@pytest.fixture()
def cluster_server():
    """A live ops server fronting a 4-shard demo pool, obs enabled."""
    obs.enable(obs.RingBufferSink())
    cluster, source = demo_cluster(shards=4, products=4)
    srv = OpsServer(cluster=cluster, source=source).start()
    yield srv
    srv.stop()
    cluster.close()


class TestClusterHTTP:
    def test_routed_ask_and_fleet_union(self, cluster_server):
        base = cluster_server.url
        status, _, body = _get(f"{base}/ask?q=q1&session=demo")
        assert status == 200
        routed = json.loads(body)
        assert routed["session"] == "demo"
        assert routed["shard"] == cluster_server.cluster.shard_of("demo")
        assert routed["may_have_more"] is False

        status, _, body = _get(f"{base}/ask?q=q1")
        assert status == 200
        fleet = json.loads(body)
        assert fleet["scope"] == "fleet"
        assert fleet["sure_nodes"] == routed["sure_nodes"]
        # the fan-out's one pass books the fleet inventory too
        pool = cluster_server.cluster
        assert fleet["sessions"] == len(pool)
        assert fleet["knowledge_size"] == pool.size()

    def test_fleet_request_is_one_trace_tree(self):
        """A sessionless ``/ask`` on four shards leaves one recorder
        trace holding every shard's task, engine work included."""
        obs.enable(NullSink())
        cluster, source = demo_cluster(shards=4, products=4, tenants=8)
        server = OpsServer(cluster, source=source)
        try:
            per_shard = cluster.stats_all()["per_shard"]
            assert all(stats["sessions"] >= 1 for stats in per_shard)
            obs.STATE.clear()
            status, _ = drive_request(server, "/ask?q=q1")
            assert status == 200
            (root,) = server.recorder.roots()
            trace_id = root.attrs["trace_id"]
            tasks = root.find("cluster.task")
            assert len(tasks) == 4
            assert sorted(task.attrs["shard"] for task in tasks) == [0, 1, 2, 3]
            assert all(task.attrs["trace_id"] == trace_id for task in tasks)
            assert all(task.children for task in tasks)  # the engine work
            assert not [r for r in obs.traces() if r.name == "cluster.task"]
        finally:
            cluster.close()

    def test_degraded_fleet_ask_says_which_shard_and_why(self):
        """A shard task failing under the fault plan degrades the fan-out:
        200, ``degraded``, and the shard named in ``failed_shards`` — in
        the response, on the trace root and in the request log."""
        obs.enable(NullSink())
        cluster, source = demo_cluster(shards=3, products=4, tenants=6)
        server = OpsServer(
            cluster,
            source=source,
            fault_plan=FaultPlan.parse("cluster.task.1:error"),
            recorder=FlightRecorder(head_rate=0.0),
        )
        try:
            status, body = drive_request(server, "/ask?q=q1")
            assert status == 200
            document = json.loads(body)
            assert document["degraded"] is True
            assert document["may_have_more"] is True
            assert list(document["failed_shards"]) == ["1"]
            assert "FaultInjected" in document["failed_shards"]["1"]
            # kept for its error, not the head draw: the failed task's
            # span is in the trace, marked
            (root,) = server.recorder.roots()
            assert root.attrs["keep"] == "error"
            assert root.attrs["degraded"] is True
            assert "FaultInjected" in root.attrs["failed_shards"][1]
            (failed,) = [t for t in root.find("cluster.task") if t.attrs["shard"] == 1]
            assert failed.attrs["error"] == "FaultInjected"
            (record,) = server.request_log.recent(1)
            assert record["degraded"] is True
            assert "FaultInjected" in record["failed_shards"][1]
        finally:
            cluster.close()

    def test_fetch_needs_session(self, cluster_server):
        status, _, body = _get(f"{cluster_server.url}/ask?q=q1&mode=fetch")
        assert status == 400
        assert "session" in json.loads(body)["error"]

    def test_fetch_creates_routed_session(self, cluster_server):
        base = cluster_server.url
        status, _, body = _get(f"{base}/ask?q=q2&session=newbie&mode=fetch")
        assert status == 200
        assert json.loads(body)["session"] == "newbie"
        assert "newbie" in cluster_server.cluster.sessions()

    def test_statusz_carries_shard_rollup(self, cluster_server):
        status, _, body = _get(f"{cluster_server.url}/statusz")
        assert status == 200
        document = json.loads(body)
        assert document["shards"] == 4
        rollup = document["cluster"]
        assert len(rollup["per_shard"]) == 4
        assert rollup["sessions"] >= 1

    def test_metrics_export_shard_series(self, cluster_server):
        from repro.obs.export import validate_prometheus_text

        status, _, body = _get(f"{cluster_server.url}/metrics")
        assert status == 200
        samples = validate_prometheus_text(body.decode())
        shard_series = [n for n in samples if n.startswith("repro_shard_")]
        assert any(n.endswith("_sessions") for n in shard_series)
        assert any(n.endswith("_knowledge_size") for n in shard_series)
        assert "repro_cluster_shards" in samples

    def test_overloaded_shard_returns_503(self, cluster_server):
        from repro.obs.export import validate_prometheus_text

        cluster = cluster_server.cluster
        shard = cluster.shard_of("demo")
        limit = cluster.admission.max_in_flight
        with _hold_slots(cluster, shard, limit):
            status, headers, body = _get(
                f"{cluster_server.url}/ask?q=q1&session=demo"
            )
        assert status == 503
        assert headers.get("Retry-After") == "1"
        assert "in-flight limit" in json.loads(body)["error"]
        # the shed is exported once: the scrape's per-shard gauge
        _, _, body = _get(f"{cluster_server.url}/metrics")
        samples = validate_prometheus_text(body.decode())
        sheds = {n: v for n, v in samples.items() if "shed" in n and v}
        assert sheds == {f"repro_shard_{shard}_shed": 1.0}

    def test_hammer_unique_traces_and_isolation(self, cluster_server):
        """8 concurrent clients, distinct sessions, fetch+local mix:
        unique trace ids, per-session books stay per-session."""
        base = cluster_server.url
        results = []
        errors = []

        def client(i):
            key = f"hammer-{i}"
            try:
                status, headers, _ = _get(f"{base}/ask?q=q1&session={key}&mode=fetch")
                assert status == 200
                first = headers["X-Repro-Trace-Id"]
                status, headers, body = _get(f"{base}/ask?q=q1&session={key}")
                assert status == 200
                document = json.loads(body)
                assert document["queries_recorded"] == 1
                assert document["may_have_more"] is False
                results.append((first, headers["X-Repro-Trace-Id"]))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append((key, exc))

        threads = [threading.Thread(target=client, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert errors == []
        trace_ids = [tid for pair in results for tid in pair]
        assert len(set(trace_ids)) == len(trace_ids) == 16

    def test_self_check_cluster_probes(self, cluster_server):
        ok, report = self_check(cluster_server.url)
        assert ok, [row for row in report if not row["ok"]]
        assert any("session=demo" in row["endpoint"] for row in report)


def _op_latency(op: str):
    """The ``cluster.<op>`` label set of the span latency family."""
    return obs.metrics.histogram("latency.seconds", layer=f"cluster.{op}")


class TestFleetLatencySketches:
    """Keyed ops book their latency in one place: the ``cluster.<op>``
    layer of the ``latency.seconds`` family their span observes."""

    def test_per_shard_ops_feed_sketches(self):
        source = _catalog_source()
        cluster = _cluster(4)
        try:
            with obs.capture():
                for key in ("alice", "bob", "carol"):
                    cluster.ask(key, source, query1())
                    cluster.answer(key, query1())
            assert _op_latency("ask").count == 3
            assert _op_latency("answer").count == 3
            assert _op_latency("record").count == 0
        finally:
            cluster.close()

    def test_cluster_latency_rollup(self):
        """Latency per cluster op is read off the family by
        :func:`cluster_latency`; ``stats_all`` carries only the books."""
        source = _catalog_source()
        cluster = _cluster(2)
        try:
            with obs.capture():
                cluster.ask("alice", source, query1())
                rollup = cluster.stats_all()
                latency = cluster_latency()
            assert "latency" not in rollup
            assert latency["ask"]["count"] == 1
            assert latency["ask"]["p99"] > 0.0
            assert {"count", "sum", "min", "max", "p50", "p90", "p99"} <= set(
                latency["ask"]
            )
            assert "record" not in latency  # ops that never ran are omitted
        finally:
            cluster.close()

    def test_cluster_latency_empty_without_span_collection(self):
        source = _catalog_source()
        cluster = _cluster(2)
        try:
            cluster.ask("alice", source, query1())
            assert cluster_latency() == {}
        finally:
            cluster.close()

    def test_fleet_quantiles_match_recent_window(self):
        """Fleet quantiles read off the family agree, within the
        sketch's relative-error bound, with exact percentiles over the
        raw durations the same histogram kept in its ``recent`` window
        (40 ops fit the window, so it holds the whole stream)."""
        import math

        cluster = _cluster(4)
        try:
            with obs.capture():
                for i in range(40):
                    cluster.answer(f"tenant-{i % 8}", query1())
            histogram = _op_latency("answer")
            durations = sorted(histogram.recent)
            assert histogram.count == histogram.sketch.count == len(durations) == 40
            alpha = histogram.sketch.relative_accuracy
            for q in (0.5, 0.9, 0.99):
                truth = durations[max(0, math.ceil(q * len(durations)) - 1)]
                assert abs(histogram.quantile(q) - truth) <= alpha * truth
        finally:
            cluster.close()

    def test_shed_operations_do_not_pollute_latency(self):
        cluster = _cluster(
            1, admission=AdmissionController(1, max_in_flight=1)
        )
        try:
            with obs.capture():
                with _hold_slots(cluster, 0, 1):
                    with pytest.raises(ShardOverloaded):
                        cluster.answer("alice", query1())
                assert _op_latency("answer").count == 0
                assert cluster.stats_all()["per_shard"][0]["admission"]["shed"] >= 1
        finally:
            cluster.close()

    def test_failed_operations_are_observed(self, monkeypatch):
        """An op that raises still closes its span, so it is booked."""
        from repro.cluster import ShardHost

        def broken(host, key, query):
            raise ValueError("broken host")

        monkeypatch.setattr(ShardHost, "answer", broken)
        cluster = _cluster(1)
        try:
            with obs.capture():
                with pytest.raises(ValueError, match="broken host"):
                    cluster.answer("alice", query1())
            assert _op_latency("answer").count == 1
        finally:
            cluster.close()

    def test_each_interval_has_one_book(self):
        """With span collection on, a keyed ``/ask``'s duration lands in
        one registry histogram and its shard op's in one; no other
        object keeps a latency sketch."""
        from repro.obs.sketch import QuantileSketch
        from repro.ops.server import drive_request

        def holds_sketch(owner) -> bool:
            names = getattr(owner, "__slots__", None) or vars(owner)
            values = [getattr(owner, name, None) for name in names]
            values += [v for d in values if isinstance(d, dict) for v in d.values()]
            return any(isinstance(v, QuantileSketch) for v in values)

        obs.enable()
        cluster, source = demo_cluster(shards=4, products=4)
        server = OpsServer(cluster=cluster, source=source)
        try:
            requests = 6
            for i in range(requests):
                status, _ = drive_request(server, f"/ask?q=q1&session=t{i % 3}")
                assert status == 200
            family = obs.metrics.family("latency.seconds")
            by_layer = {}
            for histogram in family:
                by_layer.setdefault(histogram.labels["layer"], []).append(histogram)
            (request,) = by_layer["ops.request"]
            assert (request.labels["path"], request.count) == ("/ask", requests)
            (op,) = by_layer["cluster.answer"]
            assert op.count == requests
            # every other duration book is gone: one family holds them all
            seconds = [n for n in obs.metrics.histograms() if "seconds" in n]
            assert all(n.startswith("latency.seconds{") for n in seconds), seconds
            assert not holds_sketch(server.request_log)
            assert not any(holds_sketch(shard) for shard in cluster._shards)
        finally:
            cluster.close()

    def test_cluster_metrics_export_fleet_quantiles(self):
        obs.enable(obs.RingBufferSink())
        from repro.obs.export import validate_prometheus_text

        cluster, source = demo_cluster(shards=4, products=4)
        srv = OpsServer(cluster=cluster, source=source).start()
        try:
            for key in ("demo", "tenant-a", "tenant-b"):
                status, _, _ = _get(
                    srv.url + f"/ask?q=q1&session={key}&mode=fetch"
                )
                assert status == 200
            status, _, body = _get(srv.url + "/metrics")
            assert status == 200
            samples = validate_prometheus_text(body.decode("utf-8"))
            ask = 'layer="cluster.ask"'
            assert samples[f"repro_latency_seconds_count{{{ask}}}"] >= 3
            assert f'repro_latency_seconds{{{ask},quantile="0.99"}}' in samples
            assert not any(n.startswith("repro_cluster_ask_") for n in samples)
            # /slo carries the same books as JSON
            status, _, body = _get(srv.url + "/slo")
            document = json.loads(body)
            assert document["cluster_latency"]["ask"]["count"] >= 3
        finally:
            srv.stop()
            cluster.close()


class _hold_slots:
    """Context manager saturating one shard's admission budget."""

    def __init__(self, cluster, shard: int, limit: int):
        self._cluster = cluster
        self._shard = shard
        self._limit = limit
        self._stack = []

    def __enter__(self):
        for _ in range(self._limit):
            cm = self._cluster.admission.admit(self._shard)
            cm.__enter__()
            self._stack.append(cm)
        return self

    def __exit__(self, *exc):
        while self._stack:
            self._stack.pop().__exit__(None, None, None)
        return False


# -- resilience ------------------------------------------------------------------


class TestClusterResilience:
    """The PR-9 degraded-fan-out and retry/breaker contracts."""

    def _populated(self, shards: int = 4, tenants: int = 8, **kwargs):
        source = _catalog_source()
        cluster = _cluster(shards, **kwargs)
        for i in range(tenants):
            cluster.ask(f"tenant-{i}", source, query1() if i % 2 else query2())
        return cluster, source

    def test_ask_all_degrades_to_a_sound_partial_answer(self):
        """Certain-answer soundness under a failed shard (Thm 2.8/3.14):
        the degraded union is a subset of the healthy fleet's — missing
        answers are allowed (the caveat flag owns them), invented ones
        are not."""
        from repro.faults.inject import fault_scope
        from repro.faults.plan import FaultPlan

        cluster, _ = self._populated()
        try:
            healthy = cluster.ask_all_info(query1())
            assert not healthy["degraded"] and not healthy["failed_shards"]
            victim = cluster.shard_of("tenant-0")
            plan = FaultPlan.parse(f"cluster.task.{victim}:error:p=1")
            with fault_scope(plan):
                degraded = cluster.ask_all_info(query1())
            assert degraded["degraded"] and degraded["may_have_more"]
            assert list(degraded["failed_shards"]) == [victim]
            assert "FaultInjected" in degraded["failed_shards"][victim]
            assert degraded["sessions_answered"] < healthy["sessions_answered"]
            healthy_facts = set(_tree_facts(healthy["sure"]))
            degraded_facts = set(_tree_facts(degraded["sure"]))
            assert degraded_facts <= healthy_facts
            # and the tuple API agrees
            with fault_scope(plan):
                sure, more = cluster.ask_all(query1())
            assert more and set(_tree_facts(sure)) <= healthy_facts
        finally:
            cluster.close()

    def _shard_1_open(self):
        """A 3-shard pool, every shard holding sessions, with shard 1's
        breaker open: fan-outs run shards 0 and 2 only."""
        from repro.cluster import ResiliencePolicy

        cluster, _ = self._populated(
            shards=3,
            tenants=9,
            resilience=ResiliencePolicy(breaker_failures=1, breaker_cooldown_s=60.0),
        )
        assert all(s["sessions"] for s in cluster.stats_all()["per_shard"])
        cluster.breaker(1).record_failure()
        assert cluster.breaker(1).state == "open"
        return cluster

    def test_fanout_tasks_carry_the_shard_they_run(self):
        """Shard 2's task is the fan-out's second: its ``cluster.task``
        span and every engine span under it still say shard 2."""
        cluster = self._shard_1_open()
        try:
            with obs.capture():
                with obs.span("request") as root:
                    info = cluster.ask_all_info(query1())
            assert list(info["failed_shards"]) == [1]
            tasks = root.find("cluster.task")
            assert sorted(task.attrs["shard"] for task in tasks) == [0, 2]
            for task in tasks:
                below = _descendants(task)
                assert below, "no engine span under the task"
                assert {span.attrs["shard"] for span in below} == {task.attrs["shard"]}
        finally:
            cluster.close()

    def test_fault_site_names_the_shard_that_runs(self):
        from repro.faults.inject import fault_scope

        cluster = self._shard_1_open()
        try:
            with fault_scope(FaultPlan.parse("cluster.task.2:error")):
                info = cluster.ask_all_info(query1())
            assert sorted(info["failed_shards"]) == [1, 2]
            assert "FaultInjected" in info["failed_shards"][2]
            shard_0 = cluster.stats_all()["per_shard"][0]["sessions"]
            assert info["sessions_answered"] == shard_0
        finally:
            cluster.close()

    def test_repeated_shard_failures_open_the_breaker(self):
        from repro.cluster import ResiliencePolicy
        from repro.faults.inject import fault_scope
        from repro.faults.plan import FaultPlan
        from repro.faults.policies import CircuitOpen

        cluster, source = self._populated(
            resilience=ResiliencePolicy(breaker_failures=2, breaker_cooldown_s=60.0)
        )
        try:
            victim = cluster.shard_of("tenant-0")
            plan = FaultPlan.parse(f"cluster.task.{victim}:error:p=1")
            with fault_scope(plan):
                for _ in range(2):
                    info = cluster.ask_all_info(query1())
                    assert victim in info["failed_shards"]
            assert cluster.breaker(victim).state == "open"
            # disarmed: the open breaker now pre-filters the shard ...
            info = cluster.ask_all_info(query1())
            assert info["degraded"]
            assert "CircuitOpen" in info["failed_shards"][victim]
            # ... and keyed writes to it refuse fast
            with pytest.raises(CircuitOpen):
                cluster.ask("tenant-0", source, query1())
            stats = cluster.stats_all()
            assert stats["per_shard"][victim]["breaker"]["state"] == "open"
            assert stats["per_shard"][victim]["breaker"]["opens"] == 1
        finally:
            cluster.close()

    @pytest.mark.parametrize("op", ["record", "ask"])
    def test_retry_revives_the_engine_and_absorbs_a_torn_write(self, tmp_path, op):
        """A transient store fault inside a keyed write must not
        surface: the wedged engine is revived from its journal and the
        retry lands — exactly once, even when the crashed attempt
        already persisted the pair (fsync-crash + dedupe).  ``record``
        and a keyed fetch share that rule."""
        from repro.faults.inject import fault_scope
        from repro.faults.plan import FaultPlan

        source = _catalog_source()
        cluster = _cluster(2, store=SessionStore(str(tmp_path)))
        try:
            cluster.ask("alice", source, query1())
            torn_pair = (query2(), query2().evaluate(source.document()))
            fsync_pair = (query3(), query3().evaluate(source.document()))
            for effect, pair in (("torn", torn_pair), ("fsync", fsync_pair)):
                plan = FaultPlan.parse(f"store.journal.append:{effect}:nth=1")
                with fault_scope(plan):
                    if op == "record":
                        cluster.record("alice", *pair)
                    else:
                        cluster.ask("alice", source, pair[0])
            # one ask + two writes; the fsync-crashed pair was already
            # durable when the retry ran, so dedupe kept it exactly once
            assert cluster.answer_info("alice", query1())["queries_recorded"] == 3
        finally:
            cluster.close()

        resumed = _cluster(2, store=SessionStore(str(tmp_path)))
        try:
            assert resumed.answer_info("alice", query1())["queries_recorded"] == 3
        finally:
            resumed.close()
        engine = Webhouse.resume(SessionStore(str(tmp_path)), "alice")
        try:
            assert len(engine.history) == 3
            assert list(engine.history) == [
                engine.history[0],
                torn_pair,
                fsync_pair,
            ]
        finally:
            engine.detach()

    def test_stalled_shard_hits_the_gather_deadline(self):
        from repro.cluster import ResiliencePolicy
        from repro.faults.inject import fault_scope
        from repro.faults.plan import FaultPlan

        cluster, _ = self._populated(
            shards=3,
            tenants=6,
            resilience=ResiliencePolicy(ask_all_deadline_s=0.2),
        )
        try:
            victim = cluster.shard_of("tenant-0")
            plan = FaultPlan.parse(f"cluster.task.{victim}:stall:ms=800")
            started = time.perf_counter()
            with fault_scope(plan):
                info = cluster.ask_all_info(query1())
            elapsed = time.perf_counter() - started
            assert info["degraded"]
            assert "DeadlineExceeded" in info["failed_shards"][victim]
            assert elapsed < 0.8  # the fan-out did not wait out the stall
        finally:
            cluster.close()

    def test_expired_deadline_degrades_every_shard(self):
        """A fan-out whose deadline has already expired degrades every
        shard with DeadlineExceeded and answers nothing."""
        from repro.faults.policies import DeadlineExceeded

        cluster, _ = self._populated(
            shards=3, resilience=ResiliencePolicy(ask_all_deadline_s=0.0)
        )
        try:
            info = cluster.ask_all_info(query1())
            assert info["degraded"] and info["may_have_more"]
            assert sorted(info["failed_shards"]) == [0, 1, 2]
            for error in info["failed_shards"].values():
                assert error.startswith(DeadlineExceeded.__name__)
            assert info["sessions_answered"] == 0
            assert info["sure"].is_empty()
        finally:
            cluster.close()

    def test_in_memory_record_failure_keeps_the_engine(self, monkeypatch):
        """Without a store there is no journal to revive from; a failed
        in-memory record leaves the engine and its knowledge as they
        were."""
        from repro.faults.inject import FaultInjected
        from repro.faults.plan import Fault, FaultRule

        source = _catalog_source()
        cluster = _cluster(2)
        try:
            cluster.ask("alice", source, query1())
            engine = cluster.engine("alice")
            before = cluster.answer_info("alice", query1())

            def failing_record(query, answer):
                site = "webhouse.record"
                raise FaultInjected(Fault(site, FaultRule.parse(f"{site}:error")))

            monkeypatch.setattr(engine, "record", failing_record)
            with pytest.raises(FaultInjected):
                cluster.record("alice", query2(), query2().evaluate(source.document()))
            assert cluster.engine("alice") is engine
            after = cluster.answer_info("alice", query1())
            assert _tree_facts(after["sure"]) == _tree_facts(before["sure"])
            assert after["queries_recorded"] == before["queries_recorded"] == 1
        finally:
            cluster.close()


# -- SLO remedies ----------------------------------------------------------------


def test_burn_remedy_reaches_every_shard():
    """A burning latency SLO's conjunctive remedy reaches the engines on
    every shard (Cor 3.9 changes each session's maintained
    representation, so the fleet size moves)."""
    from repro.obs.slo import KIND_LATENCY, Objective, SloEngine

    cluster, source = demo_cluster(shards=2, tenants=3)
    slo = SloEngine(
        # every request is slower than a nanosecond: burns immediately
        objectives=[
            Objective(
                "lat", KIND_LATENCY, 0.99, threshold_s=1e-9, remedy="conjunctive"
            )
        ],
    )
    server = OpsServer(
        cluster=cluster, source=source, slo=slo, degrade_on_burn=True
    )
    try:
        before = cluster.size()
        for _ in range(15):
            drive_request(server, "/ask?q=q1&session=demo")
        assert server.remedies_applied == ["conjunctive"]
        assert cluster.size() != before
    finally:
        server.request_log.close()
        cluster.close()
