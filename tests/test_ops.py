"""The live ops plane: trace context, flight recorder, HTTP server.

Covers the PR-6 acceptance criteria: concurrent clients against a
served session get per-request trace ids with no cross-thread span
parentage; ``/metrics`` passes the Prometheus validator (including
``repro_cache_*`` series); the flight recorder retains every errored
trace and dumps valid Chrome trace JSON.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from urllib.parse import quote

import pytest

import repro.obs as obs
import repro.perf as perf
from repro.__main__ import main as cli_main
from repro.core.parsing import parse_query_spec
from repro.mediator.webhouse import Webhouse
from repro.obs.export import validate_chrome_trace, validate_prometheus_text
from repro.obs.sinks import NullSink
from repro.obs.spans import Span
from repro.faults.plan import FaultPlan
from repro.ops import (
    FlightRecorder,
    OpsServer,
    RequestLog,
    TraceHandle,
    demo_cluster,
    drive_request,
    new_trace_id,
    request_trace,
)
from repro.ops.server import UNMATCHED
from repro.store import SessionStore
from repro.workloads.catalog import (
    CATALOG_ALPHABET,
    catalog_type,
    generate_catalog,
    named_queries,
    query1,
    query2,
    query3,
    query4,
)


@pytest.fixture(autouse=True)
def clean_state():
    """Pristine obs/perf state around every test."""
    obs.disable()
    obs.STATE.sink = NullSink()
    obs.STATE.clear()
    perf.disable_caches()
    perf.clear_caches()
    yield
    obs.disable()
    obs.STATE.sink = NullSink()
    obs.STATE.clear()
    perf.disable_caches()
    perf.clear_caches()


def _wait_until(predicate, timeout: float = 5.0) -> None:
    """Request bookkeeping happens after the response is sent; spin
    briefly until the server side catches up."""
    deadline = time.time() + timeout
    while not predicate() and time.time() < deadline:
        time.sleep(0.01)


def _get(url: str, timeout: float = 10.0):
    """(status, headers, body-bytes), following HTTPError for 4xx/5xx."""
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            return resp.status, resp.headers, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.headers, exc.read()


def _demo_server(**kwargs) -> OpsServer:
    """An unstarted server over a one-shard, three-product demo pool."""
    cluster, source = demo_cluster(shards=1, products=3)
    return OpsServer(cluster, source=source, **kwargs)


@pytest.fixture()
def server():
    """A live ops server over a one-shard demo pool, obs enabled."""
    obs.enable(obs.RingBufferSink())
    perf.enable_caches()
    cluster, source = demo_cluster(shards=1, products=4)
    srv = OpsServer(cluster, source=source).start()
    yield srv
    srv.stop()
    cluster.close()


# -- trace context ---------------------------------------------------------------


class TestTraceContext:
    def test_new_trace_ids_are_unique(self):
        ids = {new_trace_id() for _ in range(200)}
        assert len(ids) == 200

    def test_trace_id_binds_and_restores(self):
        assert obs.current_trace_id() is None
        token = obs.set_trace_id("outer")
        assert obs.current_trace_id() == "outer"
        with request_trace("t") as handle:
            assert obs.current_trace_id() == handle.trace_id
            assert handle.trace_id != "outer"
        assert obs.current_trace_id() == "outer"
        obs.reset_trace_id(token)
        assert obs.current_trace_id() is None

    def test_spans_carry_the_trace_id(self):
        obs.enable(obs.RingBufferSink())
        with request_trace("ops.request") as handle:
            with obs.span("inner.work"):
                with obs.span("inner.deep"):
                    pass
        root = handle.root
        assert root is not None
        assert root.attrs["trace_id"] == handle.trace_id
        deep = root.find("inner.deep")
        assert len(deep) == 1
        assert deep[0].attrs["trace_id"] == handle.trace_id

    def test_disabled_obs_still_yields_a_trace_id(self):
        with request_trace("t") as handle:
            assert handle.root is None
            assert handle.trace_id
            handle.annotate(status=200)  # tolerated no-op

    def test_errored_detection_walks_the_tree(self):
        obs.enable(obs.RingBufferSink())
        with request_trace("t") as handle:
            with pytest.raises(RuntimeError):
                with obs.span("child"):
                    raise RuntimeError("boom")
        # a 200 with an errored child span is kept as an error
        assert FlightRecorder(head_rate=0.0).offer(handle, 200, 0.001) == "error"
        assert handle.root.children[0].attrs["error"] == "RuntimeError"

    def test_thread_span_does_not_adopt_foreign_parent(self):
        """The satellite fix: a span opened in another thread must not
        become a child of this thread's open span."""
        obs.enable(obs.RingBufferSink())
        done = threading.Event()

        def worker() -> None:
            with obs.span("worker.span"):
                pass
            done.set()

        with obs.span("main.span") as sp:
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
            assert done.wait(1)
            # the worker's span closed while main.span was still open:
            # it must have landed as its own trace root, not as a child
            assert [c.name for c in sp.children] == []
        names = [root.name for root in obs.traces()]
        assert "worker.span" in names and "main.span" in names

    def test_concurrent_traces_do_not_share_ids_or_spans(self):
        obs.enable(obs.RingBufferSink())
        seen = {}
        barrier = threading.Barrier(4)

        def worker(tag: int) -> None:
            barrier.wait()
            with request_trace("ops.request", worker=tag) as handle:
                with obs.span("engine.step", worker=tag):
                    pass
            seen[tag] = handle

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        ids = {h.trace_id for h in seen.values()}
        assert len(ids) == 4
        for tag, handle in seen.items():
            root = handle.root
            assert root.attrs["worker"] == tag
            assert [c.attrs["worker"] for c in root.children] == [tag]
            assert all(
                c.attrs["trace_id"] == handle.trace_id for c in root.children
            )


# -- flight recorder -------------------------------------------------------------


def _span(name: str, start: float = 0.0, **attrs) -> Span:
    s = Span(name, dict(attrs))
    s.start = start
    s.end = start + 0.001
    return s


def _offer(recorder: FlightRecorder, root, status: int = 200) -> None:
    """Offer one finished request whose trace root is ``root``."""
    recorder.offer(TraceHandle(new_trace_id(), root), status, 0.001)


class TestFlightRecorder:
    def test_completed_ring_is_bounded(self):
        recorder = FlightRecorder(capacity=3, errored_capacity=8)
        for i in range(10):
            _offer(recorder, _span(f"t{i}", start=float(i)))
        assert [r.name for r in recorder.completed()] == ["t7", "t8", "t9"]
        assert recorder.stats()["kept"] == 10

    def test_errored_survive_completed_churn(self):
        recorder = FlightRecorder(capacity=2, errored_capacity=64)
        for i in range(5):
            _offer(recorder, _span(f"bad{i}", start=float(i), error="ValueError"))
        for i in range(20):
            _offer(recorder, _span(f"ok{i}", start=100.0 + i))
        assert len(recorder.completed()) == 2
        assert [r.name for r in recorder.errored()] == [f"bad{i}" for i in range(5)]

    def test_error_classification_scans_descendants(self):
        recorder = FlightRecorder()
        root = _span("root")
        child = _span("child", error="KeyError")
        root.children.append(child)
        _offer(recorder, root)
        assert [r.name for r in recorder.errored()] == ["root"]

    def test_none_root_is_a_noop(self):
        """With span collection off there is no root: the decision is
        booked, nothing is held."""
        recorder = FlightRecorder()
        _offer(recorder, None)
        assert len(recorder) == 0
        assert recorder.stats()["kept"] == 1
        assert recorder.exemplars() == []

    def test_chrome_trace_dump_validates(self):
        recorder = FlightRecorder()
        _offer(recorder, _span("a", start=1.0))
        _offer(recorder, _span("b", start=2.0, error="X"))
        document = recorder.chrome_trace()
        assert validate_chrome_trace(document) == 2
        tids = {e["tid"] for e in document["traceEvents"]}
        assert len(tids) == 2  # errored traces get their own tid band
        assert document["otherData"]["retained_errored"] == "1"


# -- request log -----------------------------------------------------------------


class TestRequestLog:
    def test_ring_is_bounded_and_ordered(self):
        log = RequestLog(capacity=3)
        for i in range(6):
            log.log("GET", f"/p{i}", 200, 0.001, f"t{i}")
        recent = log.recent()
        assert [r["path"] for r in recent] == ["/p3", "/p4", "/p5"]
        assert log.logged == 6

    def test_jsonl_file_records(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        log = RequestLog(path=path)
        log.log("GET", "/ask", 200, 0.0042, "abc", knowledge_size=17)
        log.close()
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows[0]["path"] == "/ask"
        assert rows[0]["status"] == 200
        assert rows[0]["trace_id"] == "abc"
        assert rows[0]["knowledge_size"] == 17
        assert rows[0]["duration_ms"] == pytest.approx(4.2)


# -- the HTTP server -------------------------------------------------------------


class TestOpsServer:
    def test_healthz_and_trace_header(self, server):
        status, headers, body = _get(server.url + "/healthz")
        assert status == 200
        assert body == b"ok\n"
        assert headers["X-Repro-Trace-Id"]

    def test_statusz_reports_the_pool_rollup(self, server):
        status, _, body = _get(server.url + "/statusz")
        assert status == 200
        document = json.loads(body)
        assert document["shards"] == 1
        assert document["cluster"]["sessions"] == 1
        assert document["cluster"]["queries_recorded"] >= 1
        (shard,) = document["cluster"]["per_shard"]
        assert shard["session_keys"] == ["demo"]
        assert document["observability_enabled"] is True
        assert document["caches"]["enabled"] is True

    def test_metrics_validate_with_cache_series(self, server):
        # drive at least one cached code path through the engine first,
        # then wait for its post-response bookkeeping to land
        _get(server.url + "/ask?q=q1")
        _wait_until(lambda: obs.STATE.metrics.value("ops.http.requests") >= 1)
        status, _, body = _get(server.url + "/metrics")
        assert status == 200
        samples = validate_prometheus_text(body.decode("utf-8"))
        cache_series = [n for n in samples if n.startswith("repro_cache_")]
        assert cache_series, "no repro_cache_* series exposed"
        assert samples["repro_cache_enabled"] == 1.0
        assert "repro_ops_http_requests_total" in samples
        assert "repro_ops_uptime_seconds" in samples

    def test_ask_local_and_fetch(self, server):
        status, headers, body = _get(server.url + "/ask?q=q1&session=demo")
        assert status == 200
        document = json.loads(body)
        assert document["mode"] == "local"
        assert document["sure_nodes"] >= 1
        assert isinstance(document["may_have_more"], bool)
        recorded = document["queries_recorded"]
        status, _, body = _get(server.url + "/ask?q=q2&session=demo&mode=fetch")
        assert status == 200
        fetched = json.loads(body)
        assert fetched["queries_recorded"] == recorded + 1

    @pytest.mark.parametrize(
        "spec",
        ["q1", "q2", "q3", "q4", "catalog/product/price[<300]", "catalog/product/name"],
    )
    def test_sessionless_ask_is_the_demo_session_answer(self, spec):
        """On a one-shard server the fleet union of the one session is
        that session's own caveated answer, key for key."""
        cluster, source = demo_cluster(shards=1)
        srv = OpsServer(cluster, source=source)
        engine = cluster.engine("demo")
        sure, may_have_more = engine.answer_with_caveats(
            parse_query_spec(spec, named=named_queries())
        )
        status, body = drive_request(srv, "/ask?q=" + quote(spec, safe=""))
        assert status == 200
        assert json.loads(body) == {
            "query": spec,
            "mode": "local",
            "scope": "fleet",
            "sessions": 1,
            "shards": 1,
            "sure_nodes": len(sure),
            "may_have_more": may_have_more,
            "knowledge_size": engine.size(),
            "degraded": False,
            "failed_shards": {},
        }

    def test_over_deep_query_is_400_at_the_edge(self):
        """A path one step over the cap is refused before the engine
        sees it, keyed or fleet-wide; at the cap both answer."""
        from repro.core.parsing import MAX_QUERY_STEPS

        obs.enable(NullSink())
        perf.enable_caches()
        srv = OpsServer()

        def path(steps: int) -> str:
            return "/".join(["catalog", "product"] + ["price"] * (steps - 2))

        for scope in ("&session=demo", ""):
            status, body = drive_request(srv, f"/ask?q={path(MAX_QUERY_STEPS + 1)}{scope}")
            assert status == 400, body
            assert "steps" in json.loads(body)["error"]
            status, body = drive_request(srv, f"/ask?q={path(MAX_QUERY_STEPS)}{scope}")
            assert status == 200, body
            document = json.loads(body)
            assert not document.get("degraded") and not document.get("failed_shards")
        srv.cluster.close()

    def test_over_nested_condition_is_400_at_the_edge(self):
        """A condition nested one level over the bound is refused before
        the engine sees it, keyed or fleet-wide, and no shard fails; at
        the bound both answer."""
        from repro.core.parsing import MAX_COND_NESTING

        obs.enable(NullSink())
        perf.enable_caches()
        srv = OpsServer()

        def ask(levels: int, scope: str):
            cond = "(" * levels + "<1" + ")" * levels
            spec = quote(f"catalog/product/price[{cond}]", safe="")
            return drive_request(srv, f"/ask?q={spec}{scope}")

        for scope in ("&session=demo", ""):
            for levels in (MAX_COND_NESTING + 1, 400):
                status, body = ask(levels, scope)
                assert status == 400, body
                assert "nests deeper" in json.loads(body)["error"]
            status, body = ask(MAX_COND_NESTING, scope)
            assert status == 200, body
            document = json.loads(body)
            assert not document.get("degraded") and not document.get("failed_shards")
        srv.cluster.close()

    def test_ask_path_query(self, server):
        status, _, body = _get(
            server.url + "/ask?q=catalog/product/price%5B%3C300%5D"
        )
        assert status == 200
        assert json.loads(body)["query"] == "catalog/product/price[<300]"

    def test_bad_query_is_400_with_trace_id(self, server):
        status, headers, body = _get(server.url + "/ask?q=%5Bnope")
        assert status == 400
        assert headers["X-Repro-Trace-Id"]
        assert "bad query" in json.loads(body)["error"]

    def test_unknown_endpoint_is_404(self, server):
        status, _, body = _get(server.url + "/nope")
        assert status == 404
        assert json.loads(body)["status"] == 404

    def test_profile_endpoint(self, server):
        _get(server.url + "/ask?q=q1")
        _wait_until(lambda: any(r.name == "ops.request" for r in obs.traces()))
        status, _, body = _get(server.url + "/profile")
        assert status == 200
        document = json.loads(body)
        assert document["roots"] >= 1
        assert any(name.startswith("ops.request") for name in document["by_name"])
        # the profile covers exactly the traces the flight recorder holds
        srv = _demo_server(recorder=FlightRecorder(capacity=8))
        for _ in range(40):
            assert drive_request(srv, "/ask?q=q1")[0] == 200
        _, body = drive_request(srv, "/profile")
        assert json.loads(body)["roots"] == len(srv.recorder.roots()) == 8

    def test_flightrecorder_dump_validates(self, server):
        _get(server.url + "/ask?q=q1")
        _get(server.url + "/ask?q=%5Bbad")  # one errored trace
        _wait_until(
            lambda: len(server.recorder.errored()) >= 1
            and len(server.recorder.roots()) >= 2
        )
        status, _, body = _get(server.url + "/debug/flightrecorder")
        assert status == 200
        document = json.loads(body)
        assert validate_chrome_trace(document) >= 2
        assert int(document["otherData"]["retained_errored"]) >= 1

    def test_request_log_endpoint_carries_knowledge_size(self, server):
        _get(server.url + "/ask?q=q1")
        _wait_until(
            lambda: any(r["path"] == "/ask" for r in server.request_log.recent())
        )
        status, _, body = _get(server.url + "/debug/requests")
        assert status == 200
        rows = json.loads(body)["requests"]
        asks = [r for r in rows if r["path"] == "/ask"]
        assert asks and asks[-1]["knowledge_size"] >= 1
        assert asks[-1]["trace_id"]

    def test_every_errored_trace_is_retained(self):
        obs.enable(obs.RingBufferSink())
        recorder = FlightRecorder(capacity=2, errored_capacity=256)
        srv = _demo_server(recorder=recorder).start()
        try:
            for _ in range(12):
                status, _, _ = _get(srv.url + "/ask?q=%5Bbad")
                assert status == 400
            for _ in range(8):
                _get(srv.url + "/healthz")
            _wait_until(lambda: recorder.stats()["kept"] >= 20)
        finally:
            srv.stop()
        stats = recorder.stats()
        assert stats["retained_errored"] == 12  # none evicted by healthy churn
        assert stats["retained_completed"] == 2  # completed ring stayed bounded

    def test_concurrent_load_unique_traces_no_cross_parentage(self, server):
        """The acceptance load test: >=4 threaded clients, per-request
        trace ids, no span adopted across threads."""
        results = []
        lock = threading.Lock()

        def client(worker: int) -> None:
            rows = []
            for i in range(6):
                endpoint = "/ask?q=q1" if (worker + i) % 2 else "/metrics"
                status, headers, _ = _get(server.url + endpoint)
                rows.append((status, headers["X-Repro-Trace-Id"]))
            with lock:
                results.extend(rows)

        threads = [threading.Thread(target=client, args=(w,)) for w in range(5)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 30
        assert all(status == 200 for status, _ in results)
        trace_ids = [tid for _, tid in results]
        assert len(set(trace_ids)) == 30
        _wait_until(lambda: len(server.recorder.roots()) >= 30)
        roots = server.recorder.roots()
        assert len(roots) >= 30
        for root in roots:
            expected = root.attrs.get("trace_id")
            stack = [root]
            while stack:
                node = stack.pop()
                assert node.attrs.get("trace_id") == expected
                stack.extend(node.children)

    def test_server_requires_start_before_address(self):
        srv = _demo_server()
        with pytest.raises(RuntimeError):
            srv.url


# -- durable-session hosting ------------------------------------------------------


class TestHostedSessions:
    def test_source_hint_roundtrip(self, tmp_path):
        store = SessionStore(str(tmp_path))
        session = store.create(
            "svc",
            CATALOG_ALPHABET,
            tree_type=catalog_type(),
            extra={"workload": {"name": "catalog", "products": 5, "seed": 7}},
        )
        webhouse = Webhouse(CATALOG_ALPHABET, tree_type=catalog_type())
        webhouse.attach(session)
        assert webhouse.source_hint() == {
            "name": "catalog",
            "products": 5,
            "seed": 7,
        }
        webhouse.detach()
        assert webhouse.source_hint() == {}

    def test_a_key_that_cannot_name_a_directory_is_400(self, tmp_path):
        """Keys double as durable session names, so one rule refuses an
        over-long key or one holding a control character before
        admission: the shard's breaker never counts it, and a healthy
        key on that shard still answers."""
        import os

        from repro.cluster import ShardedWebhouse
        from repro.mediator.source import InMemorySource
        from repro.store import StoreError
        from repro.store.session import MAX_NAME_BYTES

        obs.enable(NullSink())
        perf.enable_caches()
        cluster = ShardedWebhouse(
            CATALOG_ALPHABET,
            tree_type=catalog_type(),
            shards=2,
            store=SessionStore(str(tmp_path)),
        )
        srv = OpsServer(cluster, source=InMemorySource(generate_catalog(4, seed=4), catalog_type()))
        try:
            long_key = next(
                key
                for key in (f"{i}-" + "k" * 300 for i in range(100))
                if cluster.router.route(key) == 0
            )
            healthy = next(f"ok{i}" for i in range(100) if cluster.router.route(f"ok{i}") == 0)
            for _ in range(5):
                status, body = drive_request(srv, f"/ask?q=q1&session={long_key}&mode=fetch")
                assert status == 400, body
            status, body = drive_request(srv, "/ask?q=q1&session=a%00b&mode=fetch")
            assert status == 400, body
            assert cluster.breaker(0).state == "closed"
            for mode in ("&mode=fetch", ""):
                status, body = drive_request(srv, f"/ask?q=q1&session={healthy}{mode}")
                assert status == 200, body
            assert cluster.breaker(0).state == "closed"
        finally:
            cluster.close()
        store = SessionStore(str(tmp_path))
        for name in (long_key, "a\x00b", "tab\there", "k" * (MAX_NAME_BYTES + 1)):
            with pytest.raises(StoreError, match="invalid session name"):
                store.create(name, CATALOG_ALPHABET)
        store.create("é" * (MAX_NAME_BYTES // 2), CATALOG_ALPHABET).close()
        with pytest.raises(StoreError, match="invalid session name"):
            store.create("é" * (MAX_NAME_BYTES // 2 + 1), CATALOG_ALPHABET)
        assert sorted(os.listdir(tmp_path)) == sorted([healthy, "é" * (MAX_NAME_BYTES // 2)])

    def test_serve_session_opens_a_durable_pool(self, tmp_path, monkeypatch, capsys):
        """``serve --session`` fronts the durable pool under ``--root``
        at any shard count: a keyed HTTP fetch journals, and the session
        CLI reads it back after the server closed the pool."""
        root = str(tmp_path)
        assert cli_main(
            ["repro", "session", "create", "svc", "--products", "4", "--seed", "4",
             "--root", root]
        ) == 0
        replies = []

        def serve_two_requests(server):  # in place of the blocking loop
            server.start()
            try:
                replies.append(_get(server.url + "/ask?q=q1&session=svc&mode=fetch"))
                replies.append(_get(server.url + "/sessions"))
            finally:
                server.stop()

        monkeypatch.setattr(OpsServer, "serve_forever", serve_two_requests)
        assert cli_main(
            ["repro", "serve", "--session", "svc", "--shards", "2", "--root", root]
        ) == 0
        (status, _, body), (_, _, listing) = replies
        assert status == 200
        fetched = json.loads(body)
        assert fetched["queries_recorded"] == 1 and fetched["answer_nodes"] >= 1
        document = json.loads(listing)
        assert document["hosted"] == "svc"
        assert document["cluster_sessions"] == ["svc"]
        (row,) = document["sessions"]
        assert row["locked"] is True  # the pool holds the writer lock
        assert row["workload"]["products"] == 4
        capsys.readouterr()
        assert cli_main(["repro", "session", "info", "svc", "--root", root]) == 0
        assert json.loads(capsys.readouterr().out)["queries_recorded"] == 1

    def test_serve_session_fetches_each_session_from_its_own_catalog(
        self, tmp_path, monkeypatch, capsys
    ):
        """Sessions under one root may observe different catalogs: a
        keyed fetch asks the document the session's own workload hint
        names, and a session the pool creates is stamped with the
        served hint, so the session CLI regenerates its document."""
        root = str(tmp_path)
        for name, products, seed in (("a", "4", "4"), ("b", "8", "3")):
            assert cli_main(
                ["repro", "session", "create", name, "--products", products,
                 "--seed", seed, "--root", root]
            ) == 0
        statuses = []

        def fetch_each(server):  # in place of the blocking loop
            server.start()
            try:
                for key in ("a", "b", "c"):
                    url = server.url + f"/ask?q=q2&session={key}&mode=fetch"
                    statuses.append(_get(url)[0])
            finally:
                server.stop()

        monkeypatch.setattr(OpsServer, "serve_forever", fetch_each)
        assert cli_main(["repro", "serve", "--session", "a", "--root", root]) == 0
        assert statuses == [200, 200, 200]
        store = SessionStore(root)
        assert store.peek("c")["workload"] == {"name": "catalog", "products": 4, "seed": 4}
        for key, products, seed in (("a", 4, 4), ("b", 8, 3), ("c", 4, 4)):
            webhouse = Webhouse.resume(store, key)
            try:
                ((query, answer),) = webhouse.history
                assert answer == query2().evaluate(generate_catalog(products, seed=seed))
            finally:
                webhouse.detach()
        # a later `session ask` fetches from the same document (the CLI
        # default catalog, 10 products with seed 0, answers 12 nodes)
        capsys.readouterr()
        assert cli_main(["repro", "session", "ask", "c", "q2", "--root", root]) == 0
        asked = json.loads(capsys.readouterr().out)
        assert asked["answer_nodes"] == len(query2().evaluate(generate_catalog(4, seed=4)))

    def test_store_peek_needs_no_lock(self, tmp_path):
        store = SessionStore(str(tmp_path))
        store.create("idle", CATALOG_ALPHABET).close()
        row = store.peek("idle")
        assert row["name"] == "idle"
        assert row["locked"] is False
        assert row["snapshots"] == 0
        # peeking never created or stole a lock
        assert store.open("idle").close() is None


# -- prometheus cache mirroring ---------------------------------------------------


class TestPrometheusCacheSeries:
    def test_cache_counters_exported_and_deduplicated(self):
        """Counters come from the perf books, one family each, with obs
        on as under ``serve``."""
        obs.enable(obs.RingBufferSink())
        perf.clear_caches()
        with perf.cached():
            from repro.workloads.catalog import demo_catalog

            answer = query1().evaluate(demo_catalog())
            for _ in range(2):  # the second session hits the first's value
                Webhouse(CATALOG_ALPHABET).record(query1(), answer)
        text = obs.prometheus_text(obs.metrics, perf.cache_metrics())
        samples = validate_prometheus_text(text)  # raises on duplicates
        assert samples["repro_cache_knowledge_hits_total"] >= 1
        assert "repro_cache_knowledge_misses_total" in samples
        assert "repro_cache_knowledge_size" in samples

    def test_gauges_are_exported(self):
        obs.STATE.metrics.set_gauge("ops.demo_gauge", 12.5)
        samples = validate_prometheus_text(obs.prometheus_text())
        assert samples["repro_ops_demo_gauge"] == 12.5


# -- one exposition path ---------------------------------------------------------

#: The four perf memo tables, named here so a renamed table shows.
_CACHE_TABLES = (
    "emptiness",
    "normalize",
    "matching",
    "knowledge",
)

#: Memo tables that were deleted: no series of theirs may come back.
_DELETED_TABLES = ("query_incomplete", "minimize", "refine", "type_intersect")


def _families(text: str) -> dict:
    """``{family: kind}`` off the ``# TYPE`` lines of an exposition."""
    return {
        line.split()[2]: line.split()[3]
        for line in text.splitlines()
        if line.startswith("# TYPE ")
    }


class TestScrapeRegistry:
    def test_scrape_shows_only_its_own_shards(self):
        """A scrape's books live in its own registry: a 1-shard server
        scraped after a 4-shard one in the same process shows no series
        of the other pool's shards."""
        obs.enable(obs.NullSink())
        wide, source = demo_cluster(shards=4, products=3, tenants=4)
        narrow, narrow_source = demo_cluster(shards=1, products=3)
        try:
            status, body = drive_request(OpsServer(wide, source=source), "/metrics")
            assert status == 200
            assert "repro_shard_3_shed" in validate_prometheus_text(body)
            status, body = drive_request(
                OpsServer(narrow, source=narrow_source), "/metrics"
            )
            samples = validate_prometheus_text(body)
            shards = {n.split("_")[2] for n in samples if n.startswith("repro_shard_")}
            assert shards == {"0"}
            assert samples["repro_cluster_shards"] == 1
        finally:
            wide.close()
            narrow.close()

    def test_scrape_writes_no_gauges_into_the_process_book(self):
        obs.enable(obs.NullSink())
        srv = _demo_server()
        assert drive_request(srv, "/ask?q=q1")[0] == 200
        assert drive_request(srv, "/metrics")[0] == 200
        assert obs.metrics.gauges() == {}
        assert obs.metrics.value("ops.http.requests") >= 1  # events stay

    def test_scrape_families_keep_their_names_and_kinds(self):
        """The families the served benchmark and operators read, by name
        and kind, on a 4-shard server with exemplars and SLO books."""
        obs.enable(obs.NullSink())
        cluster, source = demo_cluster(shards=4, products=3, tenants=4)
        srv = OpsServer(cluster, source=source)
        try:
            assert drive_request(srv, "/ask?q=q1&session=demo")[0] == 200
            assert drive_request(srv, "/ask?q=q1")[0] == 200
            assert drive_request(srv, "/debug/error")[0] == 500
            _, body = drive_request(srv, "/metrics")
        finally:
            cluster.close()
        validate_prometheus_text(body)
        expected = {"repro_cache_enabled": "gauge"}
        for table in _CACHE_TABLES:
            for book in ("hits", "misses", "evictions"):
                expected[f"repro_cache_{table}_{book}_total"] = "counter"
            expected[f"repro_cache_{table}_size"] = "gauge"
        for shard in range(4):
            for book in (
                "sessions",
                "knowledge_size",
                "queries_recorded",
                "in_flight",
                "admitted",
                "shed",
            ):
                expected[f"repro_shard_{shard}_{book}"] = "gauge"
        for book in ("shards", "sessions", "knowledge_size"):
            expected[f"repro_cluster_{book}"] = "gauge"
        expected.update(
            {
                "repro_ops_uptime_seconds": "gauge",
                "repro_http_exemplar_seconds": "gauge",
                "repro_trace_sampler_kept_total": "counter",
                "repro_trace_sampler_dropped_total": "counter",
                "repro_slo_alerts_total": "counter",
                "repro_slo_burning": "gauge",
            }
        )
        families = _families(body)
        assert {name: families.get(name) for name in expected} == expected
        deleted = tuple(f"repro_cache_{table}_" for table in _DELETED_TABLES)
        assert not [name for name in families if name.startswith(deleted)]


# -- CLI -------------------------------------------------------------------------


class TestServeCli:
    def test_serve_once_self_checks_every_endpoint(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("REPRO_SESSION_ROOT", raising=False)
        code = cli_main(["repro", "serve", "--once", "--products", "4"])
        captured = capsys.readouterr()
        document = json.loads(captured.out)
        assert code == 0
        assert document["ok"] is True
        probed = {row["endpoint"] for row in document["probes"]}
        assert {"/healthz", "/statusz", "/metrics", "/ask?q=q1"} <= probed
        assert "/ask?q=q1&session=demo" in probed
        assert not any("mode=fetch" in endpoint for endpoint in probed)
        assert all(row["trace_id"] for row in document["probes"])
        # an in-memory server leaves no session root behind
        assert list(tmp_path.iterdir()) == []

    def test_serve_keeps_no_second_copy_of_request_traces(
        self, tmp_path, monkeypatch, capsys
    ):
        """The flight recorder holds each request's trace; ``serve``
        leaves none of them in the ``obs.traces()`` ring, which no
        endpoint reads."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("REPRO_SESSION_ROOT", raising=False)
        obs.reset()
        code = cli_main(["repro", "serve", "--once", "--products", "4"])
        document = json.loads(capsys.readouterr().out)
        assert code == 0 and document["ok"] is True
        recorded = next(
            row for row in document["probes"] if row["endpoint"] == "/debug/flightrecorder"
        )
        assert int(recorded["detail"].split()[0]) > 0
        assert [root for root in obs.traces() if root.name == "ops.request"] == []
        assert obs.STATE.max_traces == 256

    def test_serve_rejects_unknown_flags(self, capsys):
        assert cli_main(["repro", "serve", "--bogus"]) == 2

    def test_serve_rejects_process_backend(self, capsys):
        assert cli_main(["repro", "serve", "--once", "--backend", "process"]) == 2
        assert "docs/PERFORMANCE.md" in capsys.readouterr().err

    def test_serve_once_cluster_on_thread_backend(self, tmp_path, capsys):
        code = cli_main(
            ["repro", "serve", "--shards", "2", "--backend", "thread", "--once",
             "--products", "4", "--root", str(tmp_path)]
        )
        document = json.loads(capsys.readouterr().out)
        assert code == 0 and document["ok"] is True
        probed = {row["endpoint"] for row in document["probes"]}
        assert "/ask?q=q1&session=demo" in probed

    def test_serve_missing_session_fails_cleanly(self, tmp_path, capsys):
        code = cli_main(
            ["repro", "serve", "--once", "--session", "ghost", "--root", str(tmp_path)]
        )
        assert code == 1
        assert "ghost" in capsys.readouterr().err


# -- always-on telemetry: SLOs, sampling, quantile series -------------------------


class TestAlwaysOnTelemetry:
    def test_slo_endpoint_shape(self, server):
        _get(server.url + "/ask?q=q1")
        _wait_until(lambda: server.request_log.logged >= 1)
        status, _, body = _get(server.url + "/slo")
        assert status == 200
        document = json.loads(body)
        names = {o["name"] for o in document["slo"]["objectives"]}
        assert {"availability-99.9", "latency-99"} <= names
        assert document["degrade_on_burn"] is False
        assert document["sampler"]["head_rate"] == 1.0
        assert "all" in document["latency"]
        assert document["latency"]["all"]["count"] >= 1

    def test_debug_error_injects_5xx(self, server):
        status, headers, body = _get(server.url + "/debug/error")
        assert status == 500
        assert headers["X-Repro-Trace-Id"]
        assert "induced" in json.loads(body)["error"]
        status, _, _ = _get(server.url + "/debug/error?status=503")
        assert status == 503
        status, _, _ = _get(server.url + "/debug/error?status=404")
        assert status == 400  # only 5xx can be injected
        status, _, _ = _get(server.url + "/debug/error?status=oops")
        assert status == 400

    def test_metrics_quantile_and_exemplar_series(self, server):
        for _ in range(3):
            _get(server.url + "/ask?q=q1")
        _get(server.url + "/debug/error")
        _wait_until(lambda: server.request_log.logged >= 4)
        status, _, body = _get(server.url + "/metrics")
        assert status == 200
        samples = validate_prometheus_text(body.decode("utf-8"))
        # whole-stream quantiles of the request's span, labelled by route
        ask = 'layer="ops.request",path="/ask"'
        assert samples[f'repro_latency_seconds{{{ask},quantile="0.5"}}'] >= 0.0
        assert samples[f"repro_latency_seconds_count{{{ask}}}"] >= 3
        error = 'layer="ops.request",path="/debug/error"'
        assert samples[f"repro_latency_seconds_count{{{error}}}"] >= 1
        assert not any(n.startswith("repro_http_all_") for n in samples)
        # exemplar series link quantiles to concrete trace ids
        exemplars = [
            n for n in samples if n.startswith("repro_http_exemplar_seconds{")
        ]
        assert any('kind="slowest"' in n for n in exemplars)
        assert any('kind="last_error"' in n for n in exemplars)
        assert all("trace_id=" in n for n in exemplars)
        # sampler and SLO books
        assert samples["repro_trace_sampler_kept_total"] >= 1
        assert 'repro_slo_burning{objective="latency-99"}' in samples

    def test_telemetry_survives_obs_disabled(self):
        """The recorder's keep books and the SLO books run even with span
        collection off.  Latency books do not: the span is the only one.
        Nor do exemplars: there is no trace to hold or point at."""
        assert not obs.STATE.enabled
        srv = _demo_server()
        for _ in range(3):
            status, _ = drive_request(srv, "/ask?q=q1")
            assert status == 200
        status, body = drive_request(srv, "/slo")
        assert status == 200
        document = json.loads(body)
        availability = next(
            o
            for o in document["slo"]["objectives"]
            if o["name"] == "availability-99.9"
        )
        assert availability["lifetime"]["good"] >= 3
        assert list(document["latency"]) == ["all"]
        assert document["latency"]["all"]["count"] == 0
        assert document["sampler"]["kept"] >= 3
        assert len(srv.recorder) == 0
        assert srv.recorder.exemplars() == []
        _, body = drive_request(srv, "/metrics")
        assert "repro_http_exemplar_seconds" not in body
        assert "repro_trace_sampler_kept_total 4" in body  # 3 asks, /slo
        # the pool rollup is read per scrape, spans or not
        samples = validate_prometheus_text(body)
        assert samples["repro_cluster_shards"] == 1
        assert samples["repro_shard_0_sessions"] == 1
        assert "repro_ops_uptime_seconds" in samples

    def test_client_paths_do_not_reach_metric_names(self, server):
        """Paths that sanitize to one metric name, or carry ``}``, leave
        ``/metrics`` valid: no client path becomes a name or label."""
        import http.client

        for path in ("/a-b", "/a_b", "/x%7Dy"):
            status, _, _ = _get(server.url + path)
            assert status == 404
        host, port = server.address
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            connection.request("GET", "/x}y")
            assert connection.getresponse().status == 404
        finally:
            connection.close()
        _wait_until(lambda: server.request_log.logged >= 4)
        status, _, body = _get(server.url + "/metrics")
        assert status == 200
        samples = validate_prometheus_text(body.decode("utf-8"))
        unmatched = 'layer="ops.request",path="unmatched"'
        assert samples[f"repro_latency_seconds_count{{{unmatched}}}"] == 4
        assert not any("a_b" in n or "x}y" in n or "7Dy" in n for n in samples)

    def test_unmatched_paths_share_one_label_set(self):
        obs.enable()
        srv = _demo_server()
        assert drive_request(srv, "/ask?q=q1")[0] == 200
        for i in range(500):
            assert drive_request(srv, f"/missing-{i}")[0] == 404
        requests = obs.STATE.metrics.family("latency.seconds", layer="ops.request")
        assert sorted(h.labels["path"] for h in requests) == ["/ask", UNMATCHED]
        assert sum(h.count for h in requests) == 501
        rows = srv.recorder.exemplars()
        assert {row["path"] for row in rows} <= {"/ask", UNMATCHED}
        # the ring keeps the raw path
        assert srv.request_log.recent(1)[0]["path"] == "/missing-499"
        _, body = drive_request(srv, "/slo")
        latency = json.loads(body)["latency"]
        assert sorted(latency) == ["/ask", "all", UNMATCHED]
        assert latency["all"]["count"] == 501
        assert latency[UNMATCHED]["count"] == 500

    def test_crashing_route_books_alike_over_http_and_drive_request(self):
        """A route that raises is one 500 that the request log and the
        SLO engine each count once — over HTTP and through
        drive_request alike, because both run one request body."""

        def crash(_params, _extras):
            raise RuntimeError("route crashed")

        def books(srv):
            (availability,) = [
                o for o in srv.slo.snapshot()["objectives"]
                if o["name"].startswith("availability")
            ]
            return srv.request_log.logged, availability["lifetime"]["bad"]

        cluster, source = demo_cluster(shards=1, products=3)
        live = OpsServer(cluster, source=source).start()
        inproc = OpsServer(cluster, source=source)
        try:
            for srv in (live, inproc):
                srv._routes["/healthz"] = crash
            status, _, body = _get(live.url + "/healthz")
            _wait_until(lambda: books(live) == (1, 1))
            assert (status, json.loads(body)["error"]) == (500, "route crashed")
            status, body = drive_request(inproc, "/healthz")
            assert (status, json.loads(body)["error"]) == (500, "route crashed")
            assert books(live) == books(inproc) == (1, 1)
            (row,) = inproc.request_log.recent()
            assert (row["path"], row["status"]) == ("/healthz", 500)
        finally:
            live.stop()
            inproc.request_log.close()

    def test_flight_recorder_keep_reasons(self, server):
        _get(server.url + "/ask?q=q1")
        _get(server.url + "/ask?q=%5Bbad")  # errored -> always kept
        _wait_until(lambda: server.recorder.stats()["kept"] >= 2)
        stats = server.recorder.stats()
        assert stats["by_reason"].get("head", 0) >= 1
        assert stats["by_reason"].get("error", 0) >= 1
        assert all("keep" in root.attrs for root in server.recorder.roots())

    def test_head_rate_zero_keeps_only_tail_matches(self):
        obs.enable(obs.NullSink())
        srv = _demo_server(recorder=FlightRecorder(head_rate=0.0)).start()
        try:
            for _ in range(5):
                _get(srv.url + "/healthz")
            _get(srv.url + "/ask?q=%5Bbad")
            _wait_until(lambda: srv.recorder.stats()["dropped"] >= 5)
        finally:
            srv.stop()
        stats = srv.recorder.stats()
        assert stats["dropped"] >= 5  # healthy fast traffic not recorded
        assert stats["by_reason"].get("error", 0) >= 1
        assert stats["retained_completed"] == 0
        assert stats["retained_errored"] == stats["kept"]

    def test_head_rate_zero_books_every_decision_once(self):
        """One book: N healthy requests dropped, M errors kept, and the
        reasons sum to the keeps — also with span collection off."""
        srv = _demo_server(recorder=FlightRecorder(head_rate=0.0))
        healthy, errors = 7, 3
        for _ in range(healthy):
            assert drive_request(srv, "/healthz")[0] == 200
        for _ in range(errors):
            assert drive_request(srv, "/debug/error")[0] == 500
        _, body = drive_request(srv, "/statusz")
        document = json.loads(body)
        assert "sampler" not in document
        books = document["flight_recorder"]
        assert (books["kept"], books["dropped"]) == (errors, healthy)
        assert sum(books["by_reason"].values()) == books["kept"]
        assert books["by_reason"] == {"error": errors}

    def test_metrics_exemplars_resolve_in_the_flight_recorder(self):
        """Every exemplar trace id on ``/metrics`` is a trace that
        ``/debug/flightrecorder`` still holds: the slowest ``/ask`` ever
        (the first) has been evicted, so the exemplar is the slowest
        held one (the 40th, the newest)."""
        obs.enable(obs.NullSink())
        plan = FaultPlan.parse(
            "ops.request:latency:nth=1:ms=80;ops.request:latency:nth=40:ms=30"
        )
        srv = _demo_server(recorder=FlightRecorder(capacity=8), fault_plan=plan)
        for _ in range(40):
            assert drive_request(srv, "/ask?q=q1")[0] == 200
        fortieth = srv.request_log.recent(1)[0]["trace_id"]
        assert drive_request(srv, "/debug/error")[0] == 500
        status, body = drive_request(srv, "/metrics")
        assert status == 200
        exemplars = {
            name: value
            for name, value in validate_prometheus_text(body).items()
            if name.startswith("repro_http_exemplar_seconds{")
        }
        trace_ids = {
            name.split('trace_id="', 1)[1].split('"', 1)[0] for name in exemplars
        }
        # slowest /ask, slowest /debug/error, newest 5xx (that same trace)
        assert (len(exemplars), len(trace_ids)) == (3, 2)
        slowest_ask = [n for n in exemplars if 'path="/ask"' in n]
        assert len(slowest_ask) == 1 and f'trace_id="{fortieth}"' in slowest_ask[0]
        assert exemplars[slowest_ask[0]] >= 0.03
        _, body = drive_request(srv, "/debug/flightrecorder")
        held = {
            event["args"]["trace_id"]
            for event in json.loads(body)["traceEvents"]
            if "trace_id" in event.get("args", {})
        }
        assert trace_ids <= held

    def test_degrade_on_burn_applies_remedy(self):
        """A burning latency SLO applies its paper remedy to the engine."""
        from repro.obs.slo import KIND_LATENCY, Objective, SloEngine

        engine = SloEngine(
            # every request is slower than a nanosecond: burns immediately
            objectives=[
                Objective("lat", KIND_LATENCY, 0.99, threshold_s=1e-9)
            ],
        )
        srv = _demo_server(slo=engine, degrade_on_burn=True)
        for _ in range(15):
            drive_request(srv, "/ask?q=q1")
        assert srv.remedies_applied == ["lossy"]
        _, body = drive_request(srv, "/slo")
        assert json.loads(body)["remedies_applied"] == ["lossy"]

    def test_histogram_summary_carries_sketch_quantiles(self):
        obs.enable(obs.RingBufferSink())
        for i in range(1, 101):
            obs.STATE.metrics.observe("demo.series", i / 100.0)
        summary = obs.STATE.metrics.histograms()["demo.series"]
        assert "recent" in summary  # the PR-1 window survives
        quantiles = summary["quantiles"]
        assert quantiles["p50"] == pytest.approx(0.5, rel=0.03)
        assert quantiles["p99"] == pytest.approx(0.99, rel=0.03)
        assert obs.STATE.metrics.quantile("demo.series", 0.5) == pytest.approx(
            0.5, rel=0.03
        )


class TestAskParsesOnce:
    SPEC = "/ask?q=catalog/product/price[%3C300]&session=demo"

    def test_a_repeated_spec_hands_the_pool_one_query(self, monkeypatch):
        """Two ``/ask`` with one spec parse it once, through the module
        global the traced benchmark wraps, and hand the pool the
        identical query object."""
        import repro.ops.server as server_module

        srv = _demo_server()
        parsed, seen = [], []
        real_parse, real_answer = server_module.parse_query_spec, srv.cluster.answer_info

        def counting_parse(spec, **kwargs):
            parsed.append(spec)
            return real_parse(spec, **kwargs)

        def answer_info(key, query):
            seen.append(query)
            return real_answer(key, query)

        monkeypatch.setattr(server_module, "parse_query_spec", counting_parse)
        monkeypatch.setattr(srv.cluster, "answer_info", answer_info)
        try:
            assert drive_request(srv, self.SPEC)[0] == 200
            assert drive_request(srv, self.SPEC)[0] == 200
        finally:
            srv.cluster.close()
        assert parsed == ["catalog/product/price[<300]"]
        assert len(seen) == 2 and seen[0] is seen[1]

    def test_the_table_never_exceeds_its_bound(self):
        from repro.ops.server import MAX_PARSED

        srv = _demo_server()
        sizes = []
        try:
            for t in range(3 * MAX_PARSED):
                path = f"/ask?q=catalog/product/price[%3C{t}]&session=demo"
                assert drive_request(srv, path)[0] == 200
                sizes.append(len(srv._parsed))
            assert drive_request(srv, "/ask?q=a/~b/c")[0] == 400  # never kept
        finally:
            srv.cluster.close()
        assert max(sizes) == MAX_PARSED
        assert len(srv._parsed) <= MAX_PARSED

    def test_racing_handlers_keep_the_table_bounded_and_exact(self):
        """Handler threads share the table without a lock: under a short
        switch interval every response still answers its own spec, and
        the table overshoots its bound by at most one entry per thread."""
        import sys

        from repro.ops.server import MAX_PARSED

        srv = _demo_server()
        workers, errors, sizes = 8, [], []

        def client(worker):
            for i in range(40):
                t = (worker * 40 + i) % (2 * MAX_PARSED)
                status, body = drive_request(
                    srv, f"/ask?q=catalog/product/price[%3C{t}]&session=demo"
                )
                if status != 200 or json.loads(body)["query"] != f"catalog/product/price[<{t}]":
                    errors.append((status, body))
                sizes.append(len(srv._parsed))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client, args=(w,)) for w in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            srv.cluster.close()
        assert not errors, errors[:3]
        assert len(sizes) == workers * 40
        assert max(sizes) <= MAX_PARSED + workers
        for spec, query in list(srv._parsed.items()):
            assert query == parse_query_spec(spec)


class TestParseQuerySpec:
    def test_path_with_condition(self):
        query = parse_query_spec("catalog/product/price[<300]")
        assert query.root.label == "catalog"
        leaf = query.root.children[0].children[0]
        assert leaf.label == "price"

    def test_named_map_wins(self):
        query = parse_query_spec("q1", named={"q1": query1})
        assert query == query1()

    def test_bar_must_be_leaf(self):
        with pytest.raises(ValueError):
            parse_query_spec("~a/b")

    def test_path_over_the_step_cap_is_refused(self):
        from repro.core.parsing import MAX_QUERY_STEPS, QuerySyntaxError

        assert parse_query_spec("/".join(["a"] * MAX_QUERY_STEPS)).depth() == MAX_QUERY_STEPS
        with pytest.raises(QuerySyntaxError, match="steps"):
            parse_query_spec("/".join(["a"] * (MAX_QUERY_STEPS + 1)))
