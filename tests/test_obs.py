"""The observability layer: metrics, spans, sinks, and integration."""

import io
import json
import threading

import pytest

import repro.obs as obs
from repro.obs.registry import Counter, Histogram, Metrics
from repro.obs.sinks import JsonLinesSink, NullSink, RingBufferSink, TeeSink
from repro.obs.spans import Span


@pytest.fixture(autouse=True)
def clean_obs():
    """Every test starts and ends with a pristine disabled state."""
    obs.disable()
    obs.STATE.sink = NullSink()
    obs.STATE.clear()
    yield
    obs.disable()
    obs.STATE.sink = NullSink()
    obs.STATE.clear()


class TestMetrics:
    def test_counter_lazy_creation_and_inc(self):
        metrics = Metrics()
        metrics.inc("a.calls")
        metrics.inc("a.calls", 4)
        assert metrics.value("a.calls") == 5
        assert metrics.value("never.touched") == 0

    def test_counter_identity_is_stable(self):
        metrics = Metrics()
        assert metrics.counter("x") is metrics.counter("x")

    def test_histogram_moments(self):
        metrics = Metrics()
        for value in (3, 1, 2):
            metrics.observe("h", value)
        histogram = metrics.histogram("h")
        assert histogram.count == 3
        assert histogram.total == 6
        assert histogram.min == 1
        assert histogram.max == 3
        assert histogram.mean == pytest.approx(2.0)
        assert metrics.series("h") == [3, 1, 2]

    def test_histogram_recent_window_is_bounded(self):
        histogram = Histogram("h", window=4)
        for value in range(10):
            histogram.observe(value)
        assert list(histogram.recent) == [6, 7, 8, 9]
        assert histogram.count == 10  # aggregates keep the full history

    def test_snapshot_is_json_ready(self):
        metrics = Metrics()
        metrics.inc("c", 2)
        metrics.observe("h", 1.5)
        snapshot = json.loads(json.dumps(metrics.snapshot()))
        assert snapshot["counters"]["c"] == 2
        assert snapshot["histograms"]["h"]["count"] == 1

    def test_reset_clears_in_place(self):
        metrics = Metrics()
        metrics.inc("c")
        metrics.observe("h", 1)
        metrics.reset()
        assert len(metrics) == 0
        assert metrics.value("c") == 0


class TestSpans:
    def test_disabled_span_yields_none(self):
        with obs.span("anything", attr=1) as sp:
            assert sp is None

    def test_nesting_builds_a_tree(self):
        with obs.capture():
            with obs.span("outer", level=0) as outer:
                with obs.span("inner", level=1) as inner:
                    assert obs.current_span() is inner
                assert obs.current_span() is outer
        roots = obs.traces()
        assert [root.name for root in roots] == ["outer"]
        assert [child.name for child in roots[0].children] == ["inner"]
        assert roots[0].attrs == {"level": 0}
        assert roots[0].children[0].attrs == {"level": 1}
        assert roots[0].duration >= roots[0].children[0].duration

    def test_add_attrs_and_event_attach_to_current_span(self):
        with obs.capture():
            with obs.span("work"):
                obs.add_attrs(items=7)
                obs.event("checkpoint", phase="mid")
        root = obs.traces()[0]
        assert root.attrs == {"items": 7}
        assert root.events == [{"name": "checkpoint", "attrs": {"phase": "mid"}}]

    def test_span_durations_feed_the_metrics_registry(self):
        with obs.capture():
            with obs.span("timed.region"):
                pass
        histogram = obs.metrics.histogram("latency.seconds", layer="timed.region")
        assert histogram.count == 1
        assert histogram.min >= 0

    def test_find_descendants_by_name(self):
        root = Span("a", {})
        child = Span("b", {})
        grandchild = Span("a", {})
        child.children.append(grandchild)
        root.children.append(child)
        assert root.find("a") == [root, grandchild]

    def test_to_dict_roundtrips_through_json(self):
        with obs.capture():
            with obs.span("outer", n=1):
                with obs.span("inner"):
                    pass
        rendered = json.loads(json.dumps(obs.traces()[0].to_dict()))
        assert rendered["name"] == "outer"
        assert rendered["attrs"] == {"n": 1}
        assert rendered["children"][0]["name"] == "inner"

    def test_thread_spans_do_not_interleave(self):
        errors = []

        def worker(tag):
            try:
                with obs.span(f"thread.{tag}") as sp:
                    assert sp is not None and obs.current_span() is sp
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        with obs.capture():
            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert not errors
        assert sorted(root.name for root in obs.traces()) == [
            f"thread.{i}" for i in range(4)
        ]


class TestSinks:
    def test_ring_buffer_keeps_most_recent(self):
        sink = RingBufferSink(capacity=3)
        for i in range(5):
            sink.emit({"i": i})
        assert [event["i"] for event in sink.events()] == [2, 3, 4]
        assert sink.drain() and len(sink) == 0

    def test_jsonl_sink_writes_parseable_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonLinesSink(path)
        sink.emit({"type": "span", "name": "a"})
        sink.emit({"type": "event", "name": "b"})
        sink.close()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [line["name"] for line in lines] == ["a", "b"]
        assert sink.emitted == 2

    def test_jsonl_sink_accepts_open_stream(self):
        stream = io.StringIO()
        sink = JsonLinesSink(stream)
        sink.emit({"x": 1})
        sink.close()  # must not close a caller-owned stream
        assert json.loads(stream.getvalue()) == {"x": 1}

    def test_tee_fans_out(self):
        left, right = RingBufferSink(), RingBufferSink()
        TeeSink(left, right).emit({"x": 1})
        assert left.events() == right.events() == [{"x": 1}]

    def test_span_events_carry_depth_for_reassembly(self):
        with obs.capture() as sink:
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
        spans = {e["name"]: e for e in sink.events() if e["type"] == "span"}
        assert spans["inner"]["depth"] == 1
        assert spans["outer"]["depth"] == 0


class TestDisabledMode:
    def test_no_events_no_metrics_no_traces(self):
        sink = RingBufferSink()
        obs.STATE.sink = sink  # even with a live sink installed...
        assert not obs.enabled()
        with obs.span("silent", expensive="attr"):
            obs.event("also.silent")
            obs.add_attrs(ignored=True)
        assert sink.events() == []
        assert len(obs.metrics) == 0
        assert obs.traces() == []

    def test_instrumented_code_paths_stay_silent(self):
        from repro.core.matching import max_bipartite_matching
        from repro.refine.refine import refine_sequence
        from repro.workloads.catalog import CATALOG_ALPHABET, query1
        from repro.workloads.catalog import generate_catalog

        doc = generate_catalog(3, seed=3)
        refine_sequence(CATALOG_ALPHABET, [(query1(), query1().evaluate(doc))])
        max_bipartite_matching(["a"], {"a": ["x"]})
        assert len(obs.metrics) == 0
        assert obs.traces() == []

    def test_capture_restores_previous_state(self):
        assert not obs.enabled()
        with obs.capture():
            assert obs.enabled()
        assert not obs.enabled()
        assert isinstance(obs.STATE.sink, NullSink)


class TestEnableDisable:
    def test_enable_installs_ring_buffer_by_default(self):
        obs.enable()
        assert obs.enabled()
        assert isinstance(obs.STATE.sink, RingBufferSink)
        obs.disable()
        assert not obs.enabled()

    def test_enable_keeps_explicit_sink(self):
        sink = RingBufferSink()
        obs.enable(sink)
        assert obs.STATE.sink is sink

    def test_reset_drains_everything(self):
        obs.enable()
        with obs.span("x"):
            pass
        obs.metrics.inc("c")
        obs.reset()
        assert obs.traces() == []
        assert len(obs.metrics) == 0
        assert obs.STATE.sink.events() == []


class TestIntegration:
    def test_refine_sequence_emits_expected_spans_and_monotone_growth(self):
        from repro.refine.refine import refine_sequence
        from repro.workloads.catalog import (
            CATALOG_ALPHABET,
            catalog_type,
            generate_catalog,
            query1,
            query2,
        )

        doc = generate_catalog(6, seed=6)
        history = [
            (query1(), query1().evaluate(doc)),
            (query2(), query2().evaluate(doc)),
        ]
        with obs.capture() as sink:
            refine_sequence(CATALOG_ALPHABET, history, tree_type=catalog_type())

        names = {e["name"] for e in sink.events() if e["type"] == "span"}
        assert {"refine.sequence", "refine.step", "refine.type_intersect"} <= names

        root = obs.traces()[-1]
        assert root.name == "refine.sequence"
        assert len(root.find("refine.step")) == len(history)

        assert obs.metrics.value("refine.steps") == len(history)
        assert obs.metrics.value("refine.specializations") > 0
        sizes = obs.metrics.series("refine.knowledge_size")
        assert len(sizes) == len(history)
        assert sizes == sorted(sizes)  # knowledge only grows on this workload

    def test_webhouse_knowledge_size_series_per_recorded_query(self):
        from repro.mediator.source import InMemorySource
        from repro.mediator.webhouse import Webhouse
        from repro.workloads.catalog import (
            CATALOG_ALPHABET,
            catalog_type,
            demo_catalog,
            query1,
            query2,
        )

        tt = catalog_type()
        source = InMemorySource(demo_catalog(), tt)
        webhouse = Webhouse(CATALOG_ALPHABET, tree_type=tt)
        with obs.capture():
            webhouse.ask(source, query1())
            webhouse.ask(source, query2())
        sizes = obs.metrics.series("webhouse.knowledge_size")
        assert len(sizes) == 2
        assert sizes == sorted(sizes)
        assert obs.metrics.value("webhouse.records") == 2
        assert obs.metrics.value("webhouse.asks") == 2

    def test_matching_counters_fire_on_prefix_checks(self):
        from repro.core.tree import DataTree, node
        from repro.incomplete.certainty import certain_prefix, possible_prefix
        from repro.refine.refine import refine_sequence
        from repro.workloads.catalog import (
            CATALOG_ALPHABET,
            catalog_type,
            generate_catalog,
            query1,
        )
        from repro.refine.type_intersect import intersect_with_tree_type

        doc = generate_catalog(4, seed=4)
        knowledge = intersect_with_tree_type(
            refine_sequence(
                CATALOG_ALPHABET, [(query1(), query1().evaluate(doc))]
            ),
            catalog_type(),
        )
        prefix = DataTree.build(
            node(
                "cat0",
                "catalog",
                0,
                [node("g", "product", 0, [node("gp", "price", 999)])],
            )
        )
        with obs.capture():
            possible_prefix(prefix, knowledge)
            certain_prefix(prefix, knowledge)
        counters = obs.metrics.counters()
        assert counters["matching.assignment_calls"] > 0
        assert counters["matching.max_flow_calls"] > 0
        assert counters["matching.bipartite_calls"] > 0
        assert counters["certainty.possible_sets_calls"] == 1
        assert counters["certainty.certain_sets_calls"] == 1

    def test_emptiness_fixpoint_rounds_are_observed(self):
        from repro.incomplete.conditional import ConditionalTreeType
        from repro.core.multiplicity import Atom, Disjunction

        mu = {
            "a": Disjunction.single(Atom.of(b="1")),
            "b": Disjunction.leaf(),
        }
        tau = ConditionalTreeType.simple(["a"], mu)
        with obs.capture():
            assert not tau.is_empty()
        assert obs.metrics.value("emptiness.is_empty_calls") == 1
        rounds = obs.metrics.series("emptiness.fixpoint_rounds")
        assert rounds and rounds[0] >= 2  # chain of length 2 needs >= 2 rounds

    def test_webhouse_stats_without_global_obs(self):
        from repro.mediator.source import InMemorySource
        from repro.mediator.webhouse import Webhouse
        from repro.workloads.catalog import (
            CATALOG_ALPHABET,
            catalog_type,
            demo_catalog,
            query1,
            query4,
        )

        tt = catalog_type()
        source = InMemorySource(demo_catalog(), tt)
        webhouse = Webhouse(CATALOG_ALPHABET, tree_type=tt)
        webhouse.ask(source, query1())
        webhouse.complete_and_answer(source, query4())
        stats = webhouse.stats()
        assert stats["asks"] == 1
        assert stats["queries_recorded"] == len(webhouse.history)
        assert stats["source_completions"] == 1
        assert stats["knowledge_size"] == webhouse.size()
        assert stats["specializations"] > 0
        assert str(stats["knowledge_size"]) in repr(webhouse)
        # the global registry stayed untouched
        assert len(obs.metrics) == 0

    def test_public_reexport(self):
        import repro

        assert repro.obs is obs
        assert "obs" in repro.__all__
