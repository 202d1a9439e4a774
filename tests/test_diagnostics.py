"""The diagnostics layer: profiles, EXPLAIN, growth monitor, exporters."""

import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.obs.monitor import (
    Alert,
    BudgetExceeded,
    GrowthMonitor,
    REGIME_FLAT,
    REGIME_LINEAR,
    REGIME_SUPERLINEAR,
    REGIME_WARMUP,
    REMEDY_CONJUNCTIVE,
    REMEDY_LINEAR,
    REMEDY_LOSSY,
)
from repro.obs.profile import Profile, aggregate
from repro.obs.registry import Counter, Histogram, Metrics
from repro.obs.sinks import NullSink, RingBufferSink
from repro.obs.spans import Span, span


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


def make_span(name, start, end, children=(), **attrs):
    built = Span(name, dict(attrs))
    built.start = start
    built.end = end
    built.children = list(children)
    return built


# -- satellite: thread safety under concurrent load ----------------------------------


class TestThreadSafety:
    def test_counter_hammer(self):
        counter = Counter("c")
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(lambda _: counter.inc(), range(8000)))
        assert counter.value == 8000

    def test_histogram_hammer(self):
        histogram = Histogram("h")
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(histogram.observe, [1.0] * 8000))
        assert histogram.count == 8000
        assert histogram.total == pytest.approx(8000.0)
        assert histogram.min == 1.0 and histogram.max == 1.0

    def test_metrics_concurrent_lazy_creation(self):
        metrics = Metrics()

        def worker(_):
            metrics.inc("shared.calls")
            metrics.observe("shared.values", 2.0)

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(worker, range(4000)))
        assert metrics.value("shared.calls") == 4000
        assert metrics.histogram("shared.values").count == 4000


# -- satellite: span error paths and capture nesting ---------------------------------


class TestSpanErrorPaths:
    def test_exception_closes_and_marks_span(self):
        obs.enable()
        with pytest.raises(ValueError, match="boom"):
            with span("outer"):
                with span("inner"):
                    raise ValueError("boom")
        roots = obs.traces()
        assert [r.name for r in roots] == ["outer"]
        assert roots[0].attrs["error"] == "ValueError"
        (inner,) = roots[0].children
        assert inner.attrs["error"] == "ValueError"
        assert inner.end is not None
        assert obs.STATE.stack == []

    def test_errored_span_still_reaches_sink_and_metrics(self):
        ring = RingBufferSink()
        with obs.capture(ring):
            with pytest.raises(RuntimeError):
                with span("fails"):
                    raise RuntimeError("nope")
            assert obs.metrics.histogram("latency.seconds", layer="fails").count == 1
        events = [e for e in ring.events() if e["type"] == "span"]
        assert events[0]["attrs"]["error"] == "RuntimeError"

    def test_nested_capture_restores_outer_sink(self):
        outer_ring = RingBufferSink()
        with obs.capture(outer_ring):
            inner_ring = RingBufferSink()
            with obs.capture(inner_ring):
                with span("inner.work"):
                    pass
            # outer sink is back; inner events went to the inner ring only
            assert obs.STATE.sink is outer_ring
            with span("outer.work"):
                pass
        assert not obs.enabled()
        outer_names = {e["name"] for e in outer_ring.events() if e["type"] == "span"}
        inner_names = {e["name"] for e in inner_ring.events() if e["type"] == "span"}
        assert outer_names == {"outer.work"}
        assert inner_names == {"inner.work"}

    def test_capture_restores_on_exception(self):
        with pytest.raises(KeyError):
            with obs.capture():
                raise KeyError("x")
        assert not obs.enabled()


# -- profile aggregation ----------------------------------------------------------------


class TestProfile:
    def tree(self):
        inner_a = make_span("child", 1.0, 2.0)
        inner_b = make_span("child", 2.0, 2.5)
        return make_span("root", 0.0, 4.0, [inner_a, inner_b])

    def test_self_time_subtracts_children(self):
        profile = aggregate([self.tree()])
        root = profile.entries["root"]
        assert root.calls == 1
        assert root.total_s == pytest.approx(4.0)
        assert root.self_s == pytest.approx(2.5)  # 4.0 - (1.0 + 0.5)
        child = profile.entries["child"]
        assert child.calls == 2
        assert child.total_s == pytest.approx(1.5)
        assert root.children["child"] == (2, pytest.approx(1.5))

    def test_hot_paths_and_render(self):
        profile = aggregate([self.tree()])
        paths = profile.hot_paths(top=5)
        assert [p[0] for p in paths][0] in (("root",), ("root", "child"))
        text = profile.render()
        assert "root" in text and "child" in text
        assert "total_s" in text

    def test_errors_counted(self):
        errored = make_span("bad", 0.0, 1.0, error="ValueError")
        profile = aggregate([errored])
        assert profile.entries["bad"].errors == 1

    def test_live_aggregation_from_state(self):
        with obs.capture():
            with span("a"):
                with span("b"):
                    pass
            profile = obs.profile()
        assert set(profile.entries) == {"a", "b"}
        assert profile.roots_seen == 1
        doc = profile.to_dict()
        assert "by_name" in doc and "hot_paths" in doc
        json.dumps(doc)  # JSON-ready


# -- growth monitor ---------------------------------------------------------------------


class TestGrowthMonitor:
    def test_warmup_then_flat(self):
        monitor = GrowthMonitor(min_points=3)
        monitor.observe(100)
        assert monitor.classification() == REGIME_WARMUP
        for _ in range(4):
            monitor.observe(100)
        assert monitor.classification() == REGIME_FLAT

    def test_linear_growth(self):
        monitor = GrowthMonitor(min_points=3)
        for size in (100, 200, 300, 400, 500):
            fired = monitor.observe(size)
        assert monitor.classification() == REGIME_LINEAR
        assert fired == []

    def test_superlinear_fires_edge_triggered_alert(self):
        monitor = GrowthMonitor(min_points=3)
        sizes = [10, 20, 40, 80, 160, 320]
        all_fired = []
        for size in sizes:
            all_fired.extend(monitor.observe(size, linear=False))
        regimes = [a for a in all_fired if a.kind == "regime"]
        assert len(regimes) == 1  # edge-triggered, not per observation
        assert regimes[0].regime == REGIME_SUPERLINEAR
        assert regimes[0].remedy == REMEDY_CONJUNCTIVE

    def test_superlinear_on_linear_history_recommends_linear(self):
        monitor = GrowthMonitor(min_points=3)
        for size in (10, 20, 40, 80, 160):
            fired = monitor.observe(size, linear=True)
        assert any(a.remedy == REMEDY_LINEAR for a in monitor.alerts)

    def test_budget_warn_latches(self):
        monitor = GrowthMonitor(warn_budget=50, min_points=3)
        monitor.observe(60)
        monitor.observe(70)
        warns = [a for a in monitor.alerts if a.kind == "budget_warn"]
        assert len(warns) == 1

    def test_hard_budget_raises(self):
        monitor = GrowthMonitor(hard_budget=100, on_hard="raise")
        monitor.observe(50)
        with pytest.raises(BudgetExceeded) as excinfo:
            monitor.observe(150)
        assert excinfo.value.alert.kind == "budget_hard"

    def test_hard_budget_degrade_callback(self):
        seen = []
        monitor = GrowthMonitor(
            hard_budget=100, on_hard="degrade", degrade_callback=seen.append
        )
        monitor.observe(150, linear=False)
        assert len(seen) == 1 and seen[0].kind == "budget_hard"

    def test_budget_breach_without_superlinear_recommends_lossy(self):
        monitor = GrowthMonitor(hard_budget=100, on_hard="warn", min_points=3)
        for size in (90, 95, 100, 105):
            monitor.observe(size)
        hard = [a for a in monitor.alerts if a.kind == "budget_hard"]
        assert hard and all(a.remedy == REMEDY_LOSSY for a in hard)

    def test_degrade_needs_callback(self):
        with pytest.raises(ValueError):
            GrowthMonitor(hard_budget=10, on_hard="degrade")
        with pytest.raises(ValueError):
            GrowthMonitor(on_hard="explode")

    def test_alert_callbacks_and_snapshot(self):
        seen = []
        monitor = GrowthMonitor(min_points=3, alert_callbacks=[seen.append])
        for size in (10, 20, 40, 80, 160):
            monitor.observe(size)
        assert seen and isinstance(seen[0], Alert)
        snapshot = monitor.snapshot()
        assert snapshot["regime"] == REGIME_SUPERLINEAR
        assert snapshot["alerts"][0]["kind"] == "regime"
        json.dumps(snapshot)

    def test_seed_does_not_fire_alerts(self):
        monitor = GrowthMonitor(min_points=3)
        monitor.seed([10, 20, 40, 80], all_linear=False)
        assert monitor.alerts == ()
        assert monitor.classification() == REGIME_SUPERLINEAR

    def test_reset_window_restarts_classification(self):
        monitor = GrowthMonitor(min_points=3)
        for size in (10, 20, 40, 80):
            monitor.observe(size)
        monitor.reset_window()
        assert monitor.classification() == REGIME_WARMUP
        assert monitor.alerts  # history survives


# -- acceptance: Example 3.2 blowup, alert, degrade, polynomial size ------------------


class TestBlowupDegrade:
    def test_superlinear_alert_and_conjunctive_degrade(self):
        from repro.mediator.webhouse import Webhouse
        from repro.workloads.blowup import BLOWUP_ALPHABET, pair_queries

        steps = 12
        wh = Webhouse(BLOWUP_ALPHABET)
        wh.guard(hard_budget=200, on_hard="degrade", window=4)
        for query, answer in pair_queries(steps):
            wh.record(query, answer)

        alerts = wh.monitor.alerts
        regimes = [a for a in alerts if a.kind == "regime"]
        assert regimes, "superlinear growth must fire a regime alert"
        assert regimes[0].regime == REGIME_SUPERLINEAR
        assert regimes[0].remedy == REMEDY_CONJUNCTIVE

        # the degrade hook applied the remedy: Refine+ layering
        assert wh.engine == "conjunctive"
        assert wh.stats()["engine"] == "conjunctive"

        # conjunctive representation stays linear in the history
        # (plain Refine reaches 45061 at n=12 — Example 3.2's 2^n)
        degraded_size = wh.size()
        assert degraded_size < 50 * steps

        # knowledge is still correct: materialization agrees with plain
        from repro.refine.refine import refine_sequence

        plain = refine_sequence(BLOWUP_ALPHABET, pair_queries(4))
        wh4 = Webhouse(BLOWUP_ALPHABET)
        for query, answer in pair_queries(4):
            wh4.record(query, answer)
        wh4.apply_remedy(REMEDY_CONJUNCTIVE)
        assert wh4.engine == "conjunctive"
        assert wh4.knowledge.normalized().size() == plain.normalized().size()

    def test_stats_surfaces_growth_regime(self):
        from repro.mediator.webhouse import Webhouse
        from repro.workloads.blowup import BLOWUP_ALPHABET, pair_queries

        wh = Webhouse(BLOWUP_ALPHABET)
        for query, answer in pair_queries(6):
            wh.record(query, answer)
        stats = wh.stats()
        assert stats["growth_regime"] == REGIME_SUPERLINEAR
        assert stats["engine"] == "plain"

    def test_apply_remedy_rejects_unknown(self):
        from repro.mediator.webhouse import Webhouse

        wh = Webhouse(["a", "b"])
        with pytest.raises(ValueError):
            wh.apply_remedy("wishful-thinking")


# -- EXPLAIN ---------------------------------------------------------------------------


class TestExplain:
    def knowledge(self, products=3):
        from repro.refine.refine import refine_sequence
        from repro.workloads.catalog import (
            CATALOG_ALPHABET,
            generate_catalog,
            query1,
        )

        doc = generate_catalog(products, seed=products)
        return (
            refine_sequence(CATALOG_ALPHABET, [(query1(), query1().evaluate(doc))]),
            doc,
        )

    def test_explain_refine_structure(self):
        from repro.workloads.catalog import CATALOG_ALPHABET, query2

        knowledge, doc = self.knowledge()
        explanation, refined = obs.explain_refine(
            knowledge, query2(), query2().evaluate(doc), CATALOG_ALPHABET
        )
        assert refined.size() > 0
        doc_dict = explanation.to_dict()
        assert doc_dict["inputs"]["knowledge_size"] == knowledge.size()
        assert doc_dict["result"]["knowledge_size"] == refined.size()
        phase_names = [p["phase"] for p in doc_dict["phases"]]
        assert "refine.step" in phase_names
        assert "refine.inverse" in phase_names
        assert "refine.intersect" in phase_names
        text = explanation.render()
        assert "EXPLAIN" in text and "refine.step" in text
        json.loads(explanation.to_json())

    def test_explain_ask_structure(self):
        from repro.workloads.catalog import query4

        knowledge, _ = self.knowledge()
        explanation, answers = obs.explain_ask(knowledge, query4())
        doc_dict = explanation.to_dict()
        phase_names = [p["phase"] for p in doc_dict["phases"]]
        assert "query_incomplete" in phase_names
        assert "query_incomplete.poss_cert" in phase_names
        assert doc_dict["result"]["answer_size"] == answers.size()

    def test_explain_is_isolated_from_global_state(self):
        from repro.workloads.catalog import CATALOG_ALPHABET, query2

        knowledge, doc = self.knowledge()
        ring = RingBufferSink()
        with obs.capture(ring):
            obs.metrics.inc("mine.calls")
            obs.explain_refine(
                knowledge, query2(), query2().evaluate(doc), CATALOG_ALPHABET
            )
            # EXPLAIN's isolated run leaked nothing into our capture
            assert obs.metrics.value("refine.steps") == 0
            assert obs.metrics.value("mine.calls") == 1
            assert obs.traces() == []

    def test_explain_works_with_obs_disabled(self):
        from repro.workloads.catalog import query4

        knowledge, _ = self.knowledge()
        assert not obs.enabled()
        explanation, _ = obs.explain_ask(knowledge, query4())
        assert explanation.phases  # spans were recorded despite disabled global
        assert not obs.enabled()


# -- exporters -------------------------------------------------------------------------

#: Label text biased toward the characters the exposition format escapes
#: or that end a naive label block.
_LABEL_TEXT = st.text(st.one_of(st.sampled_from('}{"\\\n\r=, '), st.characters()))


class TestExporters:
    def test_prometheus_text_validates(self):
        metrics = Metrics()
        metrics.inc("refine.steps", 3)
        metrics.observe("refine.result_size", 10.0)
        metrics.observe("refine.result_size", 30.0)
        text = obs.prometheus_text(metrics)
        samples = obs.validate_prometheus_text(text)
        assert samples["repro_refine_steps_total"] == 3.0
        assert samples["repro_refine_result_size_count"] == 2.0
        assert samples["repro_refine_result_size_sum"] == 40.0
        assert samples["repro_refine_result_size_min"] == 10.0
        assert samples["repro_refine_result_size_max"] == 30.0

    def test_labelled_family_is_declared_once(self):
        metrics = Metrics()
        metrics.observe("latency.seconds", 0.25, layer="ops.request", path="/ask")
        metrics.observe("latency.seconds", 0.5, layer="ops.request", path="/slo")
        metrics.observe("latency.seconds", 1.0, layer="cluster.answer")
        text = obs.prometheus_text(metrics)
        samples = obs.validate_prometheus_text(text)
        assert text.count("# TYPE repro_latency_seconds summary") == 1
        assert text.count("# TYPE ") == 3  # the summary plus _min and _max
        answer = 'layer="cluster.answer"'
        assert samples[f"repro_latency_seconds_count{{{answer}}}"] == 1.0
        ask = 'layer="ops.request",path="/ask"'
        assert samples[f'repro_latency_seconds{{{ask},quantile="0.99"}}'] == (
            pytest.approx(0.25, rel=0.01)
        )
        assert samples[f"repro_latency_seconds_max{{{ask}}}"] == 0.25

    def test_prometheus_validator_rejects_malformed(self):
        with pytest.raises(ValueError):
            obs.validate_prometheus_text("repro_x_total not_a_number\n")
        with pytest.raises(ValueError):
            # sample without a preceding TYPE comment
            obs.validate_prometheus_text("repro_unknown_total 1\n")
        typed = "# TYPE repro_x gauge\n"
        for labels in ('{path="/a"b"}', '{path="/a\\qb"}', "{path=/a}", '{path="/a"'):
            with pytest.raises(ValueError):
                obs.validate_prometheus_text(f"{typed}repro_x{labels} 1\n")

    @settings(max_examples=200, deadline=None)
    @given(_LABEL_TEXT, _LABEL_TEXT)
    def test_any_label_value_validates(self, first, second):
        """Label values may hold ``}``, ``"``, backslashes and newlines:
        escaped by the exporter, they parse, and distinct values stay
        distinct samples."""
        values = [first] if first == second else [first, second]
        metrics = Metrics()
        for i, value in enumerate(values):
            metrics.set_gauge("x", i, path=value)
        samples = obs.validate_prometheus_text(obs.prometheus_text(metrics))
        assert sorted(samples.values()) == list(range(len(values)))

    def test_prometheus_defaults_to_global_metrics(self):
        with obs.capture():
            obs.metrics.inc("something.calls")
            text = obs.prometheus_text()
        assert "repro_something_calls_total 1" in text

    def test_chrome_trace_roundtrip(self, tmp_path):
        child = make_span("inner", 1.0, 2.0, step=1)
        root = make_span("outer", 0.5, 3.0, [child])
        document = obs.chrome_trace([root])
        assert obs.validate_chrome_trace(document) == 2
        events = document["traceEvents"]
        assert all(e["ph"] == "X" for e in events)
        outer = next(e for e in events if e["name"] == "outer")
        assert outer["dur"] == pytest.approx(2.5e6)

        target = tmp_path / "trace.json"
        assert obs.write_chrome_trace(str(target), [root]) == 2
        obs.validate_chrome_trace(json.loads(target.read_text()))

    def test_chrome_trace_validator_rejects_bad_events(self):
        with pytest.raises(ValueError):
            obs.validate_chrome_trace({"traceEvents": [{"name": "x"}]})
        with pytest.raises(ValueError):
            obs.validate_chrome_trace({"no_events": True})
