"""SLO objectives, the multi-window burn-rate engine, the trace keep rules.

The engine's clock is injectable, so these tests drive time by hand:
a burn alert must fire only when *every* window exceeds the threshold
with enough short-window evidence, fire exactly once per episode, and
resolve once the short window cools down.  A burning latency objective
carries a paper remedy; the degrade hook applies it to a real
:class:`Webhouse`.
"""

from __future__ import annotations

import pytest

from repro.mediator.source import InMemorySource
from repro.mediator.webhouse import Webhouse
from repro.obs.monitor import REMEDY_CONJUNCTIVE, REMEDY_LOSSY
from repro.obs.slo import (
    DEFAULT_SLOW_S,
    KIND_AVAILABILITY,
    KIND_LATENCY,
    Objective,
    SloEngine,
    default_objectives,
)
from repro.obs.spans import Span
from repro.ops.flight import (
    REASON_ERROR,
    REASON_HEAD,
    REASON_SHED,
    REASON_SLOW,
    FlightRecorder,
)
from repro.ops.trace import TraceHandle
from repro.workloads.catalog import (
    CATALOG_ALPHABET,
    catalog_type,
    demo_catalog,
    query1,
)


class FakeClock:
    def __init__(self, now: float = 1000.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def availability_engine(**overrides) -> "tuple[SloEngine, FakeClock]":
    clock = FakeClock()
    kwargs = dict(
        objectives=[Objective("avail", KIND_AVAILABILITY, 0.999)],
        windows=(60.0, 300.0),
        burn_threshold=10.0,
        min_events=10,
        clock=clock,
    )
    kwargs.update(overrides)
    return SloEngine(**kwargs), clock


# -- objectives ---------------------------------------------------------------


def test_objective_parse_availability():
    objective = Objective.parse("availability:99.9")
    assert objective.kind == KIND_AVAILABILITY
    assert objective.target == pytest.approx(0.999)
    assert objective.budget == pytest.approx(0.001)
    assert objective.remedy is None
    assert objective.is_bad(500, 0.01)
    assert objective.is_bad(503, 0.01)
    assert not objective.is_bad(404, 0.01)  # 4xx spends no budget
    assert not objective.is_bad(200, 99.0)


def test_objective_parse_latency():
    objective = Objective.parse("latency:99:250ms")
    assert objective.kind == KIND_LATENCY
    assert objective.threshold_s == pytest.approx(0.25)
    assert objective.remedy == REMEDY_LOSSY  # the latency default
    assert objective.is_bad(200, 0.3)
    assert not objective.is_bad(200, 0.2)
    assert objective.is_bad(500, 0.3)  # slow is bad regardless of status

    assert Objective.parse("latency:95:2s").threshold_s == pytest.approx(2.0)
    assert Objective.parse("latency:95:0.1").threshold_s == pytest.approx(0.1)
    custom = Objective.parse("latency:99:250ms:conjunctive")
    assert custom.remedy == REMEDY_CONJUNCTIVE


@pytest.mark.parametrize(
    "spec",
    [
        "availability",  # no target
        "latency:99",  # no threshold
        "latency:99:250ms:lossy:extra",  # trailing fields
        "latency:99:250ms:frobnicate",  # unknown remedy
        "uptime:99",  # unknown kind
        "availability:0",  # target out of range
        "availability:100",
    ],
)
def test_objective_parse_rejects(spec):
    with pytest.raises(ValueError):
        Objective.parse(spec)


def test_default_objectives_follow_slow_threshold():
    objectives = default_objectives(slow_s=0.1)
    by_kind = {o.kind: o for o in objectives}
    assert by_kind[KIND_LATENCY].threshold_s == pytest.approx(0.1)
    assert by_kind[KIND_AVAILABILITY].target == pytest.approx(0.999)


# -- burn-rate engine ---------------------------------------------------------


def test_no_alert_below_min_events():
    engine, _ = availability_engine()
    for _ in range(9):  # every request bad, but not enough evidence
        engine.record(500, 0.01)
    assert engine.alerts == ()
    assert engine.burning() == []


def test_burn_fires_once_per_episode():
    engine, _ = availability_engine()
    fired = []
    engine.on_alert(fired.append)
    for _ in range(30):
        engine.record(500, 0.01)
    burns = [a for a in engine.alerts if a.kind == "burn"]
    assert len(burns) == 1  # edge-triggered, not once per request
    assert engine.burning() == ["avail"]
    assert fired == list(engine.alerts)
    assert "avail" in burns[0].message


def test_long_window_gates_a_short_blip():
    """A 5xx burst inside the short window alone must not alert when
    the long window has enough healthy history to stay below threshold."""
    engine, clock = availability_engine()
    for _ in range(5000):
        engine.record(200, 0.01)
    clock.advance(250.0)
    for _ in range(15):
        engine.record(500, 0.01)
    # the short window burns hot, but the long window remembers the
    # healthy history — no alert
    snapshot = engine.snapshot()["objectives"][0]
    assert snapshot["windows"]["60"]["burn_rate"] >= 10.0
    assert snapshot["windows"]["300"]["burn_rate"] < 10.0
    assert engine.burning() == []
    assert all(a.kind != "burn" for a in engine.alerts)


def test_burn_resolves_when_short_window_cools():
    engine, clock = availability_engine()
    for _ in range(30):
        engine.record(500, 0.01)
    assert engine.burning() == ["avail"]
    # the bad burst ages out of the 60s window; healthy traffic resumes
    clock.advance(90.0)
    for _ in range(20):
        engine.record(200, 0.01)
    assert engine.burning() == []
    kinds = [a.kind for a in engine.alerts]
    assert kinds == ["burn", "resolved"]


def test_evaluate_resolves_without_new_traffic():
    engine, clock = availability_engine()
    for _ in range(30):
        engine.record(500, 0.01)
    assert engine.burning() == ["avail"]
    clock.advance(90.0)
    engine.evaluate()  # no new requests; the burst decayed
    assert engine.burning() == []
    assert [a.kind for a in engine.alerts] == ["burn", "resolved"]


def test_latency_objective_burns_on_slow_traffic():
    clock = FakeClock()
    engine = SloEngine(
        objectives=[Objective("lat", KIND_LATENCY, 0.99, threshold_s=0.25)],
        clock=clock,
    )
    for _ in range(30):
        engine.record(200, 0.5)  # successful but slow
    burns = [a for a in engine.alerts if a.kind == "burn"]
    assert len(burns) == 1
    assert burns[0].remedy == REMEDY_LOSSY
    assert "lossy" in burns[0].message


def test_degrade_hook_applies_paper_remedy():
    clock = FakeClock()
    engine = SloEngine(
        objectives=[Objective("lat", KIND_LATENCY, 0.99, threshold_s=0.25)],
        clock=clock,
    )
    tree_type = catalog_type()
    webhouse = Webhouse(CATALOG_ALPHABET, tree_type=tree_type)
    webhouse.ask(InMemorySource(demo_catalog(), tree_type), query1())
    applied = []

    def degrade(alert):
        applied.append(alert.remedy)
        webhouse.apply_remedy(alert.remedy)

    engine.set_degrade(degrade)
    before = webhouse.size()
    for _ in range(30):
        engine.record(200, 0.5)
    assert applied == [REMEDY_LOSSY]
    assert webhouse.size() <= before  # forgetting never grows knowledge
    # availability burns carry no remedy: the hook must not re-fire
    assert [a.kind for a in engine.alerts] == ["burn"]


def test_snapshot_shape():
    engine, _ = availability_engine()
    engine.record(200, 0.01)
    engine.record(500, 0.01)
    snapshot = engine.snapshot()
    assert snapshot["burn_threshold"] == 10.0
    assert snapshot["windows_s"] == [60.0, 300.0]
    (objective,) = snapshot["objectives"]
    assert objective["name"] == "avail"
    assert objective["lifetime"] == {
        "good": 1,
        "bad": 1,
        "bad_fraction": 0.5,
    }
    assert objective["windows"]["60"]["events"] == 2
    assert objective["windows"]["60"]["burn_rate"] == pytest.approx(500.0)


def test_engine_rejects_bad_config():
    with pytest.raises(ValueError):
        SloEngine(windows=())
    with pytest.raises(ValueError):
        SloEngine(windows=(0.0, 60.0))
    with pytest.raises(ValueError):
        Objective("x", "availability", 0.999, remedy="frobnicate")
    with pytest.raises(ValueError):
        Objective("x", "latency", 0.99)  # latency needs a threshold


# -- the flight recorder's keep rules -----------------------------------------


def _handle(trace_id: str, errored: bool = False) -> TraceHandle:
    """A finished request's handle; ``errored`` marks a child span."""
    root = Span("ops.request", {})
    if errored:
        root.children.append(Span("engine.step", {"error": "ValueError"}))
    return TraceHandle(trace_id, root)


def test_tail_rules_take_precedence():
    recorder = FlightRecorder(head_rate=0.0)  # head sampling keeps nothing
    assert recorder.offer(_handle("t1"), 200, 0.01) is None
    assert recorder.offer(_handle("t2"), 500, 0.01) == REASON_ERROR
    assert recorder.offer(_handle("t3", errored=True), 200, 0.01) == REASON_ERROR
    assert recorder.offer(_handle("t4"), 503, 0.01) == REASON_SHED
    assert recorder.offer(_handle("t5"), 429, 0.01) == REASON_SHED
    # a shed 503 with an errored span tree is backpressure, not a bug
    assert recorder.offer(_handle("t6", errored=True), 503, 0.01) == REASON_SHED
    assert recorder.offer(_handle("t7"), 200, DEFAULT_SLOW_S * 2) == REASON_SLOW
    stats = recorder.stats()
    assert stats["kept"] == 6
    assert stats["dropped"] == 1
    assert stats["by_reason"] == {
        REASON_ERROR: 2,
        REASON_SHED: 3,
        REASON_SLOW: 1,
    }
    # the kept roots are held, stamped with their reason; the slow one
    # is the only healthy status among them
    assert [root.attrs["keep"] for root in recorder.completed()] == [REASON_SLOW]
    assert len(recorder.errored()) == 5


def test_head_rate_one_keeps_everything():
    recorder = FlightRecorder(head_rate=1.0)
    for index in range(50):
        assert recorder.offer(_handle(f"trace-{index}"), 200, 0.001) == REASON_HEAD
    assert recorder.stats()["keep_fraction"] == 1.0


def test_head_decision_is_deterministic_and_proportional():
    recorder = FlightRecorder(head_rate=0.25)
    ids = [f"trace-{i}" for i in range(4000)]
    kept = [t for t in ids if recorder.head_decision(t)]
    assert kept == [t for t in ids if recorder.head_decision(t)]  # stable
    assert 0.18 <= len(kept) / len(ids) <= 0.32
    # offer() applies the same draw to healthy traffic
    verdicts = [recorder.offer(TraceHandle(t, None), 200, 0.001) for t in ids]
    assert [t for t, v in zip(ids, verdicts) if v == REASON_HEAD] == kept


def test_sampler_rejects_bad_config():
    with pytest.raises(ValueError):
        FlightRecorder(head_rate=1.5)
    with pytest.raises(ValueError):
        FlightRecorder(head_rate=-0.1)
    with pytest.raises(ValueError):
        FlightRecorder(slow_s=0.0)
    with pytest.raises(ValueError):
        FlightRecorder(capacity=0)
