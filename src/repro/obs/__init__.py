"""repro.obs — lightweight, zero-dependency observability.

The paper's central claims are complexity bounds: PTIME per Refine step
(Theorems 3.4/3.5), PTIME emptiness (Lemma 2.5), and an exponential
incomplete-tree blowup (Example 3.2) with three remedies.  This package
makes those costs *visible*: named counters and histograms
(:class:`~repro.obs.registry.Metrics`), nestable timing spans producing
a structured trace tree (:func:`~repro.obs.spans.span`), and pluggable
event sinks (ring buffer, JSON lines, null).

Disabled by default.  Instrumented hot paths check the module-level
``STATE.enabled`` flag before formatting a single attribute, so the cost
of leaving instrumentation in place is one attribute load per site.

Typical usage::

    import repro.obs as obs

    with obs.capture() as sink:            # enable + ring buffer, restore on exit
        wh.ask(source, query1())
    obs.metrics.value("refine.steps")      # -> 1
    obs.metrics.series("webhouse.knowledge_size")  # growth per recorded query
    obs.traces()[-1].to_dict()             # the span tree of the ask

Or explicitly: ``obs.enable(obs.JsonLinesSink("trace.jsonl"))`` ...
``obs.disable()``.  ``python -m repro serve`` enables collection with a
:class:`NullSink`: spans still build trees and feed the latency family,
but no flat event is kept.  Which finished request traces are kept is
decided, counted and held by :class:`repro.ops.flight.FlightRecorder`.
See ``docs/OBSERVABILITY.md`` for the event schema and the span-name
catalogue.

On top of the raw collection sits the diagnostics layer: span-tree
profiles (:mod:`~repro.obs.profile`), EXPLAIN for Refine and q(T)
(:mod:`~repro.obs.explain`), knowledge-growth monitoring with blowup
alerts and budget enforcement (:mod:`~repro.obs.monitor`), and
Prometheus / Chrome-trace exporters (:mod:`~repro.obs.export`).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from .explain import Explanation, explain_ask, explain_refine, isolated_observation
from .export import (
    chrome_trace,
    chrome_trace_events,
    prometheus_text,
    validate_chrome_trace,
    validate_prometheus_text,
    write_chrome_trace,
)
from .monitor import (
    Alert,
    BudgetExceeded,
    GrowthMonitor,
    REMEDY_CONJUNCTIVE,
    REMEDY_LINEAR,
    REMEDY_LOSSY,
)
from .profile import Profile, ProfileEntry, aggregate, profile_traces
from .registry import Counter, Gauge, Histogram, Metrics
from .sinks import Event, JsonLinesSink, NullSink, RingBufferSink, Sink, TeeSink
from .sketch import QuantileSketch
from .slo import Objective, SloAlert, SloEngine, default_objectives
from .spans import (
    Span,
    add_attrs,
    current_shard,
    current_span,
    current_trace_id,
    event,
    reset_shard,
    reset_trace_id,
    set_shard,
    set_trace_id,
    span,
)
from .state import STATE, ObsState
from .timing import Timer, timed, timer

#: The global metrics registry (stable identity; ``reset()`` clears in place).
metrics: Metrics = STATE.metrics


def enabled() -> bool:
    """Is instrumentation currently collecting?"""
    return STATE.enabled


def enable(sink: Optional[Sink] = None) -> None:
    """Turn collection on; installs a ring buffer when no sink is set."""
    if sink is not None:
        STATE.sink = sink
    elif isinstance(STATE.sink, NullSink):
        STATE.sink = RingBufferSink()
    STATE.enabled = True


def disable() -> None:
    """Turn collection off (collected data stays inspectable)."""
    STATE.enabled = False


def reset() -> None:
    """Drop all collected metrics, traces, and buffered events."""
    STATE.clear()
    if isinstance(STATE.sink, RingBufferSink):
        STATE.sink.drain()


@contextmanager
def capture(sink: Optional[Sink] = None) -> Iterator[Sink]:
    """Enable collection for a block, restoring the previous state after.

    Yields the active sink (a fresh :class:`RingBufferSink` by default)
    so callers can read back the emitted events.
    """
    previous = (STATE.enabled, STATE.sink)
    active = sink if sink is not None else RingBufferSink()
    STATE.sink = active
    STATE.enabled = True
    try:
        yield active
    finally:
        STATE.enabled, STATE.sink = previous


def traces() -> List[Span]:
    """Finished root spans, oldest first."""
    return list(STATE.traces)  # type: ignore[arg-type]


def snapshot() -> Dict[str, object]:
    """Metrics and trace trees as one JSON-ready document."""
    return {
        "metrics": STATE.metrics.snapshot(),
        "trace": [root.to_dict() for root in traces()],
    }


def profile() -> Profile:
    """Aggregate every collected trace tree into a :class:`Profile`."""
    return profile_traces(traces())


__all__ = [
    "Alert",
    "BudgetExceeded",
    "Counter",
    "Event",
    "Explanation",
    "Gauge",
    "GrowthMonitor",
    "Histogram",
    "JsonLinesSink",
    "Metrics",
    "NullSink",
    "ObsState",
    "Objective",
    "Profile",
    "ProfileEntry",
    "QuantileSketch",
    "REMEDY_CONJUNCTIVE",
    "REMEDY_LINEAR",
    "REMEDY_LOSSY",
    "RingBufferSink",
    "STATE",
    "Sink",
    "SloAlert",
    "SloEngine",
    "Span",
    "TeeSink",
    "Timer",
    "add_attrs",
    "aggregate",
    "capture",
    "chrome_trace",
    "chrome_trace_events",
    "current_shard",
    "current_span",
    "current_trace_id",
    "default_objectives",
    "disable",
    "enable",
    "enabled",
    "event",
    "explain_ask",
    "explain_refine",
    "isolated_observation",
    "metrics",
    "profile",
    "profile_traces",
    "prometheus_text",
    "reset",
    "reset_shard",
    "reset_trace_id",
    "set_shard",
    "set_trace_id",
    "snapshot",
    "span",
    "timed",
    "timer",
    "traces",
    "validate_chrome_trace",
    "validate_prometheus_text",
    "write_chrome_trace",
]
