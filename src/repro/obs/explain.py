"""EXPLAIN for the paper's two workhorse operations.

``explain_refine(...)`` runs one Refine step (Theorem 3.4) and
``explain_ask(...)`` one incomplete-tree query evaluation (q(T),
Theorem 3.14) under an *isolated* observability capture — a private
metrics registry, sink, and trace list swapped into ``STATE`` for the
duration — and assembles a structured :class:`Explanation`: the phases
hit (the span tree, flattened), specialization counts, bipartite
matching sizes, condition/emptiness fixpoint rounds, and the
knowledge-size delta.  Rendered as aligned text (:meth:`Explanation.render`)
or JSON (:meth:`Explanation.to_json`).

Isolation means EXPLAIN never pollutes the caller's metrics or traces
and works identically whether observability was on or off.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.query import PSQuery
    from ..core.tree import DataTree
    from ..incomplete.incomplete_tree import IncompleteTree

from .registry import Metrics
from .sinks import RingBufferSink
from .spans import Span, span
from .state import STATE


@contextmanager
def isolated_observation() -> Iterator[Metrics]:
    """Collect into a private registry/sink/trace list, restore after."""
    previous = (STATE.enabled, STATE.sink, STATE.metrics, STATE.traces)
    metrics = Metrics()
    STATE.metrics = metrics
    STATE.sink = RingBufferSink()
    STATE.traces = []
    STATE.enabled = True
    try:
        yield metrics
    finally:
        STATE.enabled, STATE.sink, STATE.metrics, STATE.traces = previous


class Explanation:
    """Structured account of one explained operation."""

    __slots__ = ("operation", "inputs", "phases", "work", "result")

    def __init__(
        self,
        operation: str,
        inputs: Dict[str, object],
        phases: List[Dict[str, object]],
        work: Dict[str, object],
        result: Dict[str, object],
    ):
        self.operation = operation
        self.inputs = inputs
        #: flattened span tree: [{"phase", "depth", "seconds", "attrs"}, ...]
        self.phases = phases
        #: counters / series collected during the operation
        self.work = work
        self.result = result

    def to_dict(self) -> Dict[str, object]:
        return {
            "operation": self.operation,
            "inputs": dict(self.inputs),
            "phases": [dict(p) for p in self.phases],
            "work": dict(self.work),
            "result": dict(self.result),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True, default=str)

    def render(self) -> str:
        """Aligned, human-readable text — the EXPLAIN output."""
        lines = [f"EXPLAIN {self.operation}"]
        lines.append("inputs:")
        for key, value in self.inputs.items():
            lines.append(f"  {key:<28} {_fmt(value)}")
        lines.append("phases:")
        for phase in self.phases:
            indent = "  " * (1 + int(phase["depth"]))  # type: ignore[call-overload]
            attrs = phase.get("attrs") or {}
            attr_text = "  ".join(f"{k}={_fmt(v)}" for k, v in attrs.items())
            seconds = float(phase["seconds"])  # type: ignore[arg-type]
            lines.append(
                f"{indent}{phase['phase']:<{max(4, 40 - len(indent))}}"
                f" {seconds:>10.6f}s  {attr_text}".rstrip()
            )
        lines.append("work:")
        for key, value in self.work.items():
            lines.append(f"  {key:<28} {_fmt(value)}")
        lines.append("result:")
        for key, value in self.result.items():
            lines.append(f"  {key:<28} {_fmt(value)}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Explanation({self.operation!r}, {len(self.phases)} phases)"


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _flatten_phases(root: Span) -> List[Dict[str, object]]:
    phases: List[Dict[str, object]] = []

    def walk(node: Span, depth: int) -> None:
        phases.append(
            {
                "phase": node.name,
                "depth": depth,
                "seconds": node.duration,
                "attrs": dict(node.attrs),
            }
        )
        for child in node.children:
            walk(child, depth + 1)

    for child in root.children:
        walk(child, 0)
    return phases


def _collect_work(metrics: Metrics) -> Dict[str, object]:
    work: Dict[str, object] = dict(metrics.counters())
    for name, series in (
        ("matching.matching_size", "matching_sizes"),
        ("matching.bfs_phases", "matching_bfs_phases"),
        ("emptiness.fixpoint_rounds", "emptiness_fixpoint_rounds"),
        ("certainty.nodes_processed", "certainty_nodes_processed"),
    ):
        values = metrics.series(name)
        if values:
            work[series] = values
    return dict(sorted(work.items()))


def explain_refine(
    current: "IncompleteTree",
    query: "PSQuery",
    answer: "DataTree",
    alphabet: Iterable[str],
    normalize: bool = True,
) -> Tuple[Explanation, "IncompleteTree"]:
    """EXPLAIN one Refine step; returns ``(explanation, refined_tree)``.

    The step actually runs (EXPLAIN ANALYZE, not EXPLAIN): the returned
    tree is the real refinement, so callers can explain *and* keep the
    result without paying twice.
    """
    from ..refine.refine import refine

    input_size = current.size()
    input_symbols = len(current.type.symbols())
    inputs: Dict[str, object] = {
        "knowledge_size": input_size,
        "knowledge_symbols": input_symbols,
        "data_nodes": len(current.data_node_ids()),
        "query_nodes": query.size(),
        "query_linear": query.is_linear(),
        "answer_nodes": len(answer),
    }
    with isolated_observation() as metrics:
        with span("explain.refine") as sp:
            refined = refine(current, query, answer, alphabet, normalize=normalize)
        assert sp is not None
        phases = _flatten_phases(sp)
    result_size = refined.size()
    result = {
        "knowledge_size": result_size,
        "knowledge_symbols": len(refined.type.symbols()),
        "size_delta": result_size - input_size,
        "growth_factor": (result_size / input_size) if input_size else float("inf"),
        "empty": refined.is_empty(),
        "seconds": sp.duration,
    }
    explanation = Explanation(
        "refine (one Refine step, Theorem 3.4)",
        inputs,
        phases,
        _collect_work(metrics),
        result,
    )
    return explanation, refined


def explain_ask(
    incomplete: "IncompleteTree", query: "PSQuery"
) -> Tuple[Explanation, "IncompleteTree"]:
    """EXPLAIN one q(T) evaluation; returns ``(explanation, answers)``.

    ``answers`` is the incomplete tree of all possible answers
    (Theorem 3.14) — the construction that is worst-case exponential in
    |Σ|, which is exactly what ``symbols_generated`` makes visible.
    """
    from ..answering.query_incomplete import query_incomplete

    input_size = incomplete.size()
    inputs: Dict[str, object] = {
        "knowledge_size": input_size,
        "knowledge_symbols": len(incomplete.type.symbols()),
        "data_nodes": len(incomplete.data_node_ids()),
        "query_nodes": query.size(),
        "query_linear": query.is_linear(),
    }
    with isolated_observation() as metrics:
        with span("explain.ask") as sp:
            answers = query_incomplete(incomplete, query)
        assert sp is not None
        phases = _flatten_phases(sp)
    result_size = answers.size()
    result = {
        "answer_size": result_size,
        "answer_symbols": len(answers.type.symbols()),
        "symbols_generated": metrics.value("query_incomplete.symbols_generated"),
        "allows_empty_answer": answers.allows_empty,
        "blowup_factor": (result_size / input_size) if input_size else float("inf"),
        "seconds": sp.duration,
    }
    explanation = Explanation(
        "ask (incomplete-tree query q(T), Theorem 3.14)",
        inputs,
        phases,
        _collect_work(metrics),
        result,
    )
    return explanation, answers


__all__ = ["Explanation", "explain_ask", "explain_refine", "isolated_observation"]
