"""Standard exporters: Prometheus text exposition and Chrome trace JSON.

Two renderings of what ``repro.obs`` collects, in formats existing
tooling already understands:

* :func:`prometheus_text` — metrics registries as Prometheus text
  exposition format (version 0.0.4): counters become ``*_total``
  counter families, histograms become summaries (``_count`` / ``_sum``)
  plus ``_min`` / ``_max`` gauges.  Each family is declared once, with
  one sample group per label set.  It is the only code that writes
  exposition text.  :func:`validate_prometheus_text` is a strict
  structural checker (used by tests and CI) so exports stay scrape-able
  without requiring the ``prometheus_client`` package.
* :func:`chrome_trace` — finished span trees as Chrome ``trace_event``
  JSON (complete ``"X"`` events with microsecond timestamps), loadable
  in ``chrome://tracing`` / Perfetto.  :func:`validate_chrome_trace`
  checks the structural schema.
"""

from __future__ import annotations

import json
import re
from itertools import groupby
from operator import attrgetter
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

from .registry import Metrics, instrument_order
from .sketch import SUMMARY_QUANTILES
from .spans import Span

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
#: One ``name="value"`` pair; the value may hold any character but
#: ``"``, ``\\`` and newline, which appear only as escapes.
_LABEL_PAIR = r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\[\\"n])*"'
_SAMPLE_RE = re.compile(
    r"(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    rf"(?P<labels>\{{(?:{_LABEL_PAIR}(?:,{_LABEL_PAIR})*,?)?\}})?"
    r"\s+(?P<value>[^\s]+)"
    r"(?:\s+(?P<timestamp>-?\d+))?"
)
_VALID_TYPES = frozenset(["counter", "gauge", "histogram", "summary", "untyped"])
_name = attrgetter("name")


def sanitize_metric_name(name: str) -> str:
    """Dotted registry name -> legal Prometheus metric name."""
    return "repro_" + re.sub(r"[^a-zA-Z0-9_:]", "_", name)


def _fmt_value(value: object) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _render_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label_value(str(value))}"'
        for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def _declare(lines: List[str], family: str, kind: str, help_text: str) -> None:
    lines.append(f"# HELP {family} {help_text}")
    lines.append(f"# TYPE {family} {kind}")


def prometheus_text(*registries: Metrics) -> str:
    """Render metrics registries in Prometheus text exposition format.

    With no registry, the process book (``repro.obs.metrics``).  The
    instruments of every registry are merged per kind and sorted by
    name, then labels, so each family is declared once however many
    registries carry it; one label set must not appear in two of them.
    """
    if not registries:
        from .state import STATE

        registries = (STATE.metrics,)

    def merged(kind: str) -> List:
        return sorted(
            (i for metrics in registries for i in metrics.instruments(kind)),
            key=instrument_order,
        )

    lines: List[str] = []
    for kind, suffix in (("counter", "_total"), ("gauge", "")):
        for name, members in groupby(merged(kind), key=_name):
            family = sanitize_metric_name(name) + suffix
            _declare(lines, family, kind, f"repro {kind} {name}")
            for instrument in members:
                lines.append(
                    f"{family}{_render_labels(instrument.labels)} "
                    f"{_fmt_value(instrument.value)}"
                )
    for name, group in groupby(merged("histogram"), key=_name):
        members = list(group)
        family = sanitize_metric_name(name)
        _declare(lines, family, "summary", f"repro histogram {name}")
        for histogram in members:
            labels = histogram.labels
            for q in SUMMARY_QUANTILES:
                value = histogram.quantile(q)
                if value is not None:
                    rendered = _render_labels({**labels, "quantile": str(q)})
                    lines.append(f"{family}{rendered} {_fmt_value(value)}")
            rendered = _render_labels(labels)
            lines.append(f"{family}_count{rendered} {_fmt_value(histogram.count)}")
            lines.append(f"{family}_sum{rendered} {_fmt_value(histogram.total)}")
        for suffix in ("min", "max"):
            bounds = [
                (h.labels, getattr(h, suffix))
                for h in members
                if getattr(h, suffix) is not None
            ]
            if bounds:
                _declare(lines, f"{family}_{suffix}", "gauge", f"repro histogram {name} {suffix}")
                for labels, bound in bounds:
                    lines.append(
                        f"{family}_{suffix}{_render_labels(labels)} {_fmt_value(bound)}"
                    )
    return "\n".join(lines) + ("\n" if lines else "")


def validate_prometheus_text(text: str) -> Dict[str, float]:
    """Strict structural check of a text-exposition document.

    Returns ``{sample_key: value}`` where the key is the bare sample
    name for unlabelled samples and ``name{labels}`` for labelled ones
    (two samples of one family with different labels are distinct, as
    Prometheus treats them).  Raises :class:`ValueError` on the first
    malformed line, unknown TYPE, duplicate (name, labels) pair, or
    sample whose family was not declared with ``# TYPE`` beforehand
    (the ordering Prometheus's own parser enforces).
    """
    samples: Dict[str, float] = {}
    typed: Dict[str, str] = {}
    # the format is newline-delimited; str.splitlines would also split
    # on the carriage returns and separators a label value may carry
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                raise ValueError(f"line {lineno}: malformed comment {raw!r}")
            family = parts[2]
            if not _NAME_RE.match(family):
                raise ValueError(f"line {lineno}: bad metric name {family!r}")
            if parts[1] == "TYPE":
                if len(parts) != 4 or parts[3] not in _VALID_TYPES:
                    raise ValueError(f"line {lineno}: bad TYPE {raw!r}")
                if family in typed:
                    raise ValueError(f"line {lineno}: duplicate TYPE for {family!r}")
                typed[family] = parts[3]
            continue
        match = _SAMPLE_RE.fullmatch(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample {raw!r}")
        name = match.group("name")
        try:
            value = float(match.group("value"))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value in {raw!r}") from exc
        base = name
        for suffix in ("_count", "_sum", "_bucket"):
            if name.endswith(suffix) and name[: -len(suffix)] in typed:
                base = name[: -len(suffix)]
                break
        if base not in typed:
            raise ValueError(f"line {lineno}: sample {name!r} has no preceding # TYPE")
        key = name + (match.group("labels") or "")
        if key in samples:
            raise ValueError(f"line {lineno}: duplicate sample {key!r}")
        samples[key] = value
    return samples


# -- Chrome trace_event ----------------------------------------------------------


def _json_safe(value: object) -> object:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def chrome_trace_events(
    roots: Iterable[Span], pid: int = 1, tid: int = 1
) -> List[Dict[str, object]]:
    """Flatten span trees into complete (``"ph": "X"``) trace events.

    Timestamps are ``perf_counter`` microseconds — arbitrary epoch but
    mutually consistent, which is all the trace viewer needs.
    """
    events: List[Dict[str, object]] = []

    def walk(node: Span) -> None:
        end = node.end if node.end is not None else node.start
        events.append(
            {
                "name": node.name,
                "cat": "repro",
                "ph": "X",
                "ts": node.start * 1e6,
                "dur": max(0.0, end - node.start) * 1e6,
                "pid": pid,
                "tid": tid,
                "args": {key: _json_safe(val) for key, val in node.attrs.items()},
            }
        )
        for child in node.children:
            walk(child)

    for root in roots:
        walk(root)
    return events


def chrome_trace(roots: Optional[Sequence[Span]] = None) -> Dict[str, object]:
    """The Chrome trace-event JSON object for the given (or all) traces."""
    if roots is None:
        from .state import STATE

        roots = list(STATE.traces)  # type: ignore[arg-type]
    return {
        "traceEvents": chrome_trace_events(roots),
        "displayTimeUnit": "ms",
        "otherData": {"source": "repro.obs", "format": "trace_event"},
    }


def write_chrome_trace(
    target: Union[str, Path], roots: Optional[Sequence[Span]] = None
) -> int:
    """Write the trace JSON to ``target``; returns the event count."""
    document = chrome_trace(roots)
    Path(target).write_text(
        json.dumps(document, sort_keys=True, default=str), encoding="utf-8"
    )
    return len(document["traceEvents"])  # type: ignore[arg-type]


def validate_chrome_trace(document: object) -> int:
    """Structural schema check; returns the event count or raises ValueError."""
    if not isinstance(document, dict):
        raise ValueError("trace document must be a JSON object")
    events = document.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("traceEvents must be a list")
    for position, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"event {position} is not an object")
        for field in ("name", "ph", "ts", "pid", "tid"):
            if field not in event:
                raise ValueError(f"event {position} misses required field {field!r}")
        if not isinstance(event["name"], str):
            raise ValueError(f"event {position}: name must be a string")
        if not isinstance(event["ts"], (int, float)):
            raise ValueError(f"event {position}: ts must be a number")
        if event["ph"] == "X":
            if not isinstance(event.get("dur"), (int, float)):
                raise ValueError(f"event {position}: X event needs numeric dur")
        args = event.get("args", {})
        if not isinstance(args, dict):
            raise ValueError(f"event {position}: args must be an object")
    return len(events)


__all__ = [
    "chrome_trace",
    "chrome_trace_events",
    "prometheus_text",
    "sanitize_metric_name",
    "validate_chrome_trace",
    "validate_prometheus_text",
    "write_chrome_trace",
]
