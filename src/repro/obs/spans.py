"""Nestable timing spans producing a structured trace tree.

``with span("refine.step", step=3) as sp:`` opens a timed region.  Spans
nest: a span opened while another is active becomes its child, so one
``refine.sequence`` span ends up holding one ``refine.step`` child per
query/answer pair, each with its own attributes (specialization counts,
result sizes).  Closed root spans are appended to ``STATE.traces`` and
every closed span is also:

* emitted to the active sink as a flat ``{"type": "span", ...}`` event
  (depth-annotated, so a JSONL file can be re-assembled into a tree), and
* observed into ``latency.seconds{layer=<span name>}`` plus the span's
  own :attr:`Span.labels` — the only latency book, so latency is
  recorded only while span collection is on.

When observability is disabled ``span()`` returns a shared no-op context
manager and yields ``None`` — call sites write
``if sp is not None: sp.attrs[...] = ...`` for any attribute whose
computation is not free.

Span parentage is *context-local* (``contextvars``, see
:mod:`repro.obs.state`): a span opened in one thread can never become
the parent of a span opened in another.  A request-scoped **trace id**
rides the same mechanism — :func:`set_trace_id` binds an id to the
current context and every span closed while it is bound carries it as
the ``trace_id`` attribute (and in its emitted sink event), so flat
JSONL logs and Chrome traces can be correlated back to one request.
The ops plane (:mod:`repro.ops.trace`) manages this per HTTP request.
"""

from __future__ import annotations

import time
from contextvars import ContextVar, Token
from typing import Dict, List, Optional

from .sinks import NullSink
from .state import STATE

#: The context-local trace id stamped onto every span closed while set.
_TRACE_ID: "ContextVar[Optional[str]]" = ContextVar(
    "repro_obs_trace_id", default=None
)

#: The context-local shard index stamped onto every span closed while
#: set — the cluster layer (:mod:`repro.cluster`) binds it around every
#: per-shard operation so profiles and flight-recorder traces can
#: attribute engine work to shards.
_SHARD: "ContextVar[Optional[int]]" = ContextVar("repro_obs_shard", default=None)


def current_trace_id() -> Optional[str]:
    """The trace id bound to the current context, if any."""
    return _TRACE_ID.get()


def set_trace_id(trace_id: Optional[str]) -> "Token[Optional[str]]":
    """Bind a trace id to the current context; returns the reset token."""
    return _TRACE_ID.set(trace_id)


def reset_trace_id(token: "Token[Optional[str]]") -> None:
    """Restore the trace-id binding captured by :func:`set_trace_id`."""
    _TRACE_ID.reset(token)


def current_shard() -> Optional[int]:
    """The shard index bound to the current context, if any."""
    return _SHARD.get()


def set_shard(shard: Optional[int]) -> "Token[Optional[int]]":
    """Bind a shard index to the current context; returns the reset token."""
    return _SHARD.set(shard)


def reset_shard(token: "Token[Optional[int]]") -> None:
    """Restore the shard binding captured by :func:`set_shard`."""
    _SHARD.reset(token)


#: The histogram family every closed span observes its duration into.
LATENCY = "latency.seconds"


class Span:
    """One timed region of a trace tree.

    A span is its own context manager (no wrapper allocation on the
    hot path): ``with span("name") as sp`` enters it, and closing
    stamps context-local attributes, files it under its parent (or the
    trace list), and feeds the latency family and the sink.  ``labels``
    are extra latency-family labels beside ``layer``; they must come
    from a bounded set, unlike ``attrs``.
    """

    __slots__ = ("name", "attrs", "labels", "start", "end", "children", "events")

    def __init__(
        self, name: str, attrs: Dict[str, object], labels: Optional[Dict[str, str]] = None
    ):
        self.name = name
        self.attrs = attrs
        self.labels = labels
        self.start = 0.0
        self.end: Optional[float] = None
        self.children: List["Span"] = []
        self.events: List[Dict[str, object]] = []

    @property
    def duration(self) -> float:
        """Seconds elapsed (live spans measure up to now)."""
        return (self.end if self.end is not None else time.perf_counter()) - self.start

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready nested rendering (the trace-tree schema)."""
        rendered: Dict[str, object] = {
            "name": self.name,
            "duration_s": self.duration,
        }
        if self.attrs:
            rendered["attrs"] = dict(self.attrs)
        if self.events:
            rendered["events"] = list(self.events)
        if self.children:
            rendered["children"] = [child.to_dict() for child in self.children]
        return rendered

    def find(self, name: str) -> List["Span"]:
        """All descendants (including self) with the given name."""
        found = [self] if self.name == name else []
        for child in self.children:
            found.extend(child.find(name))
        return found

    def __repr__(self) -> str:
        return f"Span({self.name!r}, {self.duration:.6f}s, {len(self.children)} children)"

    def __enter__(self) -> "Span":
        STATE.stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type: object = None, exc: object = None, tb: object = None) -> bool:
        self.end = ended = time.perf_counter()
        attrs = self.attrs
        if exc_type is not None:
            # close-and-propagate: the span is marked errored so profiles
            # and traces show where exceptions went, but it still lands in
            # its parent / the trace list like any other span
            attrs["error"] = getattr(exc_type, "__name__", str(exc_type))
        trace_id = _TRACE_ID.get()
        if trace_id is not None:
            attrs.setdefault("trace_id", trace_id)
        shard = _SHARD.get()
        if shard is not None:
            attrs.setdefault("shard", shard)
        stack = STATE.stack
        if stack and stack[-1] is self:
            stack.pop()
        if stack:
            stack[-1].children.append(self)
        else:
            STATE.add_trace(self)
        name = self.name
        duration = ended - self.start
        STATE.metrics.observe(LATENCY, duration, layer=name, **(self.labels or {}))
        sink = STATE.sink
        if sink.__class__ is not NullSink:
            sink.emit(
                {
                    "type": "span",
                    "name": name,
                    "duration_s": duration,
                    "depth": len(stack),
                    "attrs": dict(attrs),
                }
            )
        return False


class _NullSpan:
    """Shared no-op context manager for the disabled fast path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL = _NullSpan()


def span(name: str, **attrs: object):
    """Open a timed span (no-op yielding ``None`` when disabled)."""
    if not STATE.enabled:
        return _NULL
    return Span(name, attrs)


def current_span() -> Optional[Span]:
    """The innermost open span of this context, if any."""
    if not STATE.enabled:
        return None
    stack = STATE.stack
    return stack[-1] if stack else None  # type: ignore[return-value]


def add_attrs(**attrs: object) -> None:
    """Attach attributes to the innermost open span (no-op when disabled)."""
    active = current_span()
    if active is not None:
        active.attrs.update(attrs)


def event(name: str, **attrs: object) -> None:
    """Record a point event on the current span and the sink."""
    if not STATE.enabled:
        return
    record: Dict[str, object] = {"type": "event", "name": name}
    if attrs:
        record["attrs"] = attrs
    active = current_span()
    if active is not None:
        entry: Dict[str, object] = {"name": name}
        if attrs:
            entry["attrs"] = dict(attrs)
        active.events.append(entry)
    STATE.sink.emit(record)
