"""Request-scoped trace context for the ops plane.

One HTTP request (or one unit of background work) gets one **trace**: a
generated ``trace_id`` bound to the current ``contextvars`` context plus
a root span covering the whole request.  While the trace is open, every
span closed in the same context — Refine steps, matchings, fixpoint
rounds deep inside the engine — carries the trace id in its attributes
and sink events (see :mod:`repro.obs.spans`), so a slow ``/ask`` can be
correlated with its engine spans after the fact.

Because both the span stack and the trace id live in ``ContextVar``s,
concurrent requests served by different threads can never adopt each
other's spans or ids: each handler thread starts from an empty context.

Typical usage (what :mod:`repro.ops.server` does per request)::

    with request_trace("ops.request", labels={"path": "/ask"}, path="/ask") as t:
        ...                       # handle the request
        t.annotate(status=200)    # attach response attributes
    t.trace_id                    # -> "a3f9..." (response header)
    t.root                        # -> the finished root Span (or None
                                  #    when observability is disabled)
"""

from __future__ import annotations

import threading
import uuid
from typing import Dict, Optional

from ..obs.spans import Span, reset_trace_id, set_trace_id, span

#: Monotone per-process counter folded into generated ids so that ids
#: stay unique even if the clock or uuid source misbehaves.
_SEQ = 0
_SEQ_LOCK = threading.Lock()


def new_trace_id() -> str:
    """A fresh, process-unique, url-safe trace id (16 hex + sequence)."""
    global _SEQ
    with _SEQ_LOCK:
        _SEQ += 1
        seq = _SEQ
    return f"{uuid.uuid4().hex[:16]}-{seq:06x}"


class TraceHandle:
    """What :class:`request_trace` yields: the id plus the root span."""

    __slots__ = ("trace_id", "root")

    def __init__(self, trace_id: str, root: Optional[Span]):
        self.trace_id = trace_id
        self.root = root

    def annotate(self, **attrs: object) -> None:
        """Attach attributes to the trace root (no-op when disabled)."""
        if self.root is not None:
            self.root.attrs.update(attrs)

    def __repr__(self) -> str:
        return f"TraceHandle({self.trace_id!r}, root={self.root!r})"


def _subtree_errored(node: Span) -> bool:
    """Did ``node`` or any descendant close with an ``error``?"""
    if "error" in node.attrs:
        return True
    return any(_subtree_errored(child) for child in node.children)


class request_trace:
    """Context manager opening one trace: bind an id, open a root span.

    The id is always generated and bound (responses carry a trace id
    even when observability is off); the root span exists only while
    collection is enabled.  ``labels`` become the root span's
    :attr:`~repro.obs.spans.Span.labels` in the latency family (the
    server passes the matched route, never the raw path).  The previous
    trace-id binding is restored on exit, so nested traces behave
    sanely.
    """

    __slots__ = ("_name", "_attrs", "_labels", "_trace_id", "_token", "_span_cm", "_handle")

    def __init__(
        self,
        name: str = "ops.request",
        trace_id: Optional[str] = None,
        labels: Optional[Dict[str, str]] = None,
        **attrs: object,
    ):
        self._name = name
        self._attrs: Dict[str, object] = dict(attrs)
        self._labels = labels
        self._trace_id = trace_id or new_trace_id()
        self._token = None
        self._span_cm = None
        self._handle: Optional[TraceHandle] = None

    def __enter__(self) -> TraceHandle:
        self._token = set_trace_id(self._trace_id)
        self._span_cm = span(self._name, **self._attrs)
        root = self._span_cm.__enter__()
        if root is not None:
            root.labels = self._labels
        self._handle = TraceHandle(self._trace_id, root)
        return self._handle

    def __exit__(self, exc_type: object = None, exc: object = None, tb: object = None) -> bool:
        try:
            assert self._span_cm is not None
            return bool(self._span_cm.__exit__(exc_type, exc, tb))
        finally:
            if self._token is not None:
                reset_trace_id(self._token)


__all__ = ["TraceHandle", "new_trace_id", "request_trace"]
