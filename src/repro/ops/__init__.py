"""repro.ops — the live operations plane.

Everything PRs 1 and 3 collect (`repro.obs` metrics, spans, profiles,
growth regimes) and PR 4 counts (`repro.perf` cache books) was pull-
after-the-fact: inspectable in-process, after the workload finished.
This package puts a **live surface** on a running mediator:

* :class:`~repro.ops.server.OpsServer` — a zero-dependency
  ``http.server`` admin plane (``python -m repro serve``) in front of
  one :class:`~repro.cluster.sharded.ShardedWebhouse` (one shard and
  one ``demo`` session unless told otherwise), with ``/healthz``,
  ``/statusz``, ``/metrics`` (Prometheus), ``/profile``, ``/sessions``,
  ``/ask`` and ``/debug/flightrecorder``;
* :class:`~repro.ops.trace.request_trace` — request-scoped trace
  context: a generated ``trace_id`` bound via ``contextvars``, stamped
  on every engine span the request triggers and returned in the
  ``X-Repro-Trace-Id`` header;
* :class:`~repro.ops.flight.FlightRecorder` — a bounded ring retaining
  the last N completed request traces plus every errored trace,
  dumpable as Chrome trace-event JSON;
* :class:`~repro.ops.reqlog.RequestLog` — structured JSONL request log
  (method, path, status, duration, trace id, knowledge sizes touched).

See ``docs/OPS.md`` for endpoint payloads and curl examples.
"""

from __future__ import annotations

from .flight import FlightRecorder
from .reqlog import RequestLog
from .server import (
    OpsError,
    OpsServer,
    demo_cluster,
    drive_request,
    self_check,
)
from .trace import TraceHandle, new_trace_id, request_trace

__all__ = [
    "FlightRecorder",
    "OpsError",
    "OpsServer",
    "RequestLog",
    "TraceHandle",
    "demo_cluster",
    "drive_request",
    "new_trace_id",
    "request_trace",
    "self_check",
]
