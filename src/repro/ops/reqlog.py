"""Structured JSONL request log for the ops plane.

One record per finished HTTP request: method, path, status, duration,
the request's ``trace_id`` (the same id returned in the
``X-Repro-Trace-Id`` header and stamped on every engine span), and any
endpoint extras — for ``/ask`` that includes the knowledge size touched,
so a knowledge-growth incident can be read straight off the log.

Records go to a bounded in-memory ring (served at ``/debug/requests``)
and, when a path is configured, to an append-only JSON-lines file.  The
file handle is guarded by a lock: handler threads log concurrently.

The log is only a log: it keeps no latency quantiles (the request's
span is the only latency book, :mod:`repro.obs.spans`) and no
exemplars (the flight recorder names them from the traces it holds,
:meth:`repro.ops.flight.FlightRecorder.exemplars`).
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from pathlib import Path
from typing import Deque, Dict, List, Optional, Union


class RequestLog:
    """Bounded ring + optional JSONL file of per-request records."""

    def __init__(
        self,
        capacity: int = 1024,
        path: Optional[Union[str, Path]] = None,
    ):
        if capacity <= 0:
            raise ValueError("request log capacity must be positive")
        self._ring: Deque[Dict[str, object]] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._stream = None
        self.path = None if path is None else str(path)
        if path is not None:
            self._stream = open(path, "a", encoding="utf-8")
        self.logged = 0

    def log(
        self,
        method: str,
        path: str,
        status: int,
        duration_s: float,
        trace_id: str,
        **extras: object,
    ) -> Dict[str, object]:
        """Append one request record; returns the record."""
        record: Dict[str, object] = {
            "ts": time.time(),
            "method": method,
            "path": path,
            "status": int(status),
            "duration_ms": round(duration_s * 1000.0, 3),
            "trace_id": trace_id,
        }
        if extras:
            record.update(extras)
        with self._lock:
            self._ring.append(record)
            self.logged += 1
            if self._stream is not None:
                self._stream.write(json.dumps(record, sort_keys=True, default=str))
                self._stream.write("\n")
                self._stream.flush()
        return record

    def recent(self, limit: int = 100) -> List[Dict[str, object]]:
        """The newest ``limit`` records, oldest first."""
        with self._lock:
            rows = list(self._ring)
        return rows[-max(0, limit):]

    def close(self) -> None:
        with self._lock:
            if self._stream is not None:
                self._stream.flush()
                self._stream.close()
                self._stream = None

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def __repr__(self) -> str:
        return f"RequestLog({len(self)} retained, {self.logged} logged, path={self.path!r})"


__all__ = ["RequestLog"]
