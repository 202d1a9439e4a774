"""The cluster's binary wire codec: framed, checksummed, canonical.

The process backend (:mod:`repro.cluster.proc`) moves every request and
response between the router process and its shard workers as a **frame**:

====== ======= =====================================================
offset size    field
====== ======= =====================================================
0      4       magic ``b"RPW\\x01"`` (repro wire, format 1)
4      4       payload length ``N``, big-endian uint32
8      4       CRC-32 of the payload, big-endian uint32
12     ``N``   payload: canonical JSON (UTF-8)
====== ======= =====================================================

The payload is rendered with :func:`repro.store.codec.canonical_dumps`
— the same sorted-keys/no-whitespace convention the PR 2 journal uses —
so equal documents produce byte-identical frames and a frame can be
compared, hashed, or replayed across processes deterministically.
Values inside the payload (queries, answer trees, conditions) are the
PR 2 ``store.codec`` JSON forms; the wire layer never invents a second
serialization for paper objects.

Integrity mirrors the journal's torn-tail discipline: a frame cut at
ANY byte offset, a flipped bit anywhere, trailing garbage, a bad magic,
or an oversized declared length all raise :class:`WireError` — never a
struct/JSON error and never silent misdecoding.  ``tests/test_wire.py``
pins truncation at every offset the way the PR 9 torn-journal tests do
for the WAL.

Envelopes
---------

On top of raw frames, :func:`request_envelope` / :func:`response_envelope`
define the RPC shape.  The request envelope carries the caller's
``contextvars`` state across the process hop explicitly — the bits a
fork/exec boundary would otherwise drop:

* ``trace_id`` — the ops-plane request trace id, so worker-side spans
  carry the caller's ``X-Repro-Trace-Id``;
* ``deadline_s`` — the *remaining* per-request budget in seconds (the
  worker refuses to start work on an expired deadline);
* ``fault_plan`` — the armed :class:`~repro.faults.plan.FaultPlan`
  spec, so a chaos scope around a cluster call re-arms inside the
  worker exactly like :meth:`Executor.submit` re-arms inside threads.

Responses carry the worker's pushed-back books (latency-sketch and
counter deltas) next to the value, so fleet telemetry merges without a
separate polling channel.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any, Dict, Optional

from ..store.codec import canonical_dumps

Json = Any

#: Frame magic: three id bytes plus a one-byte format version.
MAGIC = b"RPW\x01"

#: Big-endian header: magic, payload length, payload CRC-32.
HEADER = struct.Struct(">4sII")
HEADER_SIZE = HEADER.size

#: Refuse absurd declared lengths before allocating (a corrupt length
#: field must not look like an instruction to buffer gigabytes).
MAX_PAYLOAD = 64 * 1024 * 1024


class WireError(ValueError):
    """A wire frame or envelope cannot be decoded."""


# -- frames -------------------------------------------------------------------


def encode_frame(document: Json) -> bytes:
    """Render ``document`` as one complete frame (header + payload)."""
    try:
        payload = canonical_dumps(document).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise WireError(f"payload is not JSON-serializable: {exc}")
    if len(payload) > MAX_PAYLOAD:
        raise WireError(f"payload of {len(payload)} bytes exceeds {MAX_PAYLOAD}")
    return HEADER.pack(MAGIC, len(payload), zlib.crc32(payload)) + payload


def decode_frame(data: bytes) -> Json:
    """Decode exactly one frame; every corruption raises :class:`WireError`.

    ``data`` must be the complete frame — a short buffer (truncation at
    any byte), extra trailing bytes, bad magic, a length that disagrees
    with the buffer, a CRC mismatch, or undecodable JSON all fail
    loudly.
    """
    if len(data) < HEADER_SIZE:
        raise WireError(
            f"truncated frame: {len(data)} bytes < {HEADER_SIZE}-byte header"
        )
    magic, length, crc = HEADER.unpack_from(data)
    if magic != MAGIC:
        raise WireError(f"bad magic {magic!r} (expected {MAGIC!r})")
    if length > MAX_PAYLOAD:
        raise WireError(f"declared payload of {length} bytes exceeds {MAX_PAYLOAD}")
    payload = data[HEADER_SIZE:]
    if len(payload) != length:
        raise WireError(
            f"frame declares {length} payload bytes, buffer holds {len(payload)}"
        )
    if zlib.crc32(payload) != crc:
        raise WireError("payload CRC mismatch (corrupt frame)")
    try:
        import json

        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise WireError(f"frame payload is not valid JSON: {exc}")


# -- envelopes ----------------------------------------------------------------

#: Envelope kind tags.
REQUEST = "req"
RESPONSE = "resp"


def request_envelope(
    seq: int,
    op: str,
    args: Optional[Dict[str, Json]] = None,
    *,
    trace_id: Optional[str] = None,
    deadline_s: Optional[float] = None,
    fault_plan: Optional[str] = None,
) -> Dict[str, Json]:
    """One request document: op + args + the carried context state."""
    return {
        "kind": REQUEST,
        "seq": int(seq),
        "op": str(op),
        "args": dict(args or {}),
        "trace_id": trace_id,
        "deadline_s": deadline_s,
        "fault_plan": fault_plan,
    }


def response_envelope(
    seq: int,
    *,
    value: Json = None,
    error: Optional[Dict[str, Json]] = None,
    books: Optional[Dict[str, Json]] = None,
) -> Dict[str, Json]:
    """One response document: value XOR error, plus pushed-back books."""
    if error is not None and value is not None:
        raise WireError("a response carries a value or an error, not both")
    return {
        "kind": RESPONSE,
        "seq": int(seq),
        "ok": error is None,
        "value": value,
        "error": error,
        "books": dict(books or {}),
    }


def _require(document: Json, kind: str) -> Dict[str, Json]:
    if not isinstance(document, dict):
        raise WireError(
            f"envelope must be an object, got {type(document).__name__}"
        )
    if document.get("kind") != kind:
        raise WireError(f"expected a {kind!r} envelope, got {document.get('kind')!r}")
    if not isinstance(document.get("seq"), int):
        raise WireError(f"envelope seq must be an int, got {document.get('seq')!r}")
    return document


def decode_request(document: Json) -> Dict[str, Json]:
    """Validate a decoded frame as a request envelope."""
    envelope = _require(document, REQUEST)
    if not isinstance(envelope.get("op"), str) or not envelope["op"]:
        raise WireError(f"request op must be a non-empty string: {envelope.get('op')!r}")
    if not isinstance(envelope.get("args"), dict):
        raise WireError("request args must be an object")
    return envelope


def decode_response(document: Json) -> Dict[str, Json]:
    """Validate a decoded frame as a response envelope."""
    envelope = _require(document, RESPONSE)
    if not isinstance(envelope.get("ok"), bool):
        raise WireError("response ok flag must be a bool")
    if not envelope["ok"]:
        error = envelope.get("error")
        if not isinstance(error, dict) or "type" not in error:
            raise WireError(f"error response without an error object: {error!r}")
    if not isinstance(envelope.get("books"), dict):
        raise WireError("response books must be an object")
    return envelope


__all__ = [
    "HEADER",
    "HEADER_SIZE",
    "MAGIC",
    "MAX_PAYLOAD",
    "REQUEST",
    "RESPONSE",
    "WireError",
    "decode_frame",
    "decode_request",
    "decode_response",
    "encode_frame",
    "request_envelope",
    "response_envelope",
]
