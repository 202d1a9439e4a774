"""The cluster wire codec: round-trips, torn frames, envelopes.

Mirrors the PR 9 torn-journal discipline at the wire layer: a frame
truncated at ANY byte offset, a flipped bit anywhere, bad magic, or a
length/CRC disagreement must raise a clean :class:`WireError` — never a
struct/JSON error and never a silent misdecode.  Hypothesis drives the
round-trip properties over arbitrary JSON documents and over real paper
objects (random trees/queries rendered through ``store.codec``), and
pins that equal documents produce **byte-identical** frames — the
determinism the process backend's request/response framing relies on.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.wire import (
    MAGIC,
    MAX_PAYLOAD,
    WireError,
    decode_frame,
    decode_request,
    decode_response,
    encode_frame,
    request_envelope,
    response_envelope,
)
from repro.core.treetype import TreeType
from repro.store.codec import query_to_json, tree_from_json, tree_to_json
from repro.workloads.generators import random_ps_query, random_tree

SCHEMAS = [
    TreeType.parse("root: r\nr -> a* b?\na -> c*\nb -> c?"),
    TreeType.parse("root: r\nr -> a+\na -> b* c?"),
]

#: JSON documents the canonical encoder accepts (no NaN/Infinity — the
#: codec's canonical_dumps uses allow_nan=False).
_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**53), max_value=2**53)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=20,
)


# -- frame round trips ---------------------------------------------------------


@given(document=_json_values)
@settings(max_examples=100, deadline=None)
def test_roundtrip_arbitrary_json(document):
    frame = encode_frame(document)
    assert decode_frame(frame) == document


@given(document=_json_values)
@settings(max_examples=60, deadline=None)
def test_reencode_is_byte_identical(document):
    """Equal documents frame identically: encode∘decode∘encode is stable."""
    frame = encode_frame(document)
    assert encode_frame(decode_frame(frame)) == frame


@given(
    schema_index=st.integers(min_value=0, max_value=1),
    doc_seed=st.integers(min_value=0, max_value=200),
    q_seed=st.integers(min_value=0, max_value=200),
)
@settings(max_examples=40, deadline=None)
def test_roundtrip_paper_objects(schema_index, doc_seed, q_seed):
    """Random answers/queries survive the wire byte-identically."""
    tt = SCHEMAS[schema_index]
    tree = random_tree(tt, seed=doc_seed, max_depth=4)
    query = random_ps_query(tt, seed=q_seed, max_depth=3)
    document = {"answer": tree_to_json(tree), "query": query_to_json(query)}
    frame = encode_frame(document)
    decoded = decode_frame(frame)
    assert encode_frame(decoded) == frame
    rebuilt = tree_from_json(decoded["answer"])
    assert tree_to_json(rebuilt) == tree_to_json(tree)


# -- corruption ----------------------------------------------------------------


@given(
    document=_json_values,
    cut=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=100, deadline=None)
def test_truncation_at_any_byte_raises(document, cut):
    """A frame cut at any byte offset fails loudly, like a torn journal."""
    frame = encode_frame(document)
    cut = cut % len(frame)  # every offset strictly inside the frame
    with pytest.raises(WireError):
        decode_frame(frame[:cut])


def test_truncation_exhaustive_small_frame():
    """Every single truncation offset of one real frame, no sampling."""
    frame = encode_frame({"op": "ask", "seq": 3})
    for cut in range(len(frame)):
        with pytest.raises(WireError):
            decode_frame(frame[:cut])


@given(
    document=_json_values,
    position=st.integers(min_value=0, max_value=10_000),
    flip=st.integers(min_value=1, max_value=255),
)
@settings(max_examples=100, deadline=None)
def test_bitflip_anywhere_raises(document, position, flip):
    frame = bytearray(encode_frame(document))
    position %= len(frame)
    frame[position] ^= flip
    with pytest.raises(WireError):
        decode_frame(bytes(frame))


def test_trailing_garbage_raises():
    frame = encode_frame({"a": 1})
    with pytest.raises(WireError):
        decode_frame(frame + b"x")


def test_bad_magic_raises():
    frame = bytearray(encode_frame({"a": 1}))
    frame[:4] = b"NOPE"
    with pytest.raises(WireError):
        decode_frame(bytes(frame))


def test_oversized_declared_length_raises():
    import struct
    import zlib

    payload = b"{}"
    header = struct.pack(">4sII", MAGIC, MAX_PAYLOAD + 1, zlib.crc32(payload))
    with pytest.raises(WireError):
        decode_frame(header + payload)


def test_unserializable_payload_raises():
    with pytest.raises(WireError):
        encode_frame({"bad": object()})


def test_errors_are_wire_errors_never_struct_or_json():
    """The taxonomy promise: corruption is always WireError (a ValueError
    subclass), so callers need exactly one except clause."""
    assert issubclass(WireError, ValueError)
    frame = encode_frame([1, 2, 3])
    for evil in (b"", frame[:5], frame[:-1], frame + b"!", b"\x00" * 40):
        with pytest.raises(WireError):
            decode_frame(evil)


# -- envelopes -----------------------------------------------------------------


def test_request_envelope_roundtrip_carries_context():
    envelope = request_envelope(
        7,
        "ask",
        {"key": "alice"},
        trace_id="t-123",
        deadline_s=1.5,
        fault_plan="store.journal.append:error:once",
    )
    decoded = decode_request(decode_frame(encode_frame(envelope)))
    assert decoded["seq"] == 7
    assert decoded["op"] == "ask"
    assert decoded["trace_id"] == "t-123"
    assert decoded["deadline_s"] == 1.5
    assert decoded["fault_plan"] == "store.journal.append:error:once"


def test_response_envelope_value_xor_error():
    with pytest.raises(WireError):
        response_envelope(1, value={"x": 1}, error={"type": "E", "message": "m"})


def test_response_envelope_roundtrip_with_books():
    envelope = response_envelope(
        3, value={"n": 2}, books={"counters": {"refine.steps": 4}}
    )
    decoded = decode_response(decode_frame(encode_frame(envelope)))
    assert decoded["ok"] is True
    assert decoded["value"] == {"n": 2}
    assert decoded["books"]["counters"]["refine.steps"] == 4


def test_decode_request_rejects_malformed():
    for bad in (
        [],
        {"kind": "resp", "seq": 1},
        {"kind": "req", "seq": "one", "op": "ask", "args": {}},
        {"kind": "req", "seq": 1, "op": "", "args": {}},
        {"kind": "req", "seq": 1, "op": "ask", "args": []},
    ):
        with pytest.raises(WireError):
            decode_request(bad)


def test_decode_response_rejects_malformed():
    for bad in (
        {"kind": "req", "seq": 1},
        {"kind": "resp", "seq": 1, "ok": "yes", "books": {}},
        {"kind": "resp", "seq": 1, "ok": False, "error": None, "books": {}},
        {"kind": "resp", "seq": 1, "ok": True, "value": 1, "books": None},
    ):
        with pytest.raises(WireError):
            decode_response(bad)
