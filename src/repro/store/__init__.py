"""repro.store — durable sessions for the mediator.

The paper's Webhouse is an *accumulating* system: everything it is worth
is the query/answer history folded into one incomplete tree (Theorems
3.4/3.5).  This package makes that knowledge survive process restarts:

* :mod:`~repro.store.codec` — canonical, versioned JSON round-trips for
  data trees, tree types, ps-queries, conditions, and incomplete trees;
* :mod:`~repro.store.journal` — an append-only, checksummed JSONL
  write-ahead log of knowledge events, tolerant of a torn tail;
* :mod:`~repro.store.snapshot` — incomplete-tree checkpoints that bound
  replay cost, with journal compaction;
* :mod:`~repro.store.session` — :class:`SessionStore`, managing many
  named sessions under one root directory with single-writer locking.
  The store holds bytes; the Webhouse alone replays them.

Typical usage::

    store = SessionStore("/var/lib/repro")
    wh = Webhouse(alphabet, tree_type=tt)
    wh.attach(store.create("catalog", alphabet, tree_type=tt))
    wh.ask(source, query1)          # journaled
    # ... process dies ...
    wh = Webhouse.resume(store, "catalog")   # snapshot + replay suffix
    wh.can_answer(query3)           # same verdicts as before the crash

See ``docs/PERSISTENCE.md`` for the on-disk layout.
"""

from .codec import (
    CodecError,
    canonical_dumps,
    cond_from_json,
    cond_to_json,
    decode_document,
    encode_document,
    history_from_json,
    history_to_json,
    incomplete_from_json,
    incomplete_to_json,
    query_from_json,
    query_to_json,
    tree_from_json,
    tree_to_json,
    treetype_from_json,
    treetype_to_json,
    value_from_json,
    value_to_json,
)
from .journal import Journal, JournalError, JournalRecord
from .session import (
    Session,
    SessionLockedError,
    SessionStore,
    StoreError,
)
from .snapshot import latest_snapshot, prune_snapshots, write_snapshot

__all__ = [
    "CodecError",
    "Journal",
    "JournalError",
    "JournalRecord",
    "Session",
    "SessionLockedError",
    "SessionStore",
    "StoreError",
    "canonical_dumps",
    "cond_from_json",
    "cond_to_json",
    "decode_document",
    "encode_document",
    "history_from_json",
    "history_to_json",
    "incomplete_from_json",
    "incomplete_to_json",
    "latest_snapshot",
    "prune_snapshots",
    "query_from_json",
    "query_to_json",
    "tree_from_json",
    "tree_to_json",
    "treetype_from_json",
    "treetype_to_json",
    "value_from_json",
    "value_to_json",
    "write_snapshot",
]
