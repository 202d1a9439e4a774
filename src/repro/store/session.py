"""Named durable sessions under one root directory.

Layout (see ``docs/PERSISTENCE.md``)::

    <root>/
      <name>/
        meta.json             # alphabet, tree type, options (versioned)
        journal.jsonl         # append-only event log (journal.py)
        snapshot-XXXXXXXX.json# checkpoints (snapshot.py)
        lock                  # advisory single-writer lock (pid)

Every durable session lives flat under the root, whoever writes it:
the ``session`` CLI and a durable cluster pool both use
``<root>/<name>/``.

A :class:`Session` is the handle a :class:`~repro.mediator.webhouse.Webhouse`
attaches to: every knowledge mutation becomes one journal event.  The
store holds bytes only; :meth:`Session.load` hands the newest readable
snapshot and the journal events after it to the Webhouse, which alone
gives them meaning by replaying each event through the transitions its
live mutations run — Theorem 3.5 guarantees the replayed state is
equivalent to the one the crashed process held.

Journal event vocabulary (all queries/answers via :mod:`.codec`):

======================  ======================================================
``record``              one Refine step: ``query``, ``answer``, ``origin``
                        (``ask`` | ``record`` | ``attach``)
``reset``               reinitialize to the bare type (source update policy)
``compact``             lossy forgetting heuristic, optional ``labels``
``complete``            informational: a mediated completion ran
                        (``query``, ``plan_queries``); not a state mutation
======================  ======================================================
"""

from __future__ import annotations

import json
import os
import shutil
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..core.query import PSQuery
from ..core.tree import DataTree
from ..core.treetype import TreeType
from ..incomplete.incomplete_tree import IncompleteTree
from . import codec
from .journal import Journal
from .snapshot import (
    SnapshotError,
    latest_snapshot,
    list_snapshots,
    prune_snapshots,
    write_snapshot,
)

META_FILENAME = "meta.json"
JOURNAL_FILENAME = "journal.jsonl"
LOCK_FILENAME = "lock"

History = List[Tuple[PSQuery, DataTree]]

#: Event types that mutate the knowledge state (and therefore count
#: toward the snapshot threshold).
MUTATING_EVENTS = frozenset({"record", "reset", "compact"})

#: Longest session name, in bytes of its file name: far above any key a
#: client mints, and under the 255-byte file-name limit, so a long name
#: is refused by this rule rather than by ``mkdir``.
MAX_NAME_BYTES = 128


class StoreError(ValueError):
    """A session operation cannot be carried out."""


def check_session_name(name: str) -> str:
    """``name``, if it can name a session directory; else :class:`StoreError`.

    The one rule for session names and for cluster session keys, which
    double as durable names (in memory too): non-empty, its own
    basename, no leading dot, no control character, and at most
    :data:`MAX_NAME_BYTES` bytes as a file name (``os.fsencode``).
    """
    if (
        not name
        or name != os.path.basename(name)
        or name.startswith(".")
        or any(ord(ch) < 32 or 127 <= ord(ch) < 160 for ch in name)
        or len(os.fsencode(name)) > MAX_NAME_BYTES
    ):
        raise StoreError(f"invalid session name {name!r}")
    return name


class SessionLockedError(StoreError):
    """Another live process holds the session's writer lock."""


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        return True
    return True


class _Lock:
    """Advisory single-writer lock: an O_EXCL file holding the owner pid.

    A lock whose owner process is gone is considered stale and broken
    automatically, so crashes never wedge a session.
    """

    def __init__(self, path: str):
        self._path = path
        self._held = False
        for _attempt in range(2):
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                owner = self._owner_pid()
                if owner is not None and owner != os.getpid() and _pid_alive(owner):
                    raise SessionLockedError(
                        f"session is locked by live process {owner} ({path})"
                    )
                try:  # stale (or unreadable) lock: break it and retry
                    os.remove(path)
                except OSError:
                    pass
                continue
            with os.fdopen(fd, "w") as handle:
                handle.write(str(os.getpid()))
            self._held = True
            return
        raise SessionLockedError(f"could not acquire session lock ({path})")

    def _owner_pid(self) -> Optional[int]:
        try:
            with open(self._path, "r") as handle:
                return int(handle.read().strip())
        except (OSError, ValueError):
            return None

    def release(self) -> None:
        if self._held:
            try:
                os.remove(self._path)
            except OSError:
                pass
            self._held = False


class Session:
    """One named durable session: meta + journal + snapshots + lock."""

    def __init__(self, directory: str, meta: Dict[str, Any], snapshot_every: int):
        self._directory = directory
        self._meta = meta
        self._snapshot_every = max(1, int(snapshot_every))
        self._lock = _Lock(os.path.join(directory, LOCK_FILENAME))
        try:
            self._journal = Journal(os.path.join(directory, JOURNAL_FILENAME))
        except Exception:
            self._lock.release()
            raise
        # decoded once per open: it sets the seq floor now, and load()
        # hands it over
        self._loaded = latest_snapshot(directory)
        self._snapshot_upto = 0 if self._loaded is None else self._loaded[0]
        # a compacted journal may be empty while the snapshot covers
        # 1..n; appends must continue at n+1, not restart at 1
        self._journal.ensure_seq_floor(self._snapshot_upto)

    # -- identity -------------------------------------------------------------

    @property
    def name(self) -> str:
        return self._meta["name"]

    @property
    def directory(self) -> str:
        return self._directory

    @property
    def meta(self) -> Dict[str, Any]:
        return dict(self._meta)

    @property
    def journal(self) -> Journal:
        return self._journal

    @property
    def snapshot_every(self) -> int:
        return self._snapshot_every

    def alphabet(self) -> List[str]:
        return list(self._meta["alphabet"])

    def tree_type(self) -> Optional[TreeType]:
        data = self._meta.get("tree_type")
        return None if data is None else codec.treetype_from_json(data)

    def auto_minimize(self) -> bool:
        return bool(self._meta.get("auto_minimize", False))

    def is_empty(self) -> bool:
        """No persisted knowledge yet (fresh session)?"""
        return len(self._journal) == 0 and self._snapshot_upto == 0

    # -- journaling -----------------------------------------------------------

    def append_event(self, event: Dict[str, Any]) -> int:
        return self._journal.append(event)

    def mutations_pending(self) -> int:
        """Mutating journal records not yet covered by a snapshot."""
        return sum(
            1
            for record in self._journal.records()
            if record.seq > self._snapshot_upto
            and record.event.get("type") in MUTATING_EVENTS
        )

    # -- loading --------------------------------------------------------------

    def load(self) -> Tuple[int, Optional[IncompleteTree], History, List[Dict[str, Any]]]:
        """The newest readable snapshot and the journal events after it.

        Returns ``(snapshot_seq, state, history, events)``: ``state`` is
        None and ``snapshot_seq`` 0 when no snapshot is readable, so the
        whole journal is the suffix.  The snapshot decoded on open is
        handed over once; a later call reads the directory again.
        """
        loaded, self._loaded = self._loaded, None
        if loaded is None:
            loaded = latest_snapshot(self._directory)
        upto, state, history = (0, None, []) if loaded is None else loaded
        events = [
            record.event for record in self._journal.records() if record.seq > upto
        ]
        return upto, state, history, events

    # -- checkpointing --------------------------------------------------------

    def snapshot(
        self,
        state: IncompleteTree,
        history: History,
        compact_journal: bool = True,
        keep: int = 2,
    ) -> str:
        """Checkpoint now; optionally drop the covered journal prefix.

        The snapshot is read back and checksum-verified before it is
        promoted (see :func:`repro.store.snapshot.write_snapshot`) and
        before the journal prefix it covers is compacted away: a
        silently corrupt snapshot must never become the only copy of
        the records it claims to hold.  On verification failure
        :class:`StoreError` is raised with the previous snapshot and
        the journal intact.
        """
        upto = self._journal.last_seq
        try:
            path = write_snapshot(self._directory, upto, state, history)
        except SnapshotError as exc:
            raise StoreError(str(exc))
        self._loaded = None
        self._snapshot_upto = upto
        if compact_journal:
            self._journal.compact(upto)
        prune_snapshots(self._directory, keep=keep)
        return path

    def maybe_snapshot(self, state: IncompleteTree, history: History) -> Optional[str]:
        """Checkpoint when replay cost crosses the threshold."""
        if self.mutations_pending() >= self._snapshot_every:
            return self.snapshot(state, history)
        return None

    # -- bookkeeping ----------------------------------------------------------

    def info(self) -> Dict[str, Any]:
        """On-disk shape of the session, as plain data."""
        snapshots = list_snapshots(self._directory)
        return {
            "name": self.name,
            "directory": self._directory,
            "journal_records": len(self._journal),
            "journal_last_seq": self._journal.last_seq,
            "journal_bytes": self._journal.size_bytes(),
            "snapshot_seq": self._snapshot_upto,
            "snapshots": len(snapshots),
            "mutations_pending": self.mutations_pending(),
            "snapshot_every": self._snapshot_every,
            "auto_minimize": self.auto_minimize(),
            "alphabet_size": len(self._meta["alphabet"]),
        }

    def close(self) -> None:
        self._journal.close()
        self._lock.release()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"Session({self.name!r}, {len(self._journal)} journal records, "
            f"snapshot@{self._snapshot_upto})"
        )


class SessionStore:
    """Many named sessions under one root directory."""

    def __init__(self, root: str, snapshot_every: int = 32):
        # nothing is made on disk until a session is: create and fork
        # make the directories they write into
        self._root = os.fspath(root)
        self._snapshot_every = max(1, int(snapshot_every))

    @property
    def root(self) -> str:
        return self._root

    def _session_dir(self, name: str) -> str:
        return os.path.join(self._root, check_session_name(name))

    # -- lifecycle ------------------------------------------------------------

    def create(
        self,
        name: str,
        alphabet: Iterable[str],
        tree_type: Optional[TreeType] = None,
        auto_minimize: bool = False,
        extra: Optional[Dict[str, Any]] = None,
    ) -> Session:
        """Create a fresh session and return its (locked) handle."""
        directory = self._session_dir(name)
        if os.path.exists(os.path.join(directory, META_FILENAME)):
            raise StoreError(f"session {name!r} already exists")
        os.makedirs(directory, exist_ok=True)
        labels = set(alphabet)
        if tree_type is not None:
            labels |= set(tree_type.alphabet)
        meta = {
            "format": codec.FORMAT_VERSION,
            "name": name,
            "alphabet": sorted(labels),
            "tree_type": None if tree_type is None else codec.treetype_to_json(tree_type),
            "auto_minimize": bool(auto_minimize),
            "extra": dict(extra or {}),
        }
        meta_path = os.path.join(directory, META_FILENAME)
        with open(meta_path, "w", encoding="utf-8") as handle:
            handle.write(codec.canonical_dumps(meta))
            handle.flush()
            os.fsync(handle.fileno())
        return Session(directory, meta, self._snapshot_every)

    def open(self, name: str) -> Session:
        """Open an existing session (acquires the writer lock)."""
        directory = self._session_dir(name)
        meta = self._read_meta(name, directory)
        if meta.get("format") != codec.FORMAT_VERSION:
            raise StoreError(
                f"session {name!r} uses unsupported format {meta.get('format')!r}"
            )
        return Session(directory, meta, self._snapshot_every)

    def _read_meta(self, name: str, directory: str) -> Dict[str, Any]:
        """``meta.json``, telling a missing session from a failed open."""
        path = os.path.join(directory, META_FILENAME)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except FileNotFoundError:
            raise StoreError(f"no such session {name!r} under {self._root}")
        except OSError as exc:
            raise StoreError(f"cannot open session {name!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise StoreError(f"session {name!r} has a corrupt meta.json: {exc}")

    def exists(self, name: str) -> bool:
        try:
            directory = self._session_dir(name)
        except StoreError:
            return False
        return os.path.exists(os.path.join(directory, META_FILENAME))

    def list_sessions(self) -> List[str]:
        try:
            names = os.listdir(self._root)
        except OSError:
            return []
        return sorted(
            name
            for name in names
            if os.path.exists(os.path.join(self._root, name, META_FILENAME))
        )

    def peek(self, name: str) -> Dict[str, Any]:
        """Read-only description of a session **without** taking its lock.

        The ops server's ``/sessions`` endpoint lists every session
        while writers may be live; this reads only ``meta.json`` and
        file sizes, so it never blocks or steals a lock.  Numbers are
        advisory (a concurrent writer may be appending).
        """
        directory = self._session_dir(name)
        meta = self._read_meta(name, directory)
        try:
            journal_bytes = os.stat(os.path.join(directory, JOURNAL_FILENAME)).st_size
        except OSError:
            journal_bytes = 0
        snapshots = list_snapshots(directory)
        lock_path = os.path.join(directory, LOCK_FILENAME)
        locked = False
        if os.path.exists(lock_path):
            try:
                with open(lock_path, "r") as handle:
                    owner = int(handle.read().strip())
                locked = _pid_alive(owner)
            except (OSError, ValueError):
                locked = False
        return {
            "name": meta.get("name", name),
            "format": meta.get("format"),
            "alphabet_size": len(meta.get("alphabet") or []),
            "auto_minimize": bool(meta.get("auto_minimize", False)),
            "workload": (meta.get("extra") or {}).get("workload"),
            "journal_bytes": journal_bytes,
            "snapshots": len(snapshots),
            "snapshot_seq": snapshots[0][0] if snapshots else 0,
            "locked": locked,
        }

    def delete(self, name: str) -> None:
        """Remove a session and everything under it.

        Refuses while a live process holds the lock.
        """
        directory = self._session_dir(name)
        if not os.path.exists(directory):
            raise StoreError(f"no such session {name!r} under {self._root}")
        lock = _Lock(os.path.join(directory, LOCK_FILENAME))  # raises if held
        lock.release()
        shutil.rmtree(directory)

    def fork(self, source: str, target: str) -> None:
        """Copy a session's persisted knowledge under a new name.

        The source must not be locked by a live writer (its on-disk
        files are copied as-is, minus the lock).
        """
        source_dir = self._session_dir(source)
        target_dir = self._session_dir(target)
        if not os.path.exists(os.path.join(source_dir, META_FILENAME)):
            raise StoreError(f"no such session {source!r} under {self._root}")
        if os.path.exists(os.path.join(target_dir, META_FILENAME)):
            raise StoreError(f"session {target!r} already exists")
        lock = _Lock(os.path.join(source_dir, LOCK_FILENAME))
        try:
            os.makedirs(target_dir, exist_ok=True)
            with open(os.path.join(source_dir, META_FILENAME), "r", encoding="utf-8") as handle:
                meta = json.load(handle)
            meta["name"] = target
            with open(os.path.join(target_dir, META_FILENAME), "w", encoding="utf-8") as handle:
                handle.write(codec.canonical_dumps(meta))
            for filename in os.listdir(source_dir):
                if filename in (META_FILENAME, LOCK_FILENAME) or filename.endswith(".tmp"):
                    continue
                shutil.copy2(
                    os.path.join(source_dir, filename),
                    os.path.join(target_dir, filename),
                )
        finally:
            lock.release()

    def __repr__(self) -> str:
        return f"SessionStore({self._root!r}, {len(self.list_sessions())} sessions)"
