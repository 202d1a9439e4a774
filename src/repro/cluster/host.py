"""One shard's engines, and the only implementation of every shard op.

Theorem 3.5 makes a session's knowledge a pure function of its own
query/answer history, so a shard is a closed world for what a session
knows: one :class:`~repro.mediator.webhouse.Webhouse` per session key.
It is not one for memory: sessions with equal derivations share one
knowledge value, on any shard, while the perf caches are on.  When
durable, every host shares the pool's one ``SessionStore`` root, where
each session lives at ``<root>/<key>/`` whichever shard its key routes
to, so routing stays an in-memory decision.
:class:`ShardHost` owns that world and is the single body of
``record``, ``ask``, ``answer``, ``answer_all``, ``keys``, ``stats``
and ``apply_remedy``.  It knows nothing of locks or retries: the
caller serializes its writes (:class:`~repro.cluster.sharded.Shard`
does, on its lock), and its reads need no lock, because each engine
publishes its knowledge as one immutable value and the engine map is
replaced, never mutated.  A read takes each session's value once and
answers both the verdict and the books from it; a session enters the
map only once its first write has published, so no read sees a session
that holds nothing yet.
"""

from __future__ import annotations

from contextlib import suppress
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Tuple

from ..core.query import PSQuery
from ..core.tree import DataTree
from ..core.treetype import TreeType
from ..faults.inject import FaultInjected
from ..mediator.source import InMemorySource
from ..mediator.webhouse import Knowledge, Webhouse
from ..obs.state import STATE as _OBS
from ..store.journal import JournalError
from ..store.session import StoreError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..store.session import SessionStore

#: Errors worth retrying and counting against a shard's breaker:
#: injected faults and the store-layer failures they (or real disks)
#: surface as, ``OSError`` included.  Deliberate control decisions —
#: admission shedding, validation — are excluded: retrying them would
#: amplify load, not absorb a glitch.
RETRYABLE_ERRORS = (FaultInjected, JournalError, StoreError, OSError)


class ShardHost:
    """The engines of one shard and the ops over them (no locking)."""

    def __init__(
        self,
        index: int,
        alphabet: Iterable[str],
        tree_type: Optional[TreeType] = None,
        *,
        auto_minimize: bool = False,
        store: Optional["SessionStore"] = None,
        factory: Optional[Callable[[], Webhouse]] = None,
        session_extra: Optional[Dict[str, object]] = None,
    ):
        self.index = index
        self.alphabet = sorted(set(alphabet))
        self.tree_type = tree_type
        self.auto_minimize = auto_minimize
        self.store = store
        self._factory = factory
        #: extra meta stamped on every durable session this host creates
        self.session_extra = session_extra
        #: session key -> its engine; replaced whole on every change
        self.engines: Dict[str, Webhouse] = {}

    # -- engines -----------------------------------------------------------------

    def resume(self, key: str) -> Webhouse:
        """Reopen ``key``'s journaled session on this shard."""
        engine = Webhouse.resume(self.store, key)
        self.engines = {**self.engines, key: engine}
        return engine

    def _create(self, key: str) -> Webhouse:
        engine = (
            self._factory()
            if self._factory is not None
            else Webhouse(
                self.alphabet,
                tree_type=self.tree_type,
                auto_minimize=self.auto_minimize,
            )
        )
        if self.store is not None:
            session = self.store.create(
                key,
                self.alphabet,
                tree_type=self.tree_type,
                auto_minimize=self.auto_minimize,
                extra=self.session_extra,
            )
            engine.attach(session)
        if _OBS.enabled:
            _OBS.metrics.inc("cluster.sessions_created")
        return engine

    def _write(self, key: str, change: Callable[[Webhouse], object]) -> object:
        """Run ``change`` on ``key``'s engine, creating it on first write.

        A new engine enters the map only once that first write has
        published a value, so until then a read sees an unknown key, and
        a first write that fails leaves no session in memory.

        A store failure mid-write can leave an engine's journal ahead of
        its memory (an append that failed after it persisted), or its
        journal handle closed.  Disk is then the only trustworthy copy,
        so the engine is rebuilt by snapshot + replay — the Theorem 3.5
        path a restart takes — *before* the error leaves the host, and
        the caller's retry sees the rebuilt engine.  A new durable
        session whose first write fails, for whatever reason, is revived
        the same way, since a restart would find it on disk.  Without a
        store, memory is the state and stays.
        """
        engine = self.engines.get(key)
        born = None
        try:
            if engine is None:
                engine = self._create(key)
                born = engine.value
            return change(engine)
        except Exception as exc:
            if (
                (born is not None or isinstance(exc, RETRYABLE_ERRORS))
                and self.store is not None
                and self.store.exists(key)
            ):
                # dropped first: a failed resume must not leave the
                # wedged engine serving.  Its session closes before the
                # resume opens a new one: both belong to this pid, so the
                # new handle breaks the old lock file, and a later release
                # by the old handle would delete the new one's.
                self.engines = {k: e for k, e in self.engines.items() if k != key}
                born = None
                if engine is not None:
                    with suppress(OSError):
                        engine.detach()
                self.resume(key)
                if _OBS.enabled:
                    _OBS.metrics.inc("cluster.engine_revivals")
            raise
        finally:
            if born is not None and engine.value is not born:
                self.engines = {**self.engines, key: engine}

    def _books(self, value: Knowledge) -> Dict[str, object]:
        return {
            "shard": self.index,
            "knowledge_size": value.size(),
            "queries_recorded": len(value.history),
        }

    # -- ops ----------------------------------------------------------------------

    @staticmethod
    def _fold(engine: Webhouse, query: PSQuery, answer: DataTree, **origin: str) -> None:
        """Record one pair exactly once, the rule of both keyed writes.

        A pair equal to the session's last pair is already in: a crashed
        attempt persisted it before failing, and this is the retry.
        """
        history = engine.history
        if not history or history[-1] != (query, answer):
            engine.record(query, answer, **origin)

    def record(self, key: str, query: PSQuery, answer: DataTree) -> None:
        """Refine ``key``'s knowledge with one pair, exactly once."""
        self._write(key, lambda engine: self._fold(engine, query, answer))

    def ask(self, key: str, source: InMemorySource, query: PSQuery) -> Dict[str, object]:
        """Query the source for ``key``, fold the answer in exactly once;
        with books."""

        def change(engine: Webhouse) -> Dict[str, object]:
            answer = source.ask(query)
            self._fold(engine, query, answer, _origin="ask")
            return {"answer": answer, **self._books(engine.value)}

        return self._write(key, change)

    def answer(self, key: str, query: PSQuery) -> Dict[str, object]:
        """``key``'s caveated certain answer plus its books.

        An unknown key answers from zero knowledge — empty sure part,
        ``may_have_more`` — *without* creating an engine, so probe
        traffic cannot grow the pool.
        """
        engine = self.engines.get(key)
        if engine is None:
            return {
                "sure": DataTree.empty(),
                "may_have_more": True,
                "shard": self.index,
                "knowledge_size": 0,
                "queries_recorded": 0,
            }
        value = engine.value
        sure, more = engine.answer_with_caveats(query, value)
        return {"sure": sure, "may_have_more": more, **self._books(value)}

    def answer_all(self, query: PSQuery) -> List[Tuple[str, DataTree, bool, int]]:
        """``(key, sure, may_have_more, knowledge_size)`` for every
        session, key-sorted, each row from one value."""
        rows = []
        for key, engine in sorted(self.engines.items()):
            value = engine.value
            rows.append((key, *engine.answer_with_caveats(query, value), value.size()))
        return rows

    def keys(self) -> List[str]:
        """The shard's session keys, sorted (cheap: no knowledge books)."""
        return sorted(self.engines)

    def stats(self) -> Dict[str, object]:
        """Session count and keys plus history and knowledge totals."""
        engines = self.engines
        values = [engine.value for engine in engines.values()]
        return {
            "shard": self.index,
            "sessions": len(engines),
            "session_keys": sorted(engines),
            "queries_recorded": sum(len(value.history) for value in values),
            "knowledge_size": sum(value.size() for value in values),
        }

    def apply_remedy(self, remedy: str) -> None:
        """Apply one of the paper's growth remedies to every session."""
        for key in self.engines:
            self._write(key, lambda engine: engine.apply_remedy(remedy))

    def close(self) -> None:
        """Detach every durable session (journals closed)."""
        for engine in self.engines.values():
            if engine.session is not None:
                engine.detach()


__all__ = ["RETRYABLE_ERRORS", "ShardHost"]
