"""The Webhouse: the paper's Section 1 scenario as a usable front-end.

A :class:`Webhouse` accumulates incomplete knowledge about one source
document by recording ps-query/answer pairs (Algorithm Refine), answers
new queries locally whenever possible (Corollary 3.15 / Theorem 3.14),
and otherwise plans non-redundant local queries against the source
(Theorem 3.19), merging their answers into its knowledge.

Theorem 3.5 makes what a warehouse knows a pure function of its
query/answer history, so it holds that knowledge as one immutable
:class:`Knowledge` value: the representation (Refine's one incomplete
tree, or Refine⁺'s layers after the conjunctive remedy), the history,
and the materialized knowledge once a read has computed it.  Every
write builds the next value and publishes it with one assignment, after
its journal append succeeds: memory never holds a pair the journal
lacks, and a reader answers from whichever value it took, with no lock.
A read's verdict (Corollary 3.15) is a pure function of the value and
the query, so while the perf caches are on the value keeps it too.
So is the value itself, of its derivation: while the caches are on,
sessions with equal derivations publish the one value the ``knowledge``
table keeps, with its history, materialized tree, books and verdicts.

>>> wh = Webhouse(alphabet, tree_type=catalog_type)
>>> wh.ask(source, query1)          # acquire knowledge
>>> wh.can_answer(query3)           # True: answer locally, no source hit
>>> answer, plan = wh.complete_and_answer(source, query4)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..answering.answerable import fully_answerable
from ..answering.facts import certainly_nonempty, possibly_nonempty
from ..answering.query_incomplete import query_incomplete
from ..core.query import PSQuery
from ..core.tree import DataTree
from ..core.treetype import TreeType
from ..incomplete.certainty import certain_prefix, possible_prefix
from ..incomplete.incomplete_tree import IncompleteTree
from ..obs.monitor import (
    Alert,
    GrowthMonitor,
    REMEDY_CONJUNCTIVE,
    REMEDY_LINEAR,
    REMEDY_LOSSY,
)
from ..obs.spans import span as _span
from ..obs.state import STATE as _OBS
from ..perf.memo import MISS as _MISS
from ..perf.state import STATE as _PERF
from ..refine.conjunctive import ConjunctiveIncompleteTree, refine_plus_sequence
from ..refine.heuristics import forget_specializations
from ..refine.inverse import universal_incomplete
from ..refine.minimize import merge_equivalent_symbols
from ..refine.refine import refine
from ..refine.type_intersect import intersect_with_tree_type
from ..store import codec as _codec
from ..store.session import StoreError
from .completion import completion_plan
from .local_query import LocalQuery, overlay
from .source import InMemorySource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..store.session import Session, SessionStore

Pair = Tuple[PSQuery, DataTree]

#: Verdicts one knowledge value keeps, by query: room for every spec a
#: session is asked over and over, while a stream of fresh queries (new
#: price thresholds) empties the table instead of growing it.
MAX_VERDICTS = 16


class _Plain:
    """Refine's representation (Theorem 3.4): one incomplete tree, typed
    when materialized (Theorem 3.5)."""

    __slots__ = ("state", "tree_type")
    engine = "plain"

    def __init__(self, state: IncompleteTree, tree_type: Optional[TreeType]):
        self.state = state
        self.tree_type = tree_type

    def record(self, pairs: Iterable[Pair], alphabet: Sequence[str]) -> "_Plain":
        state = self.state
        for query, answer in pairs:
            state = refine(state, query, answer, alphabet)
        return _Plain(state, self.tree_type)

    def compact(self, labels: Optional[List[str]]) -> "_Plain":
        return _Plain(forget_specializations(self.state, labels), self.tree_type)

    def minimize(self) -> "_Plain":
        return _Plain(merge_equivalent_symbols(self.state), self.tree_type)

    def layered(self, alphabet: Sequence[str], history: Sequence[Pair]) -> "_Layered":
        return _Layered(refine_plus_sequence(alphabet, history, tree_type=self.tree_type))

    def size(self) -> int:
        return self.state.size()

    def materialize(self) -> IncompleteTree:
        if self.tree_type is not None:
            return intersect_with_tree_type(self.state, self.tree_type)
        return self.state.normalized()

    def shape(self, value: "Knowledge") -> Tuple[int, int, int]:
        tree = value.tree
        return tree.size(), len(tree.type.symbols()), len(tree.data_node_ids())


class _Layered:
    """Refine⁺'s representation (Corollary 3.9): layers linear in the
    history, whose product Theorem 3.10 prices."""

    __slots__ = ("layers",)
    engine = "conjunctive"
    #: no one state is rep-equal to the layers, so no snapshot is taken:
    #: the journal is the durable copy
    state = None

    def __init__(self, layers: ConjunctiveIncompleteTree):
        self.layers = layers

    def record(self, pairs: Iterable[Pair], alphabet: Sequence[str]) -> "_Layered":
        layers = self.layers
        for query, answer in pairs:
            layers = layers.refine_plus(query, answer, alphabet)
        return _Layered(layers)

    def compact(self, labels: Optional[List[str]]) -> "_Layered":
        layers = [forget_specializations(layer, labels) for layer in self.layers.layers]
        return _Layered(ConjunctiveIncompleteTree(layers, self.layers.tree_type))

    def minimize(self) -> "_Layered":
        return self

    def layered(self, alphabet: Sequence[str], history: Sequence[Pair]) -> "_Layered":
        return self

    def size(self) -> int:
        return self.layers.size()

    def materialize(self) -> IncompleteTree:
        return self.layers.to_incomplete_tree()

    def shape(self, value: "Knowledge") -> Tuple[int, int, int]:
        symbols = sum(len(layer.type.symbols()) for layer in self.layers.layers)
        return self.layers.size(), symbols, len(self.layers.data_nodes())


Rep = Union[_Plain, _Layered]


class Knowledge:
    """One immutable value of what a warehouse knows (Theorem 3.5).

    ``rep`` is the maintained representation, ``history`` the recorded
    pairs, ``linear`` whether every recorded query is linear.  The
    materialized knowledge, :attr:`tree`, the books, :meth:`shape`, and
    the verdicts, :meth:`verdict`, are kept once computed; racing first
    readers compute equal ones.  A write publishes a new value, so
    nothing kept here is ever invalidated, and every session whose
    derivation is equal may hold this one value (``Webhouse._derive``).
    (Not ``cached_property``: to 3.11 its lock is shared by instances.)
    """

    __slots__ = ("rep", "history", "linear", "_tree", "_shape", "_verdicts")

    def __init__(self, rep: Rep, history: Tuple[Pair, ...] = (), linear: bool = True):
        self.rep = rep
        self.history = history
        self.linear = linear
        self._tree: Optional[IncompleteTree] = None
        self._shape: Optional[Tuple[int, int, int]] = None
        self._verdicts: Dict[PSQuery, Tuple[bool, DataTree]] = {}

    @property
    def tree(self) -> IncompleteTree:
        """The materialized knowledge (history ∩ source type)."""
        tree = self._tree
        if tree is None:
            tree = self._tree = self.rep.materialize()
        return tree

    def with_rep(self, rep: Rep) -> "Knowledge":
        return self if rep is self.rep else Knowledge(rep, self.history, self.linear)

    def shape(self) -> Tuple[int, int, int]:
        """``(knowledge_size, specializations, data_nodes)``."""
        shape = self._shape
        if shape is None:
            shape = self._shape = self.rep.shape(self)
        return shape

    def size(self) -> int:
        return self.shape()[0]

    def verdict(self, query: PSQuery) -> Tuple[bool, DataTree]:
        """Corollary 3.15 on this value: ``(answerable, q(Td))``.

        While the perf caches are on, the verdict is kept by query, at
        most :data:`MAX_VERDICTS` of them; a full table is emptied, not
        evicted from, because racing readers may be filling it.  The
        check and the insert take no lock, so racing readers can
        overshoot the bound by one entry each or empty a table another
        just filled; every kept verdict is exact either way.  With the
        caches off every call computes it.
        """
        if not _PERF.enabled:
            return fully_answerable(self.tree, query)
        verdicts = self._verdicts
        verdict = verdicts.get(query)
        if verdict is not None:
            if _OBS.enabled:
                _OBS.metrics.inc("webhouse.verdict_hits")
            return verdict
        verdict = fully_answerable(self.tree, query)
        if len(verdicts) >= MAX_VERDICTS:
            verdicts.clear()
        verdicts[query] = verdict
        if _OBS.enabled:
            _OBS.metrics.inc("webhouse.verdict_misses")
        return verdict


class Webhouse:
    """Incomplete-information warehouse for one XML source."""

    def __init__(
        self,
        alphabet: Iterable[str],
        tree_type: Optional[TreeType] = None,
        auto_minimize: bool = False,
        monitor: Optional[GrowthMonitor] = None,
    ):
        if tree_type is not None:
            alphabet = set(alphabet) | set(tree_type.alphabet)
        self._alphabet = sorted(set(alphabet))
        self._tree_type = tree_type
        self._auto_minimize = auto_minimize
        #: The one knowledge value; a write replaces it whole.
        self._value = self._empty()
        self._session: Optional["Session"] = None
        #: Source round trips (asks, completions) this warehouse made,
        #: counted whether or not global observability is on.
        self._asks = 0
        self._completions = 0
        #: Growth watchdog fed on every record (docs/OBSERVABILITY.md).
        #: The default instance classifies but never alerts; configure
        #: budgets and callbacks via :meth:`guard` or pass your own.
        self.monitor = monitor if monitor is not None else GrowthMonitor()

    @property
    def value(self) -> Knowledge:
        """The current knowledge value; facts read off one value agree."""
        return self._value

    @property
    def history(self) -> Tuple[Pair, ...]:
        """The recorded query/answer pairs, as an immutable tuple.

        Exposed read-only so the in-memory history and an attached
        session journal cannot silently diverge; mutate only through
        :meth:`record` / :meth:`ask` / :meth:`reset`.
        """
        return self._value.history

    @staticmethod
    def _derive(
        parent: Optional[Knowledge], transition: object, compute: Callable[[], Knowledge]
    ) -> Knowledge:
        """The value ``transition`` derives from ``parent``: while the perf
        caches are on, the one the ``knowledge`` table keeps for an equal
        derivation on any session (``parent`` by identity, as ``Knowledge``
        defines no ``__eq__``, so a lookup hashes only the transition)."""
        if not _PERF.enabled:
            return compute()
        key, table = (parent, transition), _PERF.caches["knowledge"]
        value = table.get(key)
        if value is _MISS:  # racing misses compute equal values
            value = compute()
            table.put(key, value)
        return value

    def _empty(self) -> Knowledge:
        """The bare type, in plain mode."""
        alphabet, tree_type = self._alphabet, self._tree_type
        return self._derive(
            None, (tuple(alphabet), tree_type),
            lambda: Knowledge(_Plain(universal_incomplete(alphabet), tree_type)),
        )

    def _recorded(self, value: Knowledge, pairs: Tuple[Pair, ...]) -> Knowledge:
        """The record transition (batched as :meth:`record_many` says);
        the history takes every pair, in order."""

        def compute() -> Knowledge:
            fold = pairs
            if len(pairs) > 1:  # each distinct pair once, smallest first
                fold = sorted(dict.fromkeys(pairs), key=lambda qa: (qa[0].size(), len(qa[1])))
            rep = value.rep.record(fold, self._alphabet)
            if self._auto_minimize:
                rep = rep.minimize()
            linear = value.linear and all(query.is_linear() for query, _ in pairs)
            return Knowledge(rep, value.history + pairs, linear)

        return self._derive(value, (pairs, self._auto_minimize), compute)

    def _compacted(self, value: Knowledge, labels: Optional[List[str]]) -> Knowledge:
        """The lossy transition (Section 3.2) over ``labels``, sorted."""
        transition = ("compact", None if labels is None else tuple(labels))
        return self._derive(value, transition, lambda: value.with_rep(value.rep.compact(labels)))

    # -- persistence -------------------------------------------------------------

    @property
    def session(self) -> Optional["Session"]:
        """The attached durable session, if any."""
        return self._session

    def attach(self, session: "Session") -> None:
        """Journal every future knowledge mutation to ``session``.

        A fresh session first receives the warehouse's current history
        (so disk and memory agree from the start); attaching a session
        that already holds knowledge is only allowed when this warehouse
        is empty — it then loads the persisted state, exactly like
        :meth:`resume`.
        """
        if self._session is not None:
            raise ValueError("a session is already attached; detach() first")
        if not session.is_empty():
            if self._value.history:
                raise ValueError(
                    "cannot attach a non-empty session to a warehouse with "
                    "history; use Webhouse.resume()"
                )
            self._load(session)
        else:
            for query, answer in self._value.history:
                session.append_event(_record_event(query, answer, "attach"))
        self._session = session

    def detach(self) -> Optional["Session"]:
        """Stop journaling and close the session; returns it (now closed)."""
        session, self._session = self._session, None
        if session is not None:
            session.close()
        return session

    @classmethod
    def resume(cls, store: "SessionStore", name: str) -> "Webhouse":
        """Reopen a journaled session: snapshot + replay, then attach.

        The resumed warehouse answers ``can_answer`` / ``certain_prefix``
        exactly as the original would have (Theorem 3.5 equivalence of
        replaying the history).
        """
        session = store.open(name)
        try:
            webhouse = cls(
                session.alphabet(),
                tree_type=session.tree_type(),
                auto_minimize=session.auto_minimize(),
            )
            replayed = webhouse._load(session)
            webhouse._session = session
            if _OBS.enabled:
                _OBS.metrics.inc("webhouse.resumes")
                _OBS.metrics.observe("webhouse.resume_replayed", replayed)
            return webhouse
        except Exception:
            session.close()
            raise

    def _load(self, session: "Session") -> int:
        """Adopt ``session``'s knowledge: its snapshot, then the journal
        events after it; returns how many events were replayed.

        Each event runs through the transition the live :meth:`record`,
        :meth:`reset` or :meth:`compact` runs, over the session's own
        alphabet and ``auto_minimize``, in plain mode — so the journal
        has one interpreter and one table.  A snapshot's value is a fresh
        object, so what derives from it is this session's alone.  The
        replayed value is published once, at the end.  Replay journals
        nothing and feeds neither the growth monitor nor the metrics.
        """
        with _span("store.session.recover") as sp:
            upto, state, history, events = session.load()
            self._alphabet = session.alphabet()
            self._auto_minimize = session.auto_minimize()
            value = self._empty()
            if state is not None:
                history = tuple(history)
                linear = all(query.is_linear() for query, _ in history)
                value = Knowledge(_Plain(state, self._tree_type), history, linear)
            for event in events:
                kind = event.get("type")
                if kind == "record":
                    pair = (
                        _codec.query_from_json(event["query"]),
                        _codec.tree_from_json(event["answer"]),
                    )
                    value = self._recorded(value, (pair,))
                elif kind == "reset":
                    value = self._empty()
                elif kind == "compact":
                    value = self._compacted(value, event.get("labels"))
                elif kind != "complete":
                    raise StoreError(f"unknown journal event type {kind!r}")
                if _OBS.enabled:
                    _OBS.metrics.inc("store.replay.steps")
            self._value = value
            if _OBS.enabled and sp is not None:
                sp.attrs.update(
                    snapshot_seq=upto, replayed=len(events), history=len(value.history)
                )
            return len(events)

    def source_hint(self) -> Dict[str, object]:
        """Workload parameters remembered by the attached session's meta.

        Sessions created by the CLI / ops server store the synthetic
        source's parameters (``{"name": "catalog", "products": N,
        "seed": N}``) under ``extra.workload`` so any later process —
        another CLI invocation, or the HTTP ops plane hosting the
        session — can regenerate the exact document the journaled
        knowledge was acquired from.  Empty when detached or when the
        session carries no workload hint.
        """
        if self._session is None:
            return {}
        extra = self._session.meta.get("extra") or {}
        return dict(extra.get("workload") or {})

    def checkpoint(self) -> Optional[str]:
        """Force a snapshot of the attached session now.

        Returns the snapshot path; the covered journal prefix is
        compacted away.  None when detached, and while the knowledge is
        layered (conjunctive mode), whose durable copy is the journal.
        """
        value = self._value
        if self._session is None or value.rep.state is None:
            return None
        return self._session.snapshot(value.rep.state, value.history)

    def _publish(self, value: Knowledge, *events: Dict[str, object]) -> None:
        """Journal ``events``, make ``value`` current, then take a due
        snapshot (none while layered).  A failed append publishes nothing,
        so memory never holds a pair the journal lacks; a batch failing
        part-way leaves its journaled prefix to the next resume."""
        session = self._session
        if session is not None:
            for event in events:
                session.append_event(event)
        self._value = value
        if session is not None and value.rep.state is not None:
            session.maybe_snapshot(value.rep.state, value.history)

    # -- acquisition -------------------------------------------------------------

    def record(
        self, query: PSQuery, answer: DataTree, _origin: str = "record"
    ) -> None:
        """Refine knowledge with one query/answer pair (Theorem 3.4).

        In conjunctive mode (after ``apply_remedy("conjunctive")``) the
        pair is appended as a Refine⁺ layer instead (Theorem 3.8) —
        O((|A|+|q|)·|Σ|) added size rather than a product intersection.

        The growth monitor sees the new knowledge size afterwards; it
        may fire alerts, invoke the degrade callback, or raise
        :class:`~repro.obs.monitor.BudgetExceeded` (knowledge and
        journal are consistent either way).
        """
        self._record("webhouse.record", ((query, answer),), _origin)

    def record_many(
        self,
        pairs: Iterable[Pair],
        _origin: str = "record_many",
    ) -> None:
        """Batched :meth:`record`: fold many pairs, then bookkeep once.

        rep-equivalent to recording the pairs one by one (intersection
        is commutative and idempotent), but cheaper on three counts:
        duplicate pairs refine only once, compatible answers are merged
        smallest-first so the intermediate products stay small, and the
        growth monitor / auto-minimizer run once per batch instead of
        once per pair.  History and the session journal still receive
        every input pair, in input order, so resume/replay semantics are
        unchanged.
        """
        pairs = tuple(pairs)
        if pairs:
            self._record("webhouse.record_many", pairs, _origin)

    def _record(self, name: str, pairs: Tuple[Pair, ...], origin: str) -> None:
        """Record ``pairs`` and publish the value, then book them once:
        metrics, the ``name`` span and the growth monitor."""
        with _span(name, pairs=len(pairs)) as sp:
            value = self._recorded(self._value, pairs)
            self._publish(value, *(_record_event(q, a, origin) for q, a in pairs))
            size = value.rep.size()
            if _OBS.enabled:
                _OBS.metrics.inc("webhouse.records", len(pairs))
                _OBS.metrics.observe("webhouse.knowledge_size", size)
                if name == "webhouse.record_many":
                    _OBS.metrics.inc("webhouse.batches")
                    _OBS.metrics.observe("webhouse.batch_pairs", len(pairs))
                if sp is not None:
                    sp.attrs.update(
                        step=len(value.history),
                        answer_nodes=sum(len(answer) for _, answer in pairs),
                        knowledge_size=size,
                        engine=value.rep.engine,
                    )
            self.monitor.observe(size, linear=value.linear)

    def ask(self, source: InMemorySource, query: PSQuery) -> DataTree:
        """Query the source and fold the answer into knowledge."""
        with _span("webhouse.ask"):
            answer = source.ask(query)
            self._asks += 1
            if _OBS.enabled:
                _OBS.metrics.inc("webhouse.asks")
            self.record(query, answer, _origin="ask")
            return answer

    def reset(self) -> None:
        """Re-initialize to the bare type, in plain mode — the paper's
        answer to source updates when no change information is
        available."""
        self._publish(self._empty(), {"type": "reset"})
        self.monitor.reset_window()

    # -- growth control ----------------------------------------------------------

    @property
    def engine(self) -> str:
        """``"plain"`` (Algorithm Refine) or ``"conjunctive"`` (Refine⁺)."""
        return self._value.rep.engine

    def guard(
        self,
        warn_budget: Optional[float] = None,
        hard_budget: Optional[float] = None,
        on_hard: str = "degrade",
        window: int = 8,
        degrade_on_superlinear: bool = False,
    ) -> GrowthMonitor:
        """Install a :class:`GrowthMonitor` wired to :meth:`apply_remedy`.

        The degrade callback applies each alert's recommended remedy to
        this warehouse, closing the paper's monitor-and-degrade loop:
        superlinear growth or a hard-budget breach triggers the matching
        Example 3.2 remedy automatically.  Returns the monitor (register
        extra callbacks with :meth:`GrowthMonitor.on_alert`).
        """
        monitor = GrowthMonitor(
            window=window,
            warn_budget=warn_budget,
            hard_budget=hard_budget,
            on_hard=on_hard,
            degrade_callback=self._degrade,
            degrade_on_superlinear=degrade_on_superlinear,
        )
        monitor.seed(self.monitor.sizes, all_linear=self._value.linear)
        self.monitor = monitor
        return monitor

    def _degrade(self, alert: Alert) -> None:
        self.apply_remedy(alert.remedy)

    def apply_remedy(self, remedy: str) -> None:
        """Apply one of the paper's three blowup remedies in place.

        * ``"conjunctive"`` — re-fold the history with Refine⁺
          (Corollary 3.9): representation becomes linear in the history;
          querying the materialized knowledge gets more expensive.
        * ``"linear"`` — turn on per-step minimization (Lemma 3.12) and
          minimize the current state now.
        * ``"lossy"`` — forget specializations (Section 3.2 heuristics);
          in conjunctive mode each layer is coarsened independently
          (still a superset of the represented trees, so still sound).

        Remedies are an in-memory performance posture and are **not**
        journaled (except lossy forgetting, which changes the
        represented set and journals as ``compact``): a session resumed
        from disk starts back in plain mode.
        """
        with _span("webhouse.apply_remedy", remedy=remedy):
            value = self._value
            if remedy == REMEDY_CONJUNCTIVE:
                self._value = self._derive(
                    value, remedy,
                    lambda: value.with_rep(value.rep.layered(self._alphabet, value.history)),
                )
            elif remedy == REMEDY_LINEAR:
                self._auto_minimize = True
                self._value = self._derive(value, remedy, lambda: value.with_rep(value.rep.minimize()))
            elif remedy == REMEDY_LOSSY:
                self.compact()
            else:
                raise ValueError(f"unknown remedy {remedy!r}")
            if _OBS.enabled:
                _OBS.metrics.inc(f"webhouse.remedy.{remedy}")
            self.monitor.reset_window()

    # -- knowledge ------------------------------------------------------------------

    @property
    def knowledge(self) -> IncompleteTree:
        """The incomplete tree (history ∩ source type, Theorem 3.5).

        In conjunctive mode this materializes the layer product — the
        operation Theorem 3.10 prices: worst-case exponential, which is
        precisely the cost the conjunctive representation defers from
        every ``record`` to the queries that need full knowledge.
        """
        return self._value.tree

    def prepare(self) -> "Webhouse":
        """Materialize the current value's knowledge now; returns self.
        Reads do it on first use anyway: this only picks the moment."""
        self._value.tree  # noqa: B018 - property access fills it
        return self

    def data_tree(self) -> DataTree:
        """Everything known for sure — the data tree Td."""
        return self.knowledge.data_tree()

    def size(self) -> int:
        """Knowledge size as reported: the materialized knowledge's in
        plain mode, the layers' in conjunctive mode."""
        return self._value.size()

    def stats(self) -> Dict[str, object]:
        """Operation counts and current knowledge shape, as plain data.

        The counts are the warehouse's own, exact whether or not global
        observability is on.
        In conjunctive mode the shape is reported from the layers
        (materializing the product just for stats would defeat the
        remedy).
        """
        value = self._value
        size, specializations, data_nodes = value.shape()
        return {
            "queries_recorded": len(value.history),
            "asks": self._asks,
            "source_completions": self._completions,
            "knowledge_size": size,
            "specializations": specializations,
            "data_nodes": data_nodes,
            "engine": value.rep.engine,
            "growth_regime": self.monitor.classification(),
        }

    def __repr__(self) -> str:
        stats = self.stats()
        rendered = ", ".join(f"{key}={value}" for key, value in stats.items())
        return f"Webhouse({rendered})"

    def compact(self, labels: Optional[Iterable[str]] = None) -> None:
        """Apply the lossy forgetting heuristic (Section 3.2) in place.

        In conjunctive mode every layer is coarsened independently — each
        layer's rep set only grows, so the intersection still contains
        every tree the exact knowledge did (sound, lossy).
        """
        labels = None if labels is None else sorted(set(labels))
        self._publish(
            self._compacted(self._value, labels), {"type": "compact", "labels": labels}
        )

    # -- local answering -----------------------------------------------------------

    def can_answer(self, query: PSQuery) -> bool:
        """Corollary 3.15: is the query fully answerable locally?"""
        answerable, _answer = self._value.verdict(query)
        return answerable

    def answer_locally(self, query: PSQuery) -> DataTree:
        """The exact answer, from local data only.

        Raises ``ValueError`` when the knowledge does not determine it.
        """
        answerable, answer = self._value.verdict(query)
        if not answerable:
            raise ValueError(
                "query is not fully answerable from local knowledge; "
                "use possible_answers() or complete_and_answer()"
            )
        return answer

    def possible_answers(self, query: PSQuery) -> IncompleteTree:
        """Theorem 3.14: an incomplete tree describing all possible
        answers given current knowledge."""
        return query_incomplete(self.knowledge, query)

    def certain_answer_part(self, query: PSQuery) -> DataTree:
        """The sure part of the answer: q evaluated on the data tree.

        For reachable knowledge this is a prefix of every possible
        answer."""
        return query.evaluate(self.data_tree())

    def answer_with_caveats(
        self, query: PSQuery, value: Optional[Knowledge] = None
    ) -> Tuple[DataTree, bool]:
        """Example 3.4's reply shape: the complete sure part, plus a flag
        telling whether the true answer may contain more.

        Returns ``(sure_answer, may_have_more)``: when the flag is
        False, ``sure_answer`` is the exact answer (the query was fully
        answerable, Corollary 3.15); when True, the source holds — or
        may hold — matches the local knowledge cannot see.  ``value``,
        when given, answers instead of the current value: a caller that
        reports a value's books beside the answer passes that value.
        """
        answerable, sure = (self._value if value is None else value).verdict(query)
        return sure, not answerable

    def is_certain_prefix(self, prefix: DataTree) -> bool:
        return certain_prefix(prefix, self.knowledge)

    def is_possible_prefix(self, prefix: DataTree) -> bool:
        return possible_prefix(prefix, self.knowledge)

    def may_match(self, query: PSQuery) -> bool:
        """Corollary 3.18: possibly non-empty answer."""
        return possibly_nonempty(self.knowledge, query)

    def must_match(self, query: PSQuery) -> bool:
        """Corollary 3.18: certainly non-empty answer."""
        return certainly_nonempty(self.knowledge, query)

    # -- mediated answering ------------------------------------------------------------

    def completion_plan(self, query: PSQuery) -> List[LocalQuery]:
        """Theorem 3.19: non-redundant local queries completing the
        knowledge relative to the query."""
        return completion_plan(self.knowledge, query)

    def complete_and_answer(
        self, source: InMemorySource, query: PSQuery
    ) -> Tuple[DataTree, List[LocalQuery]]:
        """Answer the query by fetching only the missing information.

        Returns the exact answer and the executed plan.  Local answers
        are folded into knowledge for future queries.
        """
        with _span("webhouse.complete_and_answer") as sp:
            plan = self.completion_plan(query)
            self._completions += 1
            self._publish(
                self._value,
                {
                    "type": "complete",
                    "query": _codec.query_to_json(query),
                    "plan_queries": len(plan),
                },
            )
            if _OBS.enabled:
                _OBS.metrics.inc("webhouse.completions")
                _OBS.metrics.observe("webhouse.plan_queries", len(plan))
                if sp is not None:
                    sp.attrs["plan_queries"] = len(plan)
            merged = self.data_tree()
            for local in plan:
                if local.node == "":
                    # nothing known yet: the plan degenerates to the query
                    # itself at the document root (which also records it)
                    answer = self.ask(source, local.query)
                    return answer, plan
                answer = source.ask_local(local.query, local.node)
                if not answer.is_empty():
                    merged = overlay(merged, answer)
            result = query.evaluate(merged)
            return result, plan


def _record_event(query: PSQuery, answer: DataTree, origin: str) -> Dict[str, object]:
    """The journal event of one recorded pair."""
    return {
        "type": "record",
        "origin": origin,
        "query": _codec.query_to_json(query),
        "answer": _codec.tree_to_json(answer),
    }


__all__ = ["Knowledge", "MAX_VERDICTS", "Webhouse"]
