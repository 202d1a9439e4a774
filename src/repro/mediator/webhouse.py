"""The Webhouse: the paper's Section 1 scenario as a usable front-end.

A :class:`Webhouse` accumulates incomplete knowledge about one source
document by recording ps-query/answer pairs (Algorithm Refine), answers
new queries locally whenever possible (Corollary 3.15 / Theorem 3.14),
and otherwise plans non-redundant local queries against the source
(Theorem 3.19), merging their answers into its knowledge.

>>> wh = Webhouse(alphabet, tree_type=catalog_type)
>>> wh.ask(source, query1)          # acquire knowledge
>>> wh.can_answer(query3)           # True: answer locally, no source hit
>>> answer, plan = wh.complete_and_answer(source, query4)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

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
        self._state = universal_incomplete(self._alphabet)
        #: When a conjunctive remedy is active, knowledge lives here as
        #: Refine⁺ layers (Corollary 3.9) and ``_state`` is ignored.
        self._conjunctive: Optional[ConjunctiveIncompleteTree] = None
        self._knowledge_cache: Optional[IncompleteTree] = None
        self._history: List[Tuple[PSQuery, DataTree]] = []
        self._all_linear = True
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
    def history(self) -> Tuple[Tuple[PSQuery, DataTree], ...]:
        """The recorded query/answer pairs, as an immutable tuple.

        Exposed read-only so the in-memory history and an attached
        session journal cannot silently diverge; mutate only through
        :meth:`record` / :meth:`ask` / :meth:`reset`.
        """
        return tuple(self._history)

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
            if self._history:
                raise ValueError(
                    "cannot attach a non-empty session to a warehouse with "
                    "history; use Webhouse.resume()"
                )
            self._load(session)
        else:
            for query, answer in self._history:
                session.append_event(
                    {
                        "type": "record",
                        "origin": "attach",
                        "query": _codec.query_to_json(query),
                        "answer": _codec.tree_to_json(answer),
                    }
                )
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
        has one interpreter.  Replay journals nothing and feeds neither
        the growth monitor nor the metrics.
        """
        with _span("store.session.recover") as sp:
            upto, state, history, events = session.load()
            self._alphabet = session.alphabet()
            self._auto_minimize = session.auto_minimize()
            self._apply_reset()
            if state is not None:
                self._state = state
                self._history = list(history)
                self._all_linear = all(q.is_linear() for q, _ in history)
            for event in events:
                kind = event.get("type")
                if kind == "record":
                    self._apply_record(
                        _codec.query_from_json(event["query"]),
                        _codec.tree_from_json(event["answer"]),
                    )
                elif kind == "reset":
                    self._apply_reset()
                elif kind == "compact":
                    self._apply_compact(event.get("labels"))
                elif kind != "complete":
                    raise StoreError(f"unknown journal event type {kind!r}")
                if _OBS.enabled:
                    _OBS.metrics.inc("store.replay.steps")
            if _OBS.enabled and sp is not None:
                sp.attrs.update(
                    snapshot_seq=upto, replayed=len(events), history=len(self._history)
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
        """Force a snapshot of the attached session now (None if detached).

        Returns the snapshot path; the covered journal prefix is
        compacted away.
        """
        if self._session is None:
            return None
        return self._session.snapshot(self._state, list(self._history))

    def _journal(self, event: Dict[str, object]) -> None:
        if self._session is not None:
            self._session.append_event(event)
            self._session.maybe_snapshot(self._state, self._history)

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
        with _span("webhouse.record") as sp:
            self._apply_record(query, answer)
            self._journal(
                {
                    "type": "record",
                    "origin": _origin,
                    "query": _codec.query_to_json(query),
                    "answer": _codec.tree_to_json(answer),
                }
            )
            size = self._representation_size()
            if _OBS.enabled:
                _OBS.metrics.inc("webhouse.records")
                _OBS.metrics.observe("webhouse.knowledge_size", size)
                if sp is not None:
                    sp.attrs.update(
                        step=len(self._history),
                        answer_nodes=len(answer),
                        knowledge_size=size,
                        engine=self.engine,
                    )
            self.monitor.observe(size, linear=self._all_linear)

    def _apply_record(self, query: PSQuery, answer: DataTree) -> None:
        """The record transition: one Refine step (or Refine⁺ layer)."""
        if self._conjunctive is not None:
            self._conjunctive = self._conjunctive.refine_plus(
                query, answer, self._alphabet
            )
        else:
            self._state = refine(self._state, query, answer, self._alphabet)
            if self._auto_minimize:
                self._state = merge_equivalent_symbols(self._state)
        self._knowledge_cache = None
        self._history.append((query, answer))
        self._all_linear = self._all_linear and query.is_linear()

    def record_many(
        self,
        pairs: Iterable[Tuple[PSQuery, DataTree]],
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
        pairs = list(pairs)
        if not pairs:
            return
        with _span("webhouse.record_many", pairs=len(pairs)) as sp:
            if self._conjunctive is not None:
                for query, answer in pairs:
                    self._conjunctive = self._conjunctive.refine_plus(
                        query, answer, self._alphabet
                    )
            else:
                unique: List[Tuple[PSQuery, DataTree]] = []
                seen = set()
                for pair in pairs:
                    if pair not in seen:
                        seen.add(pair)
                        unique.append(pair)
                # merge small answers first: keeps intermediate products small
                unique.sort(key=lambda qa: (qa[0].size(), len(qa[1])))
                for query, answer in unique:
                    self._state = refine(self._state, query, answer, self._alphabet)
                if self._auto_minimize:
                    self._state = merge_equivalent_symbols(self._state)
            self._knowledge_cache = None
            for query, answer in pairs:
                self._history.append((query, answer))
                self._all_linear = self._all_linear and query.is_linear()
                self._journal(
                    {
                        "type": "record",
                        "origin": _origin,
                        "query": _codec.query_to_json(query),
                        "answer": _codec.tree_to_json(answer),
                    }
                )
            size = self._representation_size()
            if _OBS.enabled:
                _OBS.metrics.inc("webhouse.batches")
                _OBS.metrics.inc("webhouse.records", len(pairs))
                _OBS.metrics.observe("webhouse.batch_pairs", len(pairs))
                _OBS.metrics.observe("webhouse.knowledge_size", size)
                if sp is not None:
                    sp.attrs.update(
                        step=len(self._history),
                        knowledge_size=size,
                        engine=self.engine,
                    )
            self.monitor.observe(size, linear=self._all_linear)

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
        """Re-initialize to the bare type — the paper's answer to source
        updates when no change information is available."""
        self._apply_reset()
        self.monitor.reset_window()
        self._journal({"type": "reset"})

    def _apply_reset(self) -> None:
        """The reset transition: back to the bare type, plain mode."""
        self._state = universal_incomplete(self._alphabet)
        self._conjunctive = None
        self._knowledge_cache = None
        self._history.clear()
        self._all_linear = True

    # -- growth control ----------------------------------------------------------

    @property
    def engine(self) -> str:
        """``"plain"`` (Algorithm Refine) or ``"conjunctive"`` (Refine⁺)."""
        return "conjunctive" if self._conjunctive is not None else "plain"

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
        monitor.seed(self.monitor.sizes, all_linear=self._all_linear)
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
            if remedy == REMEDY_CONJUNCTIVE:
                if self._conjunctive is None:
                    self._conjunctive = refine_plus_sequence(
                        self._alphabet, self._history, tree_type=self._tree_type
                    )
                    self._knowledge_cache = None
            elif remedy == REMEDY_LINEAR:
                self._auto_minimize = True
                if self._conjunctive is None:
                    self._state = merge_equivalent_symbols(self._state)
                    self._knowledge_cache = None
            elif remedy == REMEDY_LOSSY:
                self.compact()
            else:
                raise ValueError(f"unknown remedy {remedy!r}")
            if _OBS.enabled:
                _OBS.metrics.inc(f"webhouse.remedy.{remedy}")
            self.monitor.reset_window()

    def _representation_size(self) -> int:
        """Size of the *maintained* representation (not the materialized
        knowledge): conjunctive layers when degraded, else the plain
        state.  This is the quantity the growth remedies bound."""
        if self._conjunctive is not None:
            return self._conjunctive.size()
        return self._state.size()

    # -- knowledge ------------------------------------------------------------------

    @property
    def knowledge(self) -> IncompleteTree:
        """The incomplete tree (history ∩ source type, Theorem 3.5).

        In conjunctive mode this materializes the layer product — the
        operation Theorem 3.10 prices: worst-case exponential, which is
        precisely the cost the conjunctive representation defers from
        every ``record`` to the queries that need full knowledge.
        """
        if self._knowledge_cache is None:
            if self._conjunctive is not None:
                self._knowledge_cache = self._conjunctive.to_incomplete_tree()
            elif self._tree_type is not None:
                self._knowledge_cache = intersect_with_tree_type(
                    self._state, self._tree_type
                )
            else:
                self._knowledge_cache = self._state.normalized()
        return self._knowledge_cache

    def prepare(self) -> "Webhouse":
        """Materialize the knowledge cache now; returns self.

        Read paths (``answer_with_caveats``, prefix checks) normally
        materialize :attr:`knowledge` lazily on first use.  Under a
        readers-writer discipline (the cluster's per-shard locks) that
        lazy fill would happen under a *read* lock; it is idempotent —
        racing readers compute equal values and the losing assignment
        changes nothing observable — but wasteful.  Calling ``prepare``
        while the write lock is still held moves the materialization
        cost onto the mutation that invalidated the cache, so
        subsequent readers are pure.
        """
        self.knowledge  # noqa: B018 - property access fills the cache
        return self

    def data_tree(self) -> DataTree:
        """Everything known for sure — the data tree Td."""
        return self.knowledge.data_tree()

    def size(self) -> int:
        """Maintained representation size (conjunctive-aware)."""
        if self._conjunctive is not None:
            return self._conjunctive.size()
        return self.knowledge.size()

    def stats(self) -> Dict[str, object]:
        """Operation counts and current knowledge shape, as plain data.

        The counts are the warehouse's own, exact whether or not global
        observability is on.
        In conjunctive mode the shape is reported from the layers
        (materializing the product just for stats would defeat the
        remedy).
        """
        if self._conjunctive is not None:
            shape: Dict[str, object] = {
                "knowledge_size": self._conjunctive.size(),
                "specializations": sum(
                    len(layer.type.symbols()) for layer in self._conjunctive.layers
                ),
                "data_nodes": len(self._conjunctive.data_nodes()),
            }
        else:
            knowledge = self.knowledge
            shape = {
                "knowledge_size": knowledge.size(),
                "specializations": len(knowledge.type.symbols()),
                "data_nodes": len(knowledge.data_node_ids()),
            }
        return {
            "queries_recorded": len(self._history),
            "asks": self._asks,
            "source_completions": self._completions,
            **shape,
            "engine": self.engine,
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
        self._apply_compact(labels)
        self._journal({"type": "compact", "labels": labels})

    def _apply_compact(self, labels: Optional[List[str]]) -> None:
        """The compact transition: forget specializations, per layer in
        conjunctive mode."""
        if self._conjunctive is not None:
            self._conjunctive = ConjunctiveIncompleteTree(
                [
                    forget_specializations(layer, labels)
                    for layer in self._conjunctive.layers
                ],
                self._conjunctive.tree_type,
            )
        else:
            self._state = forget_specializations(self._state, labels)
        self._knowledge_cache = None

    # -- local answering -----------------------------------------------------------

    def can_answer(self, query: PSQuery) -> bool:
        """Corollary 3.15: is the query fully answerable locally?"""
        answerable, _answer = fully_answerable(self.knowledge, query)
        return answerable

    def answer_locally(self, query: PSQuery) -> DataTree:
        """The exact answer, from local data only.

        Raises ``ValueError`` when the knowledge does not determine it.
        """
        answerable, answer = fully_answerable(self.knowledge, query)
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

    def answer_with_caveats(self, query: PSQuery) -> Tuple[DataTree, bool]:
        """Example 3.4's reply shape: the complete sure part, plus a flag
        telling whether the true answer may contain more.

        Returns ``(sure_answer, may_have_more)``: when the flag is
        False, ``sure_answer`` is the exact answer (the query was fully
        answerable, Corollary 3.15); when True, the source holds — or
        may hold — matches the local knowledge cannot see.
        """
        answerable, sure = fully_answerable(self.knowledge, query)
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
            self._journal(
                {
                    "type": "complete",
                    "query": _codec.query_to_json(query),
                    "plan_queries": len(plan),
                }
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


__all__ = ["Webhouse"]
