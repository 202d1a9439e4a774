"""Conditional tree types with specialization (paper Section 2).

A *simple conditional tree type* extends tree types with disjunctions of
multiplicity atoms and a condition per symbol.  A *conditional tree
type* adds a specialization mapping σ from a specialized alphabet Σ' to
the element alphabet Σ (for incomplete trees, to Σ ∪ N where N are node
ids): several specialized symbols may describe the same element name in
different contexts — the analogue of states in an unranked tree
automaton.

This module provides:

* :class:`ConditionalTreeType` — the representation itself;
* emptiness in PTIME (Lemma 2.5) via a productivity fixpoint;
* useful-symbol computation (Corollary 2.6) and :meth:`normalized`,
  which removes dead symbols/atoms so downstream algorithms can assume
  every remaining symbol is realizable;
* membership checking ``tree ∈ rep(τ)`` via bottom-up typing with
  bounded child assignment (:func:`repro.core.matching.feasible_assignment`).

Symbols are plain strings.  σ targets are also strings; whether a target
is an element label or a data-node id is decided by the caller (an
:class:`~repro.incomplete.incomplete_tree.IncompleteTree` supplies its
node-id set).
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from ..core.conditions import Cond
from ..core.matching import feasible_assignment
from ..core.multiplicity import Atom, Disjunction, Mult
from ..core.tree import DataTree, NodeId
from ..obs.state import STATE as _OBS
from ..perf.memo import MISS as _MISS
from ..perf.state import STATE as _PERF

#: ``candidates(tree, node_id)`` -> symbols that may type this node.
CandidatesFn = Callable[[DataTree, NodeId], Iterable[str]]


class ConditionalTreeType:
    """A conditional tree type ``(Σ', R, µ, cond, σ)``.

    Immutable.  ``mu`` maps every symbol to a :class:`Disjunction` of
    multiplicity atoms over symbols; ``cond`` to a condition on the data
    value; ``sigma`` to the specialized target (element label or node id).
    A simple conditional tree type is the special case where σ is the
    identity.
    """

    __slots__ = ("_roots", "_mu", "_cond", "_sigma", "_fingerprint")

    def __init__(
        self,
        roots: Iterable[str],
        mu: Mapping[str, Disjunction],
        cond: Mapping[str, Cond],
        sigma: Mapping[str, str],
    ):
        intern = _PERF.pool if _PERF.enabled else None
        self._sigma: Dict[str, str] = (
            {intern.symbol(s): intern.symbol(t) for s, t in sigma.items()}
            if intern is not None
            else dict(sigma)
        )
        symbols = set(self._sigma)
        self._roots: FrozenSet[str] = frozenset(roots)
        if not self._roots <= symbols:
            unknown = sorted(self._roots - symbols)
            raise ValueError(f"unknown root symbols: {unknown}")
        self._mu: Dict[str, Disjunction] = {}
        self._cond: Dict[str, Cond] = {}
        for symbol in symbols:
            disjunction = mu.get(symbol, Disjunction.leaf())
            for atom in disjunction:
                for child in atom.symbols:
                    if child not in symbols:
                        raise ValueError(
                            f"rule for {symbol!r} mentions unknown symbol {child!r}"
                        )
            if intern is not None:
                disjunction = intern.disjunction(disjunction)
            self._mu[symbol] = disjunction
            condition = cond.get(symbol, Cond.true())
            self._cond[symbol] = (
                intern.cond(condition) if intern is not None else condition
            )
        self._fingerprint: Optional[tuple] = None

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def simple(
        roots: Iterable[str],
        mu: Mapping[str, Disjunction],
        cond: Optional[Mapping[str, Cond]] = None,
    ) -> "ConditionalTreeType":
        """A simple conditional tree type (σ = identity)."""
        symbols = set(mu)
        for disjunction in mu.values():
            symbols.update(disjunction.symbols())
        symbols.update(roots)
        return ConditionalTreeType(
            roots, mu, cond or {}, {symbol: symbol for symbol in symbols}
        )

    @staticmethod
    def from_tree_type(tree_type) -> "ConditionalTreeType":
        """Lift a plain :class:`~repro.core.treetype.TreeType` (σ = id,
        cond = true, one atom per symbol)."""
        mu = {
            label: Disjunction.single(tree_type.atom(label))
            for label in tree_type.alphabet
        }
        return ConditionalTreeType.simple(tree_type.roots, mu)

    # -- accessors ---------------------------------------------------------------

    @property
    def roots(self) -> FrozenSet[str]:
        return self._roots

    def symbols(self) -> FrozenSet[str]:
        return frozenset(self._sigma)

    def mu(self, symbol: str) -> Disjunction:
        return self._mu[symbol]

    def cond(self, symbol: str) -> Cond:
        return self._cond[symbol]

    def sigma(self, symbol: str) -> str:
        return self._sigma[symbol]

    def sigma_map(self) -> Dict[str, str]:
        return dict(self._sigma)

    def symbols_for_target(self, target: str) -> Tuple[str, ...]:
        """All symbols specializing the given label / node id."""
        return tuple(s for s, t in sorted(self._sigma.items()) if t == target)

    def with_roots(self, roots: Iterable[str]) -> "ConditionalTreeType":
        """Same type with a different root set (the paper's ``T_a``)."""
        return ConditionalTreeType(roots, self._mu, self._cond, self._sigma)

    def size(self) -> int:
        """Representation size: symbols plus total atom entries.

        This is the measurement used by the blowup experiments (E6).
        """
        return sum(1 + self._mu[s].size() for s in self._sigma)

    def cache_key(self) -> tuple:
        """A structural fingerprint usable as a memo-table key.

        Covers everything :meth:`__eq__` inspects (roots, µ, cond, σ in
        sorted symbol order), so equal fingerprints imply equal types.
        Computed once and stored — types are immutable.
        """
        key = self._fingerprint
        if key is None:
            key = (
                self._roots,
                tuple(
                    (s, self._mu[s], self._cond[s], self._sigma[s])
                    for s in sorted(self._sigma)
                ),
            )
            self._fingerprint = key
        return key

    # -- emptiness / usefulness (Lemma 2.5, Corollary 2.6) -------------------------

    def productive_symbols(self) -> FrozenSet[str]:
        """Symbols that admit at least one finite tree.

        A symbol is productive iff its condition is satisfiable and some
        atom of its disjunction has all *required* (multiplicity 1/+)
        entries productive.  Computed as a least fixpoint — the CFG
        emptiness argument behind Lemma 2.5.
        """
        cache = _PERF.caches["emptiness"] if _PERF.enabled else None
        if cache is not None:
            key = ("productive", self.cache_key())
            cached = cache.get(key)
            if cached is not _MISS:
                return cached
        productive: Set[str] = set()
        rounds = 0
        changed = True
        while changed:
            rounds += 1
            changed = False
            for symbol in self._sigma:
                if symbol in productive:
                    continue
                if not self._cond[symbol].satisfiable():
                    continue
                for atom in self._mu[symbol]:
                    if all(req in productive for req in atom.required_symbols()):
                        productive.add(symbol)
                        changed = True
                        break
        if _OBS.enabled:
            metrics = _OBS.metrics
            metrics.inc("emptiness.productivity_calls")
            metrics.observe("emptiness.fixpoint_rounds", rounds)
        result = frozenset(productive)
        if cache is not None:
            cache.put(key, result)
        return result

    def is_empty(self) -> bool:
        """Emptiness of rep(τ) — PTIME (Lemma 2.5)."""
        if _OBS.enabled:
            _OBS.metrics.inc("emptiness.is_empty_calls")
        return not (self._roots & self.productive_symbols())

    def useful_symbols(self) -> FrozenSet[str]:
        """Symbols occurring in at least one tree of rep(τ) (Cor 2.6).

        A symbol is useful iff it is productive and reachable from a
        productive root through realizable atoms.
        """
        productive = self.productive_symbols()
        useful: Set[str] = set(self._roots & productive)
        frontier = list(useful)
        while frontier:
            symbol = frontier.pop()
            for atom in self._mu[symbol]:
                if not all(req in productive for req in atom.required_symbols()):
                    continue  # unrealizable atom
                for child in atom.symbols:
                    if child in productive and child not in useful:
                        useful.add(child)
                        frontier.append(child)
        return frozenset(useful)

    def normalized(self) -> "ConditionalTreeType":
        """Remove dead symbols and unrealizable atoms.

        In the result every symbol is useful, every atom realizable, and
        optional entries for dead symbols are dropped.  rep() is
        preserved.  Idempotent.
        """
        cache = _PERF.caches["normalize"] if _PERF.enabled else None
        if cache is not None:
            key = self.cache_key()
            cached = cache.get(key)
            if cached is not _MISS:
                return cached
        useful = self.useful_symbols()

        def clean(atom: Atom) -> Optional[Atom]:
            entries = []
            for child, mult in atom.items():
                if child in useful:
                    entries.append((child, mult))
                elif mult.required:
                    return None  # atom unrealizable
                # optional dead entry: drop silently
            return Atom(entries)

        mu = {
            symbol: self._mu[symbol].map_atoms(clean)
            for symbol in useful
        }
        cond = {symbol: self._cond[symbol] for symbol in useful}
        sigma = {symbol: self._sigma[symbol] for symbol in useful}
        result = ConditionalTreeType(self._roots & useful, mu, cond, sigma)
        if cache is not None:
            cache.put(key, result)
        return result

    # -- membership ------------------------------------------------------------------

    def default_candidates(self) -> CandidatesFn:
        """Candidates by element label (for simple conditional types)."""
        by_target: Dict[str, List[str]] = {}
        for symbol, target in self._sigma.items():
            by_target.setdefault(target, []).append(symbol)

        def candidates(tree: DataTree, node_id: NodeId) -> Iterable[str]:
            return by_target.get(tree.label(node_id), ())

        return candidates

    def typings(
        self, tree: DataTree, candidates: Optional[CandidatesFn] = None
    ) -> Dict[NodeId, FrozenSet[str]]:
        """Bottom-up type sets: for each node, the symbols that can type
        its subtree."""
        if candidates is None:
            candidates = self.default_candidates()
        result: Dict[NodeId, FrozenSet[str]] = {}
        order = list(tree.node_ids())
        for node_id in reversed(order):  # children before parents (pre-order reversed)
            value = tree.value(node_id)
            kids = tree.children(node_id)
            possible: Set[str] = set()
            for symbol in candidates(tree, node_id):
                if not self._cond[symbol].accepts(value):
                    continue
                if self._children_fit(symbol, kids, result):
                    possible.add(symbol)
            result[node_id] = frozenset(possible)
        return result

    def _children_fit(
        self,
        symbol: str,
        children: Tuple[NodeId, ...],
        typesets: Mapping[NodeId, FrozenSet[str]],
    ) -> bool:
        for atom in self._mu[symbol]:
            if not children and not atom.required_symbols():
                return True
            slots = {
                entry: (mult.min_count, mult.max_count)
                for entry, mult in atom.items()
            }
            allowed = {
                child: [entry for entry in slots if entry in typesets[child]]
                for child in children
            }
            if feasible_assignment(list(children), slots, allowed) is not None:
                return True
        return False

    def contains(
        self, tree: DataTree, candidates: Optional[CandidatesFn] = None
    ) -> bool:
        """``tree ∈ rep(τ)`` (empty trees are never in rep of a type)."""
        if tree.is_empty():
            return False
        typesets = self.typings(tree, candidates)
        return bool(typesets[tree.root] & self._roots)

    # -- rewriting --------------------------------------------------------------------

    def renamed(self, mapping: Mapping[str, str]) -> "ConditionalTreeType":
        """Rename symbols injectively."""
        values = list(mapping.values())
        if len(values) != len(set(values)):
            raise ValueError("symbol renaming must be injective")

        def r(symbol: str) -> str:
            return mapping.get(symbol, symbol)

        return ConditionalTreeType(
            [r(s) for s in self._roots],
            {r(s): d.map_atoms(lambda a: a.rename(mapping)) for s, d in self._mu.items()},
            {r(s): c for s, c in self._cond.items()},
            {r(s): t for s, t in self._sigma.items()},
        )

    # -- rendering --------------------------------------------------------------------

    def pretty(self) -> str:
        """Paper-style textual rendering of the rules."""
        lines = ["roots: " + " ".join(sorted(self._roots))]
        for symbol in sorted(self._sigma):
            target = self._sigma[symbol]
            spec = f" [σ→{target}]" if target != symbol else ""
            cond = self._cond[symbol]
            cond_text = "" if cond.is_true() else f"  cond: {cond!r}"
            lines.append(f"{symbol}{spec} -> {self._mu[symbol]!r}{cond_text}")
        return "\n".join(lines)

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if not isinstance(other, ConditionalTreeType):
            return NotImplemented
        return (
            self._roots == other._roots
            and self._mu == other._mu
            and self._cond == other._cond
            and self._sigma == other._sigma
        )

    def __hash__(self) -> int:
        return hash((self._roots, tuple(sorted(self._sigma.items()))))

    def __repr__(self) -> str:
        return (
            f"ConditionalTreeType({len(self._sigma)} symbols, "
            f"roots={sorted(self._roots)})"
        )
