"""Querying incomplete trees: the q(T) construction (Theorem 3.14).

Given an incomplete tree T and a ps-query q, build an incomplete tree
q(T) with ``rep(q(T)) = { q(T) | T ∈ rep(T) }`` — incomplete trees are a
*strong representation system* for ps-queries.

The construction is a guarded product of T's type with the query
pattern:

* For every pattern node m, compute ``Poss(m)`` / ``Cert(m)`` — the type
  symbols on which the subquery rooted at m possibly / certainly
  matches (the type-level analogue of Theorem 2.8's recursions).
* Result symbols are pairs ⟨τ, m⟩ with τ ∈ Poss(m); their rules keep
  only entries that can serve some child pattern, re-point them at the
  corresponding pairs, relax multiplicities for entries that merely
  *possibly* match (1→?, +→*), and finally force at least one match per
  child pattern by expanding possibly-empty groups into a disjunction —
  the step that makes q(T) exponential in |Σ| in the worst case, as the
  theorem states.
* Below a bar pattern the whole subtree is extracted verbatim; a
  ``⟨τ, #sub⟩`` symbol family copies T's rules unchanged.

The possibility that *no* valuation exists (answer = empty tree) is
carried by the ``allows_empty`` flag: it is set iff some realizable root
symbol is not in Cert(root), or T itself allows the empty tree.
"""

from __future__ import annotations

from itertools import product as iter_product
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..core.conditions import Cond
from ..core.multiplicity import Atom, Disjunction, Mult
from ..core.query import PSQuery, Path
from ..core.tree import DataTree, NodeId
from ..incomplete.conditional import ConditionalTreeType
from ..incomplete.incomplete_tree import DataNode, IncompleteTree
from ..obs.spans import span as _span
from ..obs.state import STATE as _OBS

#: Marker path for the verbatim below-bar copy family.
_SUB = "#sub"


def _pair_name(symbol: str, tag: object) -> str:
    return f"{symbol}@{tag}"


def _path_tag(path: Path) -> str:
    return ".".join(map(str, path)) if path else "ε"


def type_possible_certain(
    incomplete: IncompleteTree, query: PSQuery
) -> Tuple[Dict[Path, FrozenSet[str]], Dict[Path, FrozenSet[str]]]:
    """``Poss(m)``/``Cert(m)`` per pattern node, over a *normalized* type.

    τ ∈ Poss(m): some tree rooted at a τ-typed node matches the
    subquery at m.  τ ∈ Cert(m): every such tree matches.
    """
    tau = incomplete.type.normalized()
    node_ids = incomplete.data_node_ids()

    def eff_label(symbol: str) -> str:
        target = tau.sigma(symbol)
        return incomplete.data_label(target) if target in node_ids else target

    with _span("query_incomplete.poss_cert") as sp:
        poss, cert = _poss_cert_sets(tau, query, eff_label)
        if sp is not None:
            sp.attrs.update(
                patterns=len(poss),
                poss_root=len(poss.get((), frozenset())),
                cert_root=len(cert.get((), frozenset())),
            )
    return poss, cert


def _poss_cert_sets(tau, query: PSQuery, eff_label) -> Tuple[
    Dict[Path, FrozenSet[str]], Dict[Path, FrozenSet[str]]
]:
    poss: Dict[Path, FrozenSet[str]] = {}
    cert: Dict[Path, FrozenSet[str]] = {}
    for path in sorted(query.paths(), key=len, reverse=True):
        qnode = query.node_at(path)
        p_here: Set[str] = set()
        c_here: Set[str] = set()
        for symbol in tau.symbols():
            if eff_label(symbol) != qnode.label:
                continue
            cond = tau.cond(symbol)
            if (cond & qnode.cond).satisfiable() and _possibly_matches(
                tau, symbol, path, qnode, poss
            ):
                p_here.add(symbol)
                if cond.implies(qnode.cond) and _certainly_matches(
                    tau, symbol, path, qnode, cert
                ):
                    c_here.add(symbol)
        poss[path] = frozenset(p_here)
        cert[path] = frozenset(c_here)
    return poss, cert


def _possibly_matches(tau, symbol, path, qnode, poss) -> bool:
    if not qnode.children:
        return True
    for atom in tau.mu(symbol):
        if all(
            any(entry in poss[path + (i,)] for entry in atom.symbols)
            for i in range(len(qnode.children))
        ):
            return True
    return False


def _certainly_matches(tau, symbol, path, qnode, cert) -> bool:
    if not qnode.children:
        return True
    for atom in tau.mu(symbol):
        for i in range(len(qnode.children)):
            child_path = path + (i,)
            if not any(
                mult.required and entry in cert[child_path]
                for entry, mult in atom.items()
            ):
                return False
    return True


def query_incomplete(
    incomplete: IncompleteTree, query: PSQuery
) -> IncompleteTree:
    """Theorem 3.14: the incomplete tree describing all possible answers."""
    with _span("query_incomplete") as sp:
        if incomplete.is_empty():
            return IncompleteTree.nothing(allows_empty=False)
        tau = incomplete.type.normalized()
        node_ids = incomplete.data_node_ids()
        poss, cert = type_possible_certain(incomplete, query)

        with _span("query_incomplete.build") as sp_build:
            builder = _AnswerBuilder(incomplete, tau, query, poss, cert)
            result = builder.run()
            if sp_build is not None:
                sp_build.attrs["symbols_generated"] = len(builder._sigma)
        if _OBS.enabled:
            generated = len(builder._sigma)
            metrics = _OBS.metrics
            metrics.inc("query_incomplete.calls")
            metrics.inc("query_incomplete.symbols_generated", generated)
            metrics.observe("query_incomplete.result_size", result.size())
            if sp is not None:
                sp.attrs.update(
                    input_symbols=len(tau.symbols()),
                    data_nodes=len(node_ids),
                    symbols_generated=generated,
                    result_size=result.size(),
                    allows_empty=result.allows_empty,
                )
        return result


class _AnswerBuilder:
    def __init__(self, incomplete, tau, query, poss, cert):
        self._incomplete = incomplete
        self._tau = tau
        self._query = query
        self._poss = poss
        self._cert = cert
        self._node_ids = incomplete.data_node_ids()
        self._mu: Dict[str, Disjunction] = {}
        self._cond: Dict[str, Cond] = {}
        self._sigma: Dict[str, str] = {}
        self._pending: List[Tuple[str, object]] = []
        self._seen: Set[Tuple[str, object]] = set()

    def _enqueue(self, symbol: str, tag: object) -> str:
        if (symbol, tag) not in self._seen:
            self._seen.add((symbol, tag))
            self._pending.append((symbol, tag))
        return _pair_name(symbol, _path_tag(tag) if isinstance(tag, tuple) else tag)

    def run(self) -> IncompleteTree:
        tau, query = self._tau, self._query
        root_poss = self._poss[()]
        roots = [
            self._enqueue(symbol, ())
            for symbol in sorted(tau.roots)
            if symbol in root_poss
        ]
        while self._pending:
            symbol, tag = self._pending.pop()
            name = _pair_name(
                symbol, _path_tag(tag) if isinstance(tag, tuple) else tag
            )
            self._sigma[name] = tau.sigma(symbol)
            if tag == _SUB:
                self._cond[name] = tau.cond(symbol)
                self._mu[name] = tau.mu(symbol).map_atoms(self._copy_atom)
                continue
            path: Path = tag  # type: ignore[assignment]
            qnode = query.node_at(path)
            self._cond[name] = tau.cond(symbol) & qnode.cond
            if qnode.extract:
                self._mu[name] = tau.mu(symbol).map_atoms(self._copy_atom)
            elif not qnode.children:
                # matched leaf pattern: children are not extracted at all
                self._mu[name] = Disjunction.leaf()
            else:
                atoms: List[Atom] = []
                for atom in tau.mu(symbol):
                    atoms.extend(self._project_atom(atom, path, qnode))
                self._mu[name] = Disjunction(atoms)

        allows_empty = self._incomplete.allows_empty or any(
            symbol not in self._cert[()] for symbol in tau.roots
        )
        data_nodes = {
            node_id: DataNode(
                self._incomplete.data_label(node_id),
                self._incomplete.data_value(node_id),
            )
            for node_id in self._node_ids
        }
        new_type = ConditionalTreeType(roots, self._mu, self._cond, self._sigma)
        result = IncompleteTree(data_nodes, new_type, allows_empty=allows_empty)
        return result.normalized()

    def _copy_atom(self, atom: Atom) -> Atom:
        return Atom(
            [(self._enqueue(entry, _SUB), mult) for entry, mult in atom.items()]
        )

    def _project_atom(
        self, atom: Atom, path: Path, qnode
    ) -> List[Atom]:
        """Project a source atom onto the answer under pattern ``path``."""
        child_count = len(qnode.children)
        # each entry can serve at most one child pattern (sibling labels
        # are distinct); find it via Poss
        groups: List[List[Tuple[str, Mult]]] = [[] for _ in range(child_count)]
        for entry, mult in atom.items():
            for i in range(child_count):
                if entry in self._poss[path + (i,)]:
                    groups[i].append((entry, mult))
                    break
        if any(not group for group in groups):
            return []  # some child pattern cannot be matched under this atom

    # build per-group variants: mapped entries with relaxed multiplicities,
    # then force at least one present match per group
        per_group_variants: List[List[List[Tuple[str, Mult]]]] = []
        for i, group in enumerate(groups):
            child_path = path + (i,)
            mapped: List[Tuple[str, Mult]] = []
            guaranteed = False
            for entry, mult in group:
                if entry in self._cert[child_path]:
                    new_mult = mult
                    if mult.required:
                        guaranteed = True
                else:
                    new_mult = mult.relaxed()
                mapped.append(
                    (self._enqueue(entry, child_path), new_mult)
                )
            if guaranteed:
                per_group_variants.append([mapped])
            else:
                variants = []
                for j in range(len(mapped)):
                    variant = [
                        (name, m.required_version() if k == j else m)
                        for k, (name, m) in enumerate(mapped)
                    ]
                    variants.append(variant)
                per_group_variants.append(variants)

        results: List[Atom] = []
        for choice in iter_product(*per_group_variants):
            combined: List[Tuple[str, Mult]] = []
            for variant in choice:
                combined.extend(variant)
            results.append(Atom(combined))
        return results
