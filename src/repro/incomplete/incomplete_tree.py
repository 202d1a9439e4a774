"""Incomplete trees (paper Definition 2.7).

An incomplete tree ``(N, λ, ν, τ)`` combines

* a finite set N of *data nodes* with fixed labels λ and values ν — the
  part of the input document already retrieved, and
* a conditional tree type τ over N ∪ Σ describing how full documents may
  extend the known part.

Requirement (4) of the definition — in every represented tree each data
node occurs at most once, and the parent of a data node is a data node —
is enforced here by a structural validator (:meth:`IncompleteTree.validate`):
node-id symbols occur with multiplicity 1 or ?, appear only inside rules
of other node-id symbols (or at the root), and each node id has a unique
anchor parent.  All representations produced by this library satisfy the
structural form.

Example 2.2 shows the empty tree must be representable as an answer; we
carry an explicit ``allows_empty`` flag instead of the paper's
``cond = false`` trick.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from ..core.conditions import Cond
from ..core.multiplicity import Atom, Disjunction, Mult
from ..core.tree import DataTree, NodeId, NodeSpec, node
from ..core.values import Value, ValueInput, as_value, value_repr, values_equal
from .conditional import ConditionalTreeType


@dataclass(frozen=True)
class DataNode:
    """λ and ν of one data node."""

    label: str
    value: Value


class IncompleteTree:
    """An incomplete tree over Σ: ``(N, λ, ν, τ)`` plus ``allows_empty``."""

    __slots__ = ("_nodes", "_type", "_allows_empty", "_data_tree")

    def __init__(
        self,
        nodes: Mapping[NodeId, DataNode],
        tree_type: ConditionalTreeType,
        allows_empty: bool = False,
    ):
        self._nodes: Dict[NodeId, DataNode] = dict(nodes)
        self._type = tree_type
        self._allows_empty = bool(allows_empty)
        self._data_tree: Optional[DataTree] = None
        for symbol in tree_type.symbols():
            target = tree_type.sigma(symbol)
            if target in self._nodes:
                continue
            # target must be an element label: it must not look like a
            # data node we do not know about -- nothing to check here,
            # labels and ids share the string namespace by design.

    # -- constructors ------------------------------------------------------------

    @staticmethod
    def from_type(tree_type: ConditionalTreeType) -> "IncompleteTree":
        """No data nodes at all — knowledge is just the type."""
        return IncompleteTree({}, tree_type)

    @staticmethod
    def nothing(allows_empty: bool = True) -> "IncompleteTree":
        """Represents only the empty tree (or nothing at all)."""
        return IncompleteTree(
            {}, ConditionalTreeType.simple([], {}), allows_empty
        )

    # -- accessors ------------------------------------------------------------------

    @property
    def type(self) -> ConditionalTreeType:
        return self._type

    @property
    def allows_empty(self) -> bool:
        return self._allows_empty

    def data_node_ids(self) -> FrozenSet[NodeId]:
        return frozenset(self._nodes)

    def data_label(self, node_id: NodeId) -> str:
        return self._nodes[node_id].label

    def data_value(self, node_id: NodeId) -> Value:
        return self._nodes[node_id].value

    def data_nodes(self) -> Dict[NodeId, DataNode]:
        return dict(self._nodes)

    def size(self) -> int:
        """Representation size (data nodes + type size) for E6."""
        return len(self._nodes) + self._type.size()

    def with_allows_empty(self, allows_empty: bool) -> "IncompleteTree":
        return IncompleteTree(self._nodes, self._type, allows_empty)

    def normalized(self) -> "IncompleteTree":
        """Normalize the underlying type (drop dead symbols/atoms)."""
        return IncompleteTree(self._nodes, self._type.normalized(), self._allows_empty)

    # -- validation (requirement (4) of Definition 2.7) ----------------------------

    def validate(self) -> List[str]:
        """Structural checks; empty list when well-formed."""
        problems: List[str] = []
        tau = self._type
        node_ids = set(self._nodes)
        anchor_parent: Dict[NodeId, Set[Optional[NodeId]]] = {}
        for symbol in tau.symbols():
            owner = tau.sigma(symbol)
            owner_is_node = owner in node_ids
            if owner_is_node:
                expected = self._nodes[owner].label
                # node-id symbols must pin the data value
                forced = tau.cond(symbol).forced_value()
                if forced is None or not values_equal(forced, self._nodes[owner].value):
                    problems.append(
                        f"symbol {symbol!r} specializes node {owner!r} but its "
                        f"condition does not force value {value_repr(self._nodes[owner].value)}"
                    )
            for atom in tau.mu(symbol):
                for child, mult in atom.items():
                    child_target = tau.sigma(child)
                    if child_target in node_ids:
                        if mult.max_count != 1:
                            problems.append(
                                f"node-id symbol {child!r} (node {child_target!r}) "
                                f"occurs with multiplicity {mult.value!r} in rule of {symbol!r}"
                            )
                        if not owner_is_node:
                            problems.append(
                                f"node-id symbol {child!r} appears under non-data "
                                f"symbol {symbol!r} (violates requirement 4)"
                            )
                        else:
                            anchor_parent.setdefault(child_target, set()).add(owner)
        for symbol in tau.roots:
            target = tau.sigma(symbol)
            if target in node_ids:
                anchor_parent.setdefault(target, set()).add(None)
        for node_id, parents in anchor_parent.items():
            if len(parents) > 1:
                problems.append(
                    f"data node {node_id!r} is anchored under several parents: "
                    f"{sorted(str(p) for p in parents)}"
                )
        return problems

    # -- semantics --------------------------------------------------------------------

    def _candidates(self):
        tau = self._type
        node_ids = set(self._nodes)
        by_label: Dict[str, List[str]] = {}
        by_node: Dict[str, List[str]] = {}
        for symbol in tau.symbols():
            target = tau.sigma(symbol)
            if target in node_ids:
                by_node.setdefault(target, []).append(symbol)
            else:
                by_label.setdefault(target, []).append(symbol)

        def candidates(tree: DataTree, node_id: NodeId) -> Iterable[str]:
            if node_id in node_ids:
                info = self._nodes[node_id]
                if tree.label(node_id) != info.label or not values_equal(
                    tree.value(node_id), info.value
                ):
                    return ()
                return by_node.get(node_id, ())
            return by_label.get(tree.label(node_id), ())

        return candidates

    def contains(self, tree: DataTree) -> bool:
        """``tree ∈ rep(T)``.

        Data-node ids appearing in ``tree`` must occupy their reserved
        positions (label, value and typing by a node-id symbol); other
        nodes must use fresh ids.
        """
        if tree.is_empty():
            return self._allows_empty
        return self._type.contains(tree, self._candidates())

    def is_empty(self) -> bool:
        """``rep(T) = ∅``? PTIME, as for conditional tree types."""
        if self._allows_empty:
            return False
        return self._type.is_empty()

    # -- the data tree Td --------------------------------------------------------------

    def data_tree(self) -> DataTree:
        """The tree formed by the data nodes (paper's ``Td``).

        Parent edges are recovered from the anchoring structure of τ.
        For reachable incomplete trees (produced by Refine) this is a
        prefix of every represented tree.  Kept once built: the tree is
        immutable.
        """
        tree = self._data_tree
        if tree is None:
            tree = self._data_tree = self._build_data_tree()
        return tree

    def _build_data_tree(self) -> DataTree:
        tau = self._type
        node_ids = set(self._nodes)
        parent: Dict[NodeId, Optional[NodeId]] = {}
        for symbol in tau.symbols():
            owner = tau.sigma(symbol)
            if owner not in node_ids:
                continue
            for atom in tau.mu(symbol):
                for child, _mult in atom.items():
                    child_target = tau.sigma(child)
                    if child_target in node_ids:
                        parent.setdefault(child_target, owner)
        root: Optional[NodeId] = None
        for symbol in tau.roots:
            target = tau.sigma(symbol)
            if target in node_ids:
                root = target
                parent.setdefault(target, None)
        if root is None:
            return DataTree.empty()

        children: Dict[NodeId, List[NodeId]] = {}
        for child, par in parent.items():
            if par is not None:
                children.setdefault(par, []).append(child)

        def build(node_id: NodeId) -> NodeSpec:
            info = self._nodes[node_id]
            kids = [build(child) for child in sorted(children.get(node_id, []))]
            return node(node_id, info.label, info.value, kids)

        return DataTree.build(build(root))

    # -- unambiguity (Definition 3.1) -----------------------------------------------

    def is_unambiguous(self, strict: bool = False) -> bool:
        """Definition 3.1.

        By default only conditions (1) and (2) are checked — these are
        what the product construction of Lemma 3.3 relies on.  Condition
        (3) (every label with several specializations is anchored by a
        data node) is violated by the paper's *own* Lemma 3.2 output
        (the viol/fail pair); our Theorem 3.5 implementation handles its
        absence by disjunct expansion, so it is only reported in
        ``strict`` mode.
        """
        return not self.ambiguity_reasons(strict=strict)

    def ambiguity_reasons(self, strict: bool = False) -> List[str]:
        """Why Definition 3.1 fails (empty when unambiguous)."""
        reasons: List[str] = []
        tau = self._type
        node_ids = set(self._nodes)
        for symbol in tau.symbols():
            for atom in tau.mu(symbol):
                star_by_label: Dict[str, List[str]] = {}
                anchored_labels: Set[str] = set()
                for child, mult in atom.items():
                    target = tau.sigma(child)
                    if target in node_ids:
                        if mult is not Mult.ONE:
                            reasons.append(
                                f"(1) node-id entry {child!r} in rule of {symbol!r} "
                                f"has multiplicity {mult.value!r}, expected 1"
                            )
                        anchored_labels.add(self._nodes[target].label)
                    else:
                        if mult is not Mult.STAR:
                            reasons.append(
                                f"(1) missing-information entry {child!r} in rule of "
                                f"{symbol!r} has multiplicity {mult.value!r}, expected *"
                            )
                        star_by_label.setdefault(target, []).append(child)
                for label, group in star_by_label.items():
                    if len(group) < 2:
                        continue
                    for i in range(len(group)):
                        for j in range(i + 1, len(group)):
                            both = tau.cond(group[i]) & tau.cond(group[j])
                            if both.satisfiable():
                                reasons.append(
                                    f"(2) entries {group[i]!r} and {group[j]!r} of "
                                    f"{symbol!r} share label {label!r} with "
                                    f"overlapping conditions"
                                )
                    if strict and label not in anchored_labels:
                        reasons.append(
                            f"(3) label {label!r} has multiple specializations in "
                            f"rule of {symbol!r} but no data-node entry with that label"
                        )
        return reasons

    # -- rendering ----------------------------------------------------------------------

    def pretty(self) -> str:
        lines = []
        if self._nodes:
            lines.append("data nodes:")
            for node_id in sorted(self._nodes):
                info = self._nodes[node_id]
                lines.append(
                    f"  {node_id}: {info.label} = {value_repr(info.value)}"
                )
        if self._allows_empty:
            lines.append("(the empty tree is allowed)")
        lines.append(self._type.pretty())
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"IncompleteTree({len(self._nodes)} data nodes, "
            f"{len(self._type.symbols())} type symbols"
            f"{', +empty' if self._allows_empty else ''})"
        )


def data_nodes_from_tree(tree: DataTree) -> Dict[NodeId, DataNode]:
    """Extract (λ, ν) for every node of a data tree."""
    return {
        node_id: DataNode(tree.label(node_id), tree.value(node_id))
        for node_id in tree.node_ids()
    }
