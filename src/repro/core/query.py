"""Prefix-selection queries (ps-queries, paper Section 2).

A ps-query is a tree pattern: every pattern node carries an element name
(possibly adorned with a bar, written here as ``extract=True``) and a
selection condition on data values.  Internal pattern nodes must carry
plain labels, and no two sibling pattern nodes may use the same element
name (with or without bar).

Semantics (the paper's valuations): a valuation maps the *whole* pattern
into the input tree — root to root, edges to edges, labels and
conditions respected.  The answer ``q(T)`` is the prefix of ``T``
consisting of every node in the image of *some* valuation, plus the full
subtrees below matched bar nodes.  If no valuation exists the answer is
the empty tree.

Because each branch of the pattern can be matched independently, a tree
node ``n`` is in the image of some valuation at pattern node ``m`` iff
the subpattern rooted at ``m`` fully matches at ``n`` and, recursively,
``n``'s parent is in the image at ``m``'s parent.  Evaluation runs in
time O(|q|·|T|·branching).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .conditions import Cond
from .tree import DataTree, NodeId

#: A pattern node is addressed by its path of child indices from the root.
Path = Tuple[int, ...]


@dataclass(frozen=True)
class QueryNode:
    """One node of a ps-query pattern."""

    label: str
    cond: Cond = field(default_factory=Cond.true)
    extract: bool = False  # the paper's bar adornment: extract whole subtree
    children: Tuple["QueryNode", ...] = ()

    def __post_init__(self) -> None:
        if self.extract and self.children:
            raise ValueError("bar-labeled pattern nodes must be leaves")
        seen: Set[str] = set()
        for child in self.children:
            if child.label in seen:
                raise ValueError(
                    f"sibling pattern nodes share label {child.label!r} "
                    "(ps-queries forbid this; see extensions.branching)"
                )
            seen.add(child.label)


def pattern(
    label: str,
    cond: Optional[Cond] = None,
    children: Sequence[QueryNode] = (),
) -> QueryNode:
    """Build a plain pattern node."""
    return QueryNode(label, cond if cond is not None else Cond.true(), False, tuple(children))


def subtree(label: str, cond: Optional[Cond] = None) -> QueryNode:
    """Build a bar-labeled leaf: matched node's whole subtree is extracted."""
    return QueryNode(label, cond if cond is not None else Cond.true(), True, ())


class PSQuery:
    """An immutable prefix-selection query."""

    __slots__ = ("_root", "_paths", "_hash")

    def __init__(self, root: QueryNode):
        self._root = root
        self._paths: Dict[Path, QueryNode] = {}
        self._index(root, ())
        self._hash: Optional[int] = None

    def _index(self, node: QueryNode, path: Path) -> None:
        self._paths[path] = node
        for i, child in enumerate(node.children):
            self._index(child, path + (i,))

    # -- structure ----------------------------------------------------------

    @property
    def root(self) -> QueryNode:
        return self._root

    def paths(self) -> Iterator[Path]:
        """All pattern-node paths, shallow first."""
        return iter(sorted(self._paths, key=len))

    def node_at(self, path: Path) -> QueryNode:
        return self._paths[path]

    def parent_path(self, path: Path) -> Optional[Path]:
        return path[:-1] if path else None

    def subquery(self, path: Path) -> "PSQuery":
        """The ps-query rooted at the given pattern node."""
        return PSQuery(self._paths[path])

    def size(self) -> int:
        return len(self._paths)

    def depth(self) -> int:
        return 1 + max(len(path) for path in self._paths)

    def labels(self) -> Set[str]:
        return {node.label for node in self._paths.values()}

    def is_linear(self) -> bool:
        """Linear ps-queries (Lemma 3.12): a single path."""
        return all(len(node.children) <= 1 for node in self._paths.values())

    def has_bars(self) -> bool:
        return any(node.extract for node in self._paths.values())

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, tree: DataTree) -> DataTree:
        """``q(T)`` — the answer prefix (empty tree when no valuation)."""
        answer, _witness = self.evaluate_with_witness(tree)
        return answer

    def evaluate_with_witness(
        self, tree: DataTree
    ) -> Tuple[DataTree, Dict[NodeId, Path]]:
        """Evaluate and also report which pattern node matched each answer
        node.

        Descendants of bar-matched nodes are mapped to the bar node's
        path.  Used by the Refine machinery (Lemma 3.2) to reconstruct the
        answer/pattern correspondence.
        """
        if tree.is_empty():
            return DataTree.empty(), {}

        memo: Dict[Tuple[Path, NodeId], bool] = {}

        def full_match(path: Path, node_id: NodeId) -> bool:
            key = (path, node_id)
            if key in memo:
                return memo[key]
            qnode = self._paths[path]
            ok = qnode.label == tree.label(node_id) and qnode.cond.accepts(
                tree.value(node_id)
            )
            if ok:
                for i in range(len(qnode.children)):
                    child_path = path + (i,)
                    if not any(
                        full_match(child_path, child)
                        for child in tree.children(node_id)
                    ):
                        ok = False
                        break
            memo[key] = ok
            return ok

        if not full_match((), tree.root):
            return DataTree.empty(), {}

        witness: Dict[NodeId, Path] = {tree.root: ()}
        keep: Set[NodeId] = {tree.root}
        frontier: List[Tuple[Path, NodeId]] = [((), tree.root)]
        while frontier:
            path, node_id = frontier.pop()
            qnode = self._paths[path]
            if qnode.extract:
                for descendant in tree.descendants(node_id):
                    keep.add(descendant)
                    witness.setdefault(descendant, path)
                continue
            for i in range(len(qnode.children)):
                child_path = path + (i,)
                for child in tree.children(node_id):
                    if full_match(child_path, child):
                        keep.add(child)
                        witness.setdefault(child, child_path)
                        frontier.append((child_path, child))
        return tree.restrict(keep), witness

    def matches(self, tree: DataTree) -> bool:
        """Does at least one valuation exist (non-empty answer)?"""
        return not self.evaluate(tree).is_empty()

    # -- rendering ----------------------------------------------------------------

    def pretty(self) -> str:
        lines: List[str] = []

        def walk(node: QueryNode, indent: int) -> None:
            bar = "~" if node.extract else ""
            cond = "" if node.cond.is_true() else f" [{node.cond!r}]"
            lines.append("  " * indent + f"{bar}{node.label}{cond}")
            for child in node.children:
                walk(child, indent + 1)

        walk(self._root, 0)
        return "\n".join(lines)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, PSQuery):
            return NotImplemented
        return self._root == other._root

    def __hash__(self) -> int:
        """Computed once and kept, as the query is immutable."""
        if self._hash is None:
            self._hash = hash(self._root)
        return self._hash

    def __repr__(self) -> str:
        return f"PSQuery({self._root.label!r}, {self.size()} nodes)"


def linear_query(
    labels: Sequence[str],
    conds: Optional[Sequence[Optional[Cond]]] = None,
    extract_last: bool = False,
) -> PSQuery:
    """Build a linear ps-query from a root-to-leaf label path."""
    if not labels:
        raise ValueError("a query needs at least one node")
    conds = conds if conds is not None else [None] * len(labels)
    if len(conds) != len(labels):
        raise ValueError("labels and conds must have the same length")
    current: Optional[QueryNode] = None
    for label, cond in zip(reversed(labels), reversed(list(conds))):
        if current is None:
            current = (
                subtree(label, cond) if extract_last else pattern(label, cond)
            )
        else:
            current = pattern(label, cond, [current])
    assert current is not None
    return PSQuery(current)
