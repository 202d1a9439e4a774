"""Algorithm Refine (Theorem 3.4) and the refinement pipeline.

``refine(T, q, A, alphabet)`` computes an unambiguous incomplete tree
T' with ``rep(T') = rep(T) ∩ q⁻¹(A)`` — one PTIME step of knowledge
acquisition.  ``refine_sequence`` folds a whole query/answer history,
starting from the universal incomplete tree, and optionally finishes by
intersecting with the known source tree type (Theorem 3.5).

Each step composes Lemma 3.2 (:func:`~repro.refine.inverse.inverse_incomplete`)
with Lemma 3.3 (:func:`~repro.refine.intersect.intersect`).  The result
of a step is normalized (dead symbols pruned) by default; the
exponential growth of Example 3.2 survives normalization — all 2^n
specializations there are realizable — which is exactly the blowup
experiment E6 measures.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from ..core.query import PSQuery
from ..core.tree import DataTree
from ..core.treetype import TreeType
from ..incomplete.incomplete_tree import IncompleteTree
from ..obs.spans import span as _span
from ..obs.state import STATE as _OBS
from .intersect import intersect
from .inverse import inverse_incomplete, universal_incomplete
from .type_intersect import intersect_with_tree_type

#: One step of acquisition history.
QueryAnswer = Tuple[PSQuery, DataTree]


def refine(
    current: IncompleteTree,
    query: PSQuery,
    answer: DataTree,
    alphabet: Iterable[str],
    normalize: bool = True,
) -> IncompleteTree:
    """One Refine step: ``rep(result) = rep(current) ∩ q⁻¹(A)``."""
    with _span("refine.step") as sp:
        with _span("refine.inverse") as sp_inv:
            inverse = inverse_incomplete(query, answer, alphabet)
            if sp_inv is not None:
                sp_inv.attrs["inverse_size"] = inverse.size()
        with _span("refine.intersect"):
            result = intersect(current, inverse)
        if normalize:
            with _span("refine.normalize") as sp_norm:
                final = result.normalized()
                if sp_norm is not None:
                    sp_norm.attrs["pruned_symbols"] = len(result.type.symbols()) - len(
                        final.type.symbols()
                    )
        else:
            final = result
        if _OBS.enabled:
            specializations = len(result.type.symbols())
            size = final.size()
            metrics = _OBS.metrics
            metrics.inc("refine.steps")
            metrics.inc("refine.specializations", specializations)
            metrics.observe("refine.result_size", size)
            if sp is not None:
                sp.attrs.update(
                    input_size=current.size(),
                    answer_nodes=len(answer),
                    query_nodes=query.size(),
                    specializations=specializations,
                    result_size=size,
                )
        return final


def refine_sequence(
    alphabet: Iterable[str],
    history: Sequence[QueryAnswer],
    tree_type: Optional[TreeType] = None,
    normalize: bool = True,
) -> IncompleteTree:
    """Fold a query/answer history into one incomplete tree.

    Starts from the universal incomplete tree over ``alphabet`` and
    applies Refine per pair; when ``tree_type`` is given, finishes with
    the Theorem 3.5 intersection.
    """
    labels = sorted(set(alphabet))
    with _span("refine.sequence", steps=len(history)) as sp:
        current = universal_incomplete(labels)
        for query, answer in history:
            current = refine(current, query, answer, labels, normalize=normalize)
            if _OBS.enabled:
                _OBS.metrics.observe("refine.knowledge_size", current.size())
        if tree_type is not None:
            with _span("refine.type_intersect"):
                current = intersect_with_tree_type(current, tree_type)
        if _OBS.enabled and sp is not None:
            sp.attrs["final_size"] = current.size()
        return current


def consistent_with(
    tree: DataTree,
    history: Sequence[QueryAnswer],
    tree_type: Optional[TreeType] = None,
) -> bool:
    """Ground truth for testing: does ``tree`` satisfy the type and
    reproduce every recorded answer?"""
    if tree_type is not None and not tree_type.satisfied_by(tree):
        return False
    return all(query.evaluate(tree) == answer for query, answer in history)
