"""Intersection with the source tree type (Theorem 3.5).

``intersect_with_tree_type(T, ρ)`` produces an incomplete tree T' with
``rep(T') = rep(T) ∩ rep(ρ)`` by rewriting T's disjuncts so that, for
every symbol, the combined children conform to the tree type's
multiplicity atom for the symbol's effective element label.

The paper's rewriting assumes at most one ``*`` specialization per
label (its unambiguity condition (3)).  The constructions in this
library can produce several mutually exclusive ``*`` specializations of
the same label with no anchoring data node (e.g. the viol/fail pair of
Lemma 3.2), in which case a required multiplicity on that label cannot
be pushed onto a single entry.  We handle it exactly by *disjunct
expansion*: "at least/exactly one b overall" becomes a disjunction over
which specialization carries the forced occurrence.  The expansion is
linear in the number of same-label entries per atom.

The output is generally *not* unambiguous (multiplicities + and ? may
appear); the paper applies this step once, after refinement, and so do
we.
"""

from __future__ import annotations

from itertools import product as iter_product
from typing import Dict, List, Optional, Tuple

from ..core.multiplicity import Atom, Disjunction, Mult
from ..core.treetype import TreeType
from ..incomplete.incomplete_tree import IncompleteTree


def structural_weakening(tree_type: TreeType) -> IncompleteTree:
    """An *unambiguous* over-approximation of a tree type.

    Keeps the parent/child label structure and the root set but drops
    all counting (every multiplicity becomes ``*``), so the result obeys
    Definition 3.1 and can participate in Lemma 3.3 products.  Useful as
    an early pruning layer: rep(weakening) ⊇ rep(type), and most
    type violations are structural.
    """
    from ..incomplete.conditional import ConditionalTreeType

    def name(label: str) -> str:
        return f"struct:{label}"

    mu = {}
    sigma = {}
    for label in tree_type.alphabet:
        entries = [(name(child), Mult.STAR) for child in tree_type.atom(label).symbols]
        mu[name(label)] = Disjunction.single(Atom(entries))
        sigma[name(label)] = label
    tau = ConditionalTreeType(
        [name(r) for r in tree_type.roots], mu, {}, sigma
    )
    return IncompleteTree({}, tau, allows_empty=False)


def intersect_with_tree_type(
    incomplete: IncompleteTree, tree_type: TreeType
) -> IncompleteTree:
    """Theorem 3.5: constrain an incomplete tree by a source tree type."""
    tau = incomplete.type
    node_ids = incomplete.data_node_ids()

    def eff_label(symbol: str) -> str:
        target = tau.sigma(symbol)
        if target in node_ids:
            return incomplete.data_label(target)
        return target

    valid = {s for s in tau.symbols() if eff_label(s) in tree_type.alphabet}

    mu: Dict[str, Disjunction] = {}
    for symbol in valid:
        rho_atom = tree_type.atom(eff_label(symbol))
        atoms: List[Atom] = []
        for alpha in tau.mu(symbol):
            atoms.extend(_conform(alpha, rho_atom, valid, eff_label))
        mu[symbol] = Disjunction(atoms)

    roots = [
        s
        for s in tau.roots
        if s in valid and eff_label(s) in tree_type.roots
    ]
    cond = {s: tau.cond(s) for s in valid}
    sigma = {s: tau.sigma(s) for s in valid}
    from ..incomplete.conditional import ConditionalTreeType

    new_type = ConditionalTreeType(roots, mu, cond, sigma)
    return IncompleteTree(
        incomplete.data_nodes(), new_type, allows_empty=False
    ).normalized()


def _conform(alpha: Atom, rho_atom: Atom, valid, eff_label) -> List[Atom]:
    """All atoms replacing ``alpha`` so children conform to ``rho_atom``.

    Returns [] when the disjunct must be eliminated.
    """
    # 1. drop entries for invalid symbols / labels the type forbids here
    entries: List[Tuple[str, Mult]] = []
    for entry, mult in alpha.items():
        if entry not in valid or rho_atom.mult(eff_label(entry)) is None:
            if mult.required:
                return []  # a guaranteed child the type forbids
            continue
        entries.append((entry, mult))

    # 2. group the surviving entries by effective label
    groups: Dict[str, List[Tuple[str, Mult]]] = {}
    for entry, mult in entries:
        groups.setdefault(eff_label(entry), []).append((entry, mult))

    # 3. per label allowed by the type, compute the variants of the group
    per_label_variants: List[List[List[Tuple[str, Mult]]]] = []
    for label, rho_mult in rho_atom.items():
        group = groups.get(label, [])
        variants = _group_variants(group, rho_mult)
        if variants is None:
            return []
        per_label_variants.append(variants)

    # 4. combine one variant per label into output atoms
    results: List[Atom] = []
    for choice in iter_product(*per_label_variants):
        combined: List[Tuple[str, Mult]] = []
        for variant in choice:
            combined.extend(variant)
        results.append(Atom(combined))
    return results


def _group_variants(
    group: List[Tuple[str, Mult]], rho_mult: Mult
) -> Optional[List[List[Tuple[str, Mult]]]]:
    """How a same-label entry group can be constrained to ``rho_mult``.

    Returns a list of variants (each a list of entries), or None when
    the whole disjunct must be eliminated.
    """
    forced = [(e, m) for e, m in group if m.required]
    optional = [(e, m) for e, m in group if not m.required]

    min_total = sum(m.min_count for _e, m in forced)
    if rho_mult.max_count is not None and min_total > rho_mult.max_count:
        return None  # too many guaranteed children of this label

    if rho_mult is Mult.STAR:
        return [group]

    if rho_mult.max_count == 1:  # ONE or OPT
        if min_total == 1:
            # the forced entry is the single allowed child (capped at one
            # occurrence); optional entries must vanish
            entry, _m = forced[0]
            return [[(entry, Mult.ONE)]]
        # min_total == 0: the single child (mandatory for ONE) must come
        # from one optional entry; the others must vanish
        target = Mult.ONE if rho_mult is Mult.ONE else Mult.OPT
        variants: List[List[Tuple[str, Mult]]] = []
        for i, (entry, _m) in enumerate(optional):
            variants.append([(entry, target)])
        if rho_mult is Mult.OPT and not optional:
            variants.append([])
        if rho_mult is Mult.ONE and not variants:
            return None  # one child required but no candidate entry
        if rho_mult is Mult.OPT and optional:
            # the all-absent case is covered by any single OPT variant
            pass
        return variants

    # rho_mult is PLUS: at least one child overall
    if min_total >= 1:
        return [group]
    if not optional:
        return None
    variants = []
    for i, (entry, _m) in enumerate(optional):
        variant = [
            (e, Mult.PLUS if j == i else m) for j, (e, m) in enumerate(optional)
        ]
        variants.append(variant)
    return variants
