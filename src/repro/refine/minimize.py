"""Symbol minimization for incomplete trees.

Merges *interchangeable* specializations: symbols with the same
specialization target and identical rules, occurring together (all or
none, as ``*`` entries) in every atom, describe the same downstream
behaviour split only by their conditions.  They can be replaced by a
single symbol whose condition is the disjunction of theirs; rep() is
preserved exactly.

This is the mechanism behind our implementation of Lemma 3.12: for
linear ps-queries the Refine product creates, per depth, one symbol per
cell of the interval partition of that depth's conditions; cells with
identical downstream behaviour collapse, keeping the representation
polynomial for the condition families the paper targets (e.g. the
viol/fail chains of repeated or nested per-level conditions).  See
EXPERIMENTS.md (E6) for measured growth, including an adversarial
family where genuinely distinct downstream behaviour forces many
symbols to survive.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.multiplicity import Atom, Disjunction, Mult
from ..incomplete.conditional import ConditionalTreeType
from ..incomplete.incomplete_tree import IncompleteTree
from ..obs.spans import span as _span
from ..obs.state import STATE as _OBS


def merge_equivalent_symbols(incomplete: IncompleteTree) -> IncompleteTree:
    """Fuse interchangeable specializations until a fixpoint.

    Iterating matters: once two leaf-level symbols merge, their parents'
    rules become syntactically equal and merge on the next round.
    """
    with _span("refine.minimize") as sp:
        current = incomplete
        rounds = 0
        while True:
            merged = _merge_once(current)
            if merged is None:
                break
            rounds += 1
            current = merged
        if _OBS.enabled:
            merged_count = len(incomplete.type.symbols()) - len(current.type.symbols())
            _OBS.metrics.inc("refine.symbols_merged", merged_count)
            _OBS.metrics.observe("refine.minimize_rounds", rounds)
            if sp is not None:
                sp.attrs.update(rounds=rounds, symbols_merged=merged_count)
        return current


def _merge_once(incomplete: IncompleteTree) -> Optional[IncompleteTree]:
    tau = incomplete.type
    node_ids = incomplete.data_node_ids()

    # candidate groups: same sigma target, same rule, same root-membership
    groups: Dict[object, List[str]] = {}
    for symbol in sorted(tau.symbols()):
        target = tau.sigma(symbol)
        if target in node_ids:
            continue  # never merge data-node symbols
        signature = (target, tau.mu(symbol), symbol in tau.roots)
        groups.setdefault(signature, []).append(symbol)
    candidates = [members for members in groups.values() if len(members) > 1]
    if not candidates:
        return None

    # keep only groups whose members co-occur (all-or-none, all star)
    def group_ok(members: List[str]) -> bool:
        member_set = set(members)
        for symbol in tau.symbols():
            for atom in tau.mu(symbol):
                present = [
                    (entry, mult)
                    for entry, mult in atom.items()
                    if entry in member_set
                ]
                if not present:
                    continue
                if len(present) != len(member_set):
                    return False
                if any(mult is not Mult.STAR for _e, mult in present):
                    return False
        return True

    mergeable = [members for members in candidates if group_ok(members)]
    if not mergeable:
        return None

    rename: Dict[str, str] = {}
    merged_cond = {}
    for members in mergeable:
        keep = members[0]
        cond = tau.cond(keep)
        for other in members[1:]:
            rename[other] = keep
            cond = cond | tau.cond(other)
        merged_cond[keep] = cond

    survivors = [s for s in tau.symbols() if s not in rename]

    def rewrite_atom(atom: Atom) -> Atom:
        entries: Dict[str, Mult] = {}
        for entry, mult in atom.items():
            target = rename.get(entry, entry)
            if target not in entries:
                entries[target] = mult
            # duplicates only arise for merged star groups; one star entry
            # stands for the whole group
        return Atom(entries)

    mu = {s: tau.mu(s).map_atoms(rewrite_atom) for s in survivors}
    cond = {s: merged_cond.get(s, tau.cond(s)) for s in survivors}
    sigma = {s: tau.sigma(s) for s in survivors}
    roots = [s for s in tau.roots if s not in rename]
    new_type = ConditionalTreeType(roots, mu, cond, sigma)
    return IncompleteTree(
        incomplete.data_nodes(), new_type, incomplete.allows_empty
    )
