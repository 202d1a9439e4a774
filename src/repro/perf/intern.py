"""Hash-consing of the library's small immutable terms.

The representation layer builds the *same* small value objects over and
over: every Refine product recombines conditions with ``&``, and every
disjunct expansion rebuilds atoms entry by entry, so the rules of
:class:`~repro.incomplete.conditional.ConditionalTreeType` repeat them
constantly.  An :class:`InternPool` maps every such term to one
canonical instance so that

* structurally-equal terms become **pointer-equal** — ``a is b`` — which
  turns the deep ``__eq__``/``__hash__`` walks that dominate memo-key
  comparisons into identity checks on the CPython fast path, and
* the memo tables of :mod:`repro.perf.memo` key distinct logical values
  exactly once.

Interning is **safe precisely because the interned classes are immutable
value objects whose ``__eq__`` agrees with their semantics**:

* ``Cond`` compares by *denotation* (Lemma 2.3 normal form), so two
  syntactically different conditions with the same value set collapse to
  one representative — sound everywhere the library consumes conditions,
  because every consumer goes through the denotation.
* ``Atom`` / ``Disjunction`` compare structurally (order-normalized).

Whole types are not pooled: they can be exponential in |Σ| (Example
3.2), and served traffic rarely builds the same one twice.  Never
intern mutable state (histories, builders, metrics).  See
``docs/PERFORMANCE.md`` for the contract.

Pools are LRU-bounded, each by a constant sized from measured reuse: a
pool miss only inserts, so a smaller pool costs sharing, never
recomputation, and interning never becomes a leak on adversarial
workloads.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Dict

from .memo import LRUCache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.conditions import Cond
    from ..core.multiplicity import Atom, Disjunction

#: Per-kind pool capacities, from the reuse the served workloads show
#: (``docs/PERFORMANCE.md``): 512 conditions hold every shared one, and
#: 2048 atoms and disjunctions keep all but a fraction of a point.
POOL_CAPACITIES = {
    "cond": 512,
    "atom": 2048,
    "disjunction": 2048,
}


class InternPool:
    """Canonical-instance tables for the immutable term classes."""

    __slots__ = ("_conds", "_atoms", "_disjunctions")

    def __init__(self) -> None:
        self._conds = LRUCache("intern.cond", POOL_CAPACITIES["cond"])
        self._atoms = LRUCache("intern.atom", POOL_CAPACITIES["atom"])
        self._disjunctions = LRUCache(
            "intern.disjunction", POOL_CAPACITIES["disjunction"]
        )

    # -- term kinds -------------------------------------------------------------

    def symbol(self, symbol: str) -> str:
        """Canonicalize a tree-type symbol / label via ``sys.intern``.

        Symbol strings are compared constantly (dict keys of µ, σ and
        every atom entry); interned strings compare by pointer first.
        """
        return sys.intern(symbol)

    def cond(self, cond: "Cond") -> "Cond":
        """One representative per condition *denotation*."""
        return self._conds.get_or_put(cond, cond)

    def atom(self, atom: "Atom") -> "Atom":
        return self._atoms.get_or_put(atom, atom)

    def disjunction(self, disjunction: "Disjunction") -> "Disjunction":
        return self._disjunctions.get_or_put(disjunction, disjunction)

    # -- bookkeeping ------------------------------------------------------------

    def _tables(self) -> Dict[str, LRUCache]:
        return {
            "cond": self._conds,
            "atom": self._atoms,
            "disjunction": self._disjunctions,
        }

    def stats(self) -> Dict[str, Dict[str, object]]:
        """Per-kind pool statistics (a hit = a successfully shared term)."""
        return {kind: table.stats() for kind, table in self._tables().items()}

    def clear(self) -> None:
        for table in self._tables().values():
            table.clear()

    def __repr__(self) -> str:
        sizes = ", ".join(f"{k}={len(t)}" for k, t in self._tables().items())
        return f"InternPool({sizes})"
