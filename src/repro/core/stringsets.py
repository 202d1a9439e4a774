"""Finite/cofinite sets of strings.

Conditions only ever compare string values with ``=`` and ``!=`` (order
comparisons live in the rational sort), so the string component of any
condition denotes either a finite set of strings or the complement of
one.  Both are exactly representable, closed under the Boolean algebra,
and admit fresh-witness sampling — everything the condition machinery
needs.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Iterator, Optional


class StringSet:
    """A finite or cofinite set of strings (immutable, canonical)."""

    __slots__ = ("_members", "_cofinite")

    def __init__(self, members: Iterable[str] = (), cofinite: bool = False):
        self._members: FrozenSet[str] = frozenset(members)
        self._cofinite = bool(cofinite)

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def empty() -> "StringSet":
        return _EMPTY

    @staticmethod
    def all() -> "StringSet":
        return _ALL

    @staticmethod
    def singleton(value: str) -> "StringSet":
        return StringSet([value])

    @staticmethod
    def excluding(values: Iterable[str]) -> "StringSet":
        """All strings except ``values``."""
        return StringSet(values, cofinite=True)

    # -- queries ----------------------------------------------------------------

    @property
    def is_cofinite(self) -> bool:
        return self._cofinite

    @property
    def members(self) -> FrozenSet[str]:
        """The explicit members (finite case) or exclusions (cofinite case)."""
        return self._members

    def is_empty(self) -> bool:
        return not self._cofinite and not self._members

    def is_all(self) -> bool:
        return self._cofinite and not self._members

    def contains(self, value: str) -> bool:
        if self._cofinite:
            return value not in self._members
        return value in self._members

    def is_singleton(self) -> Optional[str]:
        """The unique member when the set has exactly one, else None."""
        if not self._cofinite and len(self._members) == 1:
            return next(iter(self._members))
        return None

    def sample(self) -> str:
        """Some member; raises ValueError on the empty set."""
        if self._cofinite:
            return _fresh(self._members)
        if not self._members:
            raise ValueError("cannot sample from the empty string set")
        return min(self._members)

    def samples(self, limit: int = 4) -> Iterator[str]:
        """Up to ``limit`` distinct members."""
        if self._cofinite:
            produced = 0
            banned = set(self._members)
            while produced < limit:
                fresh = _fresh(banned)
                banned.add(fresh)
                yield fresh
                produced += 1
        else:
            for value in sorted(self._members)[:limit]:
                yield value

    # -- algebra ------------------------------------------------------------------

    @staticmethod
    def union_of(sets: Iterable["StringSet"]) -> "StringSet":
        """The union of any number of sets in one pass."""
        sets = list(sets)
        members = frozenset().union(*(s._members for s in sets if not s._cofinite))
        excluded = [s._members for s in sets if s._cofinite]
        if not excluded:
            return StringSet(members)
        return StringSet(frozenset.intersection(*excluded) - members, cofinite=True)

    def union(self, other: "StringSet") -> "StringSet":
        if self._cofinite and other._cofinite:
            return StringSet(self._members & other._members, cofinite=True)
        if self._cofinite:
            return StringSet(self._members - other._members, cofinite=True)
        if other._cofinite:
            return StringSet(other._members - self._members, cofinite=True)
        return StringSet(self._members | other._members)

    def intersect(self, other: "StringSet") -> "StringSet":
        if self._cofinite and other._cofinite:
            return StringSet(self._members | other._members, cofinite=True)
        if self._cofinite:
            return StringSet(other._members - self._members)
        if other._cofinite:
            return StringSet(self._members - other._members)
        return StringSet(self._members & other._members)

    def complement(self) -> "StringSet":
        return StringSet(self._members, cofinite=not self._cofinite)

    def difference(self, other: "StringSet") -> "StringSet":
        return self.intersect(other.complement())

    def implies(self, other: "StringSet") -> bool:
        """Subset test."""
        return self.difference(other).is_empty()

    # -- dunder ---------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StringSet):
            return NotImplemented
        return self._cofinite == other._cofinite and self._members == other._members

    def __hash__(self) -> int:
        return hash((self._cofinite, self._members))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = "{" + ", ".join(sorted(self._members)) + "}"
        return f"StringSet(all - {inner})" if self._cofinite else f"StringSet({inner})"


def _fresh(banned: Iterable[str]) -> str:
    """A string not in ``banned`` (deterministic)."""
    banned_set = set(banned)
    index = 0
    while True:
        candidate = f"_str{index}"
        if candidate not in banned_set:
            return candidate
        index += 1


_EMPTY = StringSet()
_ALL = StringSet(cofinite=True)
