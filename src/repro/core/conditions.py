"""Selection conditions on data values (paper Section 2, Lemma 2.3).

A condition is a Boolean combination of atomic comparisons ``= v``,
``!= v``, ``<= v``, ``>= v``, ``< v``, ``> v`` against constants.  Per
Lemma 2.3 every condition is equivalent to a union of intervals linear
in its size; we compute that normal form eagerly as a :class:`ValueSet`
(a pair of an :class:`~repro.core.intervals.IntervalSet` over Q and a
:class:`~repro.core.stringsets.StringSet`), which makes satisfiability,
implication and equivalence exact and cheap.

The public entry point is :class:`Cond`.  Instances are immutable and
carry both the syntax tree (for display) and the semantic value set.

>>> c = Cond.lt(200) & Cond.ne(100)
>>> c.satisfiable()
True
>>> c.accepts(150)
True
>>> c.accepts("elec")
False
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Optional, Sequence, Tuple

from .intervals import IntervalSet
from .stringsets import StringSet
from .values import Value, ValueInput, as_value, is_numeric


class ValueSet:
    """The exact denotation of a condition: rationals plus strings."""

    __slots__ = ("numbers", "strings", "_hash")

    def __init__(self, numbers: IntervalSet, strings: StringSet):
        self.numbers = numbers
        self.strings = strings
        # hash is cached: denotations are the keys of every condition
        # memo/intern table and hashing an IntervalSet walks its cells
        self._hash: Optional[int] = None

    # -- constructors -----------------------------------------------------

    @staticmethod
    def empty() -> "ValueSet":
        return ValueSet(IntervalSet.empty(), StringSet.empty())

    @staticmethod
    def all() -> "ValueSet":
        return ValueSet(IntervalSet.all(), StringSet.all())

    @staticmethod
    def singleton(value: Value) -> "ValueSet":
        if is_numeric(value):
            return ValueSet(IntervalSet.singleton(value), StringSet.empty())
        return ValueSet(IntervalSet.empty(), StringSet.singleton(value))

    @staticmethod
    def atom(op: str, value: Value) -> "ValueSet":
        """Denotation of the atomic comparison ``x <op> value``."""
        if is_numeric(value):
            numbers = IntervalSet.comparison(op, value)
            # A string never satisfies a numeric comparison except "!=".
            strings = StringSet.all() if op == "!=" else StringSet.empty()
            return ValueSet(numbers, strings)
        if op == "=":
            return ValueSet(IntervalSet.empty(), StringSet.singleton(value))
        if op == "!=":
            return ValueSet(IntervalSet.all(), StringSet.excluding([value]))
        # Order comparisons against string constants hold for no value: the
        # paper's domain is Q, and we refuse to invent an order on strings.
        return ValueSet.empty()

    # -- algebra -------------------------------------------------------------

    @staticmethod
    def union_of(sets: Sequence["ValueSet"]) -> "ValueSet":
        """The union of any number of denotations, normalized once."""
        return ValueSet(
            IntervalSet.union_of(s.numbers for s in sets),
            StringSet.union_of(s.strings for s in sets),
        )

    def union(self, other: "ValueSet") -> "ValueSet":
        return ValueSet(self.numbers.union(other.numbers), self.strings.union(other.strings))

    def intersect(self, other: "ValueSet") -> "ValueSet":
        return ValueSet(
            self.numbers.intersect(other.numbers), self.strings.intersect(other.strings)
        )

    def complement(self) -> "ValueSet":
        return ValueSet(self.numbers.complement(), self.strings.complement())

    def difference(self, other: "ValueSet") -> "ValueSet":
        return self.intersect(other.complement())

    # -- queries -----------------------------------------------------------------

    def is_empty(self) -> bool:
        return self.numbers.is_empty() and self.strings.is_empty()

    def is_all(self) -> bool:
        return self.numbers.is_all() and self.strings.is_all()

    def contains(self, value: Value) -> bool:
        if is_numeric(value):
            return self.numbers.contains(value)
        return self.strings.contains(value)

    def is_singleton(self) -> Optional[Value]:
        """The unique member when this set is a single value, else None."""
        number = self.numbers.is_singleton()
        string = self.strings.is_singleton()
        if number is not None and self.strings.is_empty():
            return number
        if string is not None and self.numbers.is_empty():
            return string
        return None

    def implies(self, other: "ValueSet") -> bool:
        return self.numbers.implies(other.numbers) and self.strings.implies(other.strings)

    def sample(self) -> Value:
        """Some member; raises ValueError on the empty set."""
        if not self.numbers.is_empty():
            return self.numbers.sample()
        return self.strings.sample()

    def samples(self, limit: int = 4) -> Iterator[Value]:
        """Up to ``limit`` representative members (numbers first)."""
        produced = 0
        for number in self.numbers.samples(limit):
            yield number
            produced += 1
            if produced >= limit:
                return
        for string in self.strings.samples(limit - produced):
            yield string
            produced += 1
            if produced >= limit:
                return

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ValueSet):
            return NotImplemented
        return self.numbers == other.numbers and self.strings == other.strings

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash((self.numbers, self.strings))
            self._hash = cached
        return cached

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ValueSet({self.numbers!r}, {self.strings!r})"


_OPS = ("=", "!=", "<", "<=", ">", ">=")
_NEGATED = {"=": "!=", "!=": "=", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}


class Cond:
    """An immutable selection condition.

    Build with the factory classmethods (:meth:`eq`, :meth:`lt`, ...) and
    combine with ``&``, ``|`` and ``~``.  ``Cond.true()`` / ``Cond.false()``
    are the Boolean constants.  Semantics are precomputed as a
    :class:`ValueSet`; two conditions with the same denotation compare
    equal under :meth:`equivalent` (but not necessarily under ``==``,
    which is syntactic identity of the denotation — see below).

    Equality/hash are by *denotation*: conditions are used as dictionary
    keys in type representations where semantic identity is what matters.
    """

    __slots__ = ("_values", "_text")

    def __init__(self, values: ValueSet, text: str):
        self._values = values
        self._text = text

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def true() -> "Cond":
        return _TRUE

    @staticmethod
    def false() -> "Cond":
        return _FALSE

    @staticmethod
    def atom(op: str, raw: ValueInput) -> "Cond":
        if op not in _OPS:
            raise ValueError(f"unknown operator {op!r}; expected one of {_OPS}")
        value = as_value(raw)
        return Cond(ValueSet.atom(op, value), f"{op} {_fmt(value)}")

    @staticmethod
    def eq(raw: ValueInput) -> "Cond":
        """``= v``"""
        return Cond.atom("=", raw)

    @staticmethod
    def ne(raw: ValueInput) -> "Cond":
        """``!= v``"""
        return Cond.atom("!=", raw)

    @staticmethod
    def lt(raw: ValueInput) -> "Cond":
        """``< v``"""
        return Cond.atom("<", raw)

    @staticmethod
    def le(raw: ValueInput) -> "Cond":
        """``<= v``"""
        return Cond.atom("<=", raw)

    @staticmethod
    def gt(raw: ValueInput) -> "Cond":
        """``> v``"""
        return Cond.atom(">", raw)

    @staticmethod
    def ge(raw: ValueInput) -> "Cond":
        """``>= v``"""
        return Cond.atom(">=", raw)

    @staticmethod
    def of(values: ValueSet, text: Optional[str] = None) -> "Cond":
        """Wrap an explicit denotation (used by internal constructions)."""
        return Cond(values, text if text is not None else "<set>")

    @staticmethod
    def one_of(*raws: ValueInput) -> "Cond":
        """Disjunction of equalities."""
        return Cond.any_of([Cond.false(), *map(Cond.eq, raws)])

    @staticmethod
    def any_of(conds: Sequence["Cond"]) -> "Cond":
        """``conds[0] | conds[1] | ...`` with the union normalized once.

        The text is the left fold's, which shows a prefix as ``true`` /
        ``false`` once its union is all / empty.  Unions only grow, so
        only the last prefix can be all, and the empty ones lead.
        """
        if len(conds) == 1:
            return conds[0]
        values = ValueSet.union_of([c._values for c in conds])
        last = len(conds) - 1
        if values.is_all() and ValueSet.union_of([c._values for c in conds[:last]]).is_all():
            start, head = last, "true"
        else:
            lead = next((i for i, c in enumerate(conds) if c.satisfiable()), len(conds))
            start, head = (min(lead, last), "false") if lead else (1, repr(conds[0]))
        tail = "".join(f" or {c!r})" for c in conds[start:])
        return Cond(values, "(" * (len(conds) - start) + head + tail)

    # -- combinators -------------------------------------------------------------

    def __and__(self, other: "Cond") -> "Cond":
        values = self._values.intersect(other._values)
        return Cond(values, _combine(self, other, "and"))

    def __or__(self, other: "Cond") -> "Cond":
        values = self._values.union(other._values)
        return Cond(values, _combine(self, other, "or"))

    def __invert__(self) -> "Cond":
        return Cond(self._values.complement(), f"not({self._text})")

    # -- queries -----------------------------------------------------------------

    @property
    def values(self) -> ValueSet:
        """The exact denotation."""
        return self._values

    def satisfiable(self) -> bool:
        """Lemma 2.3: PTIME satisfiability."""
        return not self._values.is_empty()

    def is_true(self) -> bool:
        return self._values.is_all()

    def accepts(self, raw: ValueInput) -> bool:
        """Does the given value satisfy this condition?"""
        return self._values.contains(as_value(raw))

    def implies(self, other: "Cond") -> bool:
        return self._values.implies(other._values)

    def equivalent(self, other: "Cond") -> bool:
        return self._values == other._values

    def forced_value(self) -> Optional[Value]:
        """The unique satisfying value, if the condition pins one down.

        This is the paper's ``cond(a) = v`` test used in Theorem 2.8.
        """
        return self._values.is_singleton()

    def sample(self) -> Value:
        """Some satisfying value; raises ValueError when unsatisfiable."""
        return self._values.sample()

    def samples(self, limit: int = 4) -> Iterator[Value]:
        return self._values.samples(limit)

    # -- dunder ---------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if not isinstance(other, Cond):
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        if self._values.is_all():
            return "true"
        if self._values.is_empty():
            return "false"
        return self._text


def _fmt(value: Value) -> str:
    if isinstance(value, str):
        return repr(value)
    if value.denominator == 1:
        return str(value.numerator)
    return str(value)


def _combine(left: Cond, right: Cond, word: str) -> str:
    return f"({left!r} {word} {right!r})"


def interval_partition(conds: Tuple[Cond, ...]) -> Tuple[ValueSet, ...]:
    """Partition the value domain by a family of conditions.

    Returns the non-empty cells of the partition generated by the
    denotations of ``conds`` (each cell is a maximal region on which every
    condition is constantly true or constantly false).  This is the
    workhorse behind Lemma 3.12's linear-query construction and the
    enumeration oracle's representative-value selection.
    """
    cells = [ValueSet.all()]
    for cond in conds:
        inside = cond.values
        outside = inside.complement()
        next_cells = []
        for cell in cells:
            kept = cell.intersect(inside)
            if not kept.is_empty():
                next_cells.append(kept)
            dropped = cell.intersect(outside)
            if not dropped.is_empty():
                next_cells.append(dropped)
        cells = next_cells
    return tuple(cells)


_TRUE = Cond(ValueSet.all(), "true")
_FALSE = Cond(ValueSet.empty(), "false")
