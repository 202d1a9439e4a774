"""Text syntax for conditions and ps-queries.

Tree types already have a text DSL (:meth:`TreeType.parse`); this module
adds the counterparts for the other two user-facing syntaxes so whole
examples can be written as text, mirroring the paper's figures.

Conditions::

    < 200
    = "elec"
    != 0 & != 1
    (>= 10 & < 20) | = "n/a"
    true

ps-queries (indentation-based, two spaces per level; ``~`` marks bar
labels, conditions in brackets)::

    catalog
      product
        name
        price [< 200]
        cat [= "elec"]
          subcat
        ~picture
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import List, Optional, Tuple

from .conditions import Cond
from .query import PSQuery, QueryNode

_TOKEN = re.compile(
    r"""\s*(?:
        (?P<op><=|>=|!=|=|<|>)
      | (?P<and>&)
      | (?P<or>\|)
      | (?P<not>!(?![=]))
      | (?P<lpar>\()
      | (?P<rpar>\))
      | (?P<true>true)
      | (?P<false>false)
      | (?P<string>"(?:[^"\\]|\\.)*")
      | (?P<number>-?\d+(?:\.\d+)?(?:/\d+)?)
    )""",
    re.VERBOSE,
)


class CondSyntaxError(ValueError):
    """Malformed condition text."""


def parse_cond(text: str) -> Cond:
    """Parse a condition expression (grammar in the module docstring).

    Precedence: ``!`` binds tightest, then ``&``, then ``|``.  Nesting
    deeper than :data:`MAX_COND_NESTING` is refused.
    """
    tokens = _tokenize(text)
    parser = _CondParser(tokens, text)
    result = parser.parse_or()
    if parser.peek() is not None:
        raise CondSyntaxError(f"trailing input in condition: {text!r}")
    return result


def _tokenize(text: str) -> List[Tuple[str, str]]:
    tokens = []
    position = 0
    while position < len(text):
        match = _TOKEN.match(text, position)
        if match is None:
            if text[position:].strip() == "":
                break
            raise CondSyntaxError(
                f"cannot tokenize condition at {text[position:]!r}"
            )
        position = match.end()
        kind = match.lastgroup
        assert kind is not None
        tokens.append((kind, match.group(kind)))
    return tokens


#: Deepest nesting of ``(`` and ``!`` that :func:`parse_cond` accepts:
#: far above any catalog condition, far below the depth at which the
#: parser's recursion exhausts a handler thread's stack.
MAX_COND_NESTING = 64


class _CondParser:
    def __init__(self, tokens: List[Tuple[str, str]], source: str):
        self._tokens = tokens
        self._index = 0
        self._source = source
        self._nesting = 0

    def peek(self) -> Optional[Tuple[str, str]]:
        if self._index < len(self._tokens):
            return self._tokens[self._index]
        return None

    def take(self) -> Tuple[str, str]:
        token = self.peek()
        if token is None:
            raise CondSyntaxError(f"unexpected end of condition: {self._source!r}")
        self._index += 1
        return token

    def parse_or(self) -> Cond:
        disjuncts = [self.parse_and()]
        while self.peek() is not None and self.peek()[0] == "or":
            self.take()
            disjuncts.append(self.parse_and())
        return Cond.any_of(disjuncts)

    def parse_and(self) -> Cond:
        conjuncts = [self.parse_unary()]
        while self.peek() is not None and self.peek()[0] == "and":
            self.take()
            conjuncts.append(self.parse_unary())
        return Cond.all_of(conjuncts)

    def parse_unary(self) -> Cond:
        token = self.peek()
        if token is None:
            raise CondSyntaxError(f"unexpected end of condition: {self._source!r}")
        kind, value = token
        if kind in ("not", "lpar"):
            self.take()
            self._nesting += 1
            if self._nesting > MAX_COND_NESTING:
                raise CondSyntaxError(
                    f"condition nests deeper than {MAX_COND_NESTING} levels of '(' and '!'"
                )
            if kind == "not":
                inner = ~self.parse_unary()
            else:
                inner = self.parse_or()
                if self.take()[0] != "rpar":
                    raise CondSyntaxError(f"missing ')' in {self._source!r}")
            self._nesting -= 1
            return inner
        if kind == "true":
            self.take()
            return Cond.true()
        if kind == "false":
            self.take()
            return Cond.false()
        if kind == "op":
            self.take()
            return Cond.atom(value, self._parse_value())
        raise CondSyntaxError(
            f"unexpected {value!r} in condition {self._source!r}"
        )

    def _parse_value(self):
        kind, value = self.take()
        if kind == "string":
            return _unquote(value)
        if kind == "number":
            return Fraction(value)
        raise CondSyntaxError(
            f"expected a value after comparison in {self._source!r}"
        )


def _unquote(text: str) -> str:
    body = text[1:-1]
    return body.replace('\\"', '"').replace("\\\\", "\\")


# -- query parsing -----------------------------------------------------------------

_LINE = re.compile(
    r"^(?P<indent>\s*)(?P<bar>~)?(?P<label>[\w.-]+)\s*(?:\[(?P<cond>.*)\])?\s*$"
)


class QuerySyntaxError(ValueError):
    """Malformed ps-query text."""


#: Longest slash path :func:`parse_query_spec` accepts, in segments: far
#: above any catalog query, far below the depth at which the engine's
#: recursive passes exhaust the interpreter's stack.
MAX_QUERY_STEPS = 64


def parse_query(text: str) -> PSQuery:
    """Parse the indentation-based ps-query syntax.

    Common leading indentation is stripped (triple-quoted literals work
    as-is); the first indented line fixes the per-level width.
    """
    import textwrap

    text = textwrap.dedent(
        "\n".join(line for line in text.splitlines() if line.strip())
    )
    entries: List[Tuple[int, bool, str, Cond]] = []
    indent_unit: Optional[int] = None
    for raw_line in text.splitlines():
        line = raw_line.rstrip()
        stripped = line.split("#", 1)[0].rstrip()
        if not stripped.strip():
            continue
        match = _LINE.match(stripped)
        if match is None:
            raise QuerySyntaxError(f"cannot parse query line: {raw_line!r}")
        indent_text = match.group("indent")
        if "\t" in indent_text:
            raise QuerySyntaxError("use spaces, not tabs, for query indentation")
        width = len(indent_text)
        if width and indent_unit is None:
            indent_unit = width
        depth = 0 if not width else width // (indent_unit or 1)
        if indent_unit and width % indent_unit:
            raise QuerySyntaxError(
                f"indentation of {raw_line!r} is not a multiple of {indent_unit}"
            )
        cond_text = match.group("cond")
        cond = parse_cond(cond_text) if cond_text is not None else Cond.true()
        entries.append((depth, match.group("bar") is not None, match.group("label"), cond))

    if not entries:
        raise QuerySyntaxError("empty query")
    if entries[0][0] != 0:
        raise QuerySyntaxError("the root must not be indented")
    if sum(1 for depth, *_ in entries if depth == 0) > 1:
        raise QuerySyntaxError("a ps-query has a single root")

    root, remaining = _build_node(entries, 0)
    if remaining:
        raise QuerySyntaxError("dangling lines after the query root")
    return PSQuery(root)


def _build_node(
    entries: List[Tuple[int, bool, str, Cond]], depth: int
) -> Tuple[QueryNode, List[Tuple[int, bool, str, Cond]]]:
    head, rest = entries[0], entries[1:]
    head_depth, bar, label, cond = head
    if head_depth != depth:
        raise QuerySyntaxError(
            f"expected indentation depth {depth}, got {head_depth} at {label!r}"
        )
    children: List[QueryNode] = []
    while rest and rest[0][0] > depth:
        if rest[0][0] != depth + 1:
            raise QuerySyntaxError(
                f"indentation jumps by more than one level at {rest[0][2]!r}"
            )
        child, rest = _build_node(rest, depth + 1)
        children.append(child)
    return QueryNode(label, cond, bar, tuple(children)), rest


def parse_query_spec(spec: str, named=None) -> PSQuery:
    """A slash path like ``catalog/product/price[<300]`` as a ps-query.

    Each path segment may carry a bracketed condition (``parse_cond``
    syntax); a ``~`` prefix on the last segment extracts the whole
    subtree (the paper's bar adornment).  ``named`` optionally maps
    shorthand names (``"q1"``) to zero-arg query factories — the CLI and
    the ops server pass the catalog workload's q1..q4 here.  A path of
    more than :data:`MAX_QUERY_STEPS` segments is refused before any of
    it is built.
    """
    if named and spec in named:
        return named[spec]()
    segments = spec.split("/")
    if len(segments) > MAX_QUERY_STEPS:
        raise QuerySyntaxError(
            f"query path has {len(segments)} steps; at most {MAX_QUERY_STEPS} are allowed"
        )
    segment_re = re.compile(r"^(~?)([^\[\]/]+?)(?:\[(.+)\])?$")
    current: Optional[QueryNode] = None
    for position, segment in enumerate(reversed(segments)):
        match = segment_re.match(segment.strip())
        if match is None:
            raise QuerySyntaxError(f"cannot parse query segment {segment!r}")
        bar, label, cond_text = match.groups()
        if bar and position != 0:
            raise QuerySyntaxError("only the last path segment may be bar-labeled (~)")
        cond = parse_cond(cond_text) if cond_text else Cond.true()
        children = () if current is None else (current,)
        if bar and children:
            raise QuerySyntaxError("bar-labeled segments must be leaves")
        current = QueryNode(label, cond, bool(bar), children)
    if current is None:
        raise QuerySyntaxError("empty query spec")
    return PSQuery(current)
