"""Condition and ps-query text syntax tests."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.conditions import Cond
from repro.core.parsing import (
    CondSyntaxError,
    QuerySyntaxError,
    parse_cond,
    parse_query,
)
from repro.core.query import PSQuery, pattern, subtree


class TestParseCond:
    @pytest.mark.parametrize(
        "text,probe,expected",
        [
            ("< 200", 150, True),
            ("< 200", 250, False),
            ('= "elec"', "elec", True),
            ('= "elec"', "tv", False),
            ("!= 0 & != 1", 2, True),
            ("!= 0 & != 1", 1, False),
            ("(>= 10 & < 20) | = 99", 15, True),
            ("(>= 10 & < 20) | = 99", 99, True),
            ("(>= 10 & < 20) | = 99", 25, False),
            ("true", "anything", True),
            ("! = 5", 5, False),
            ("! = 5", 6, True),
            ("= 1/3", Fraction(1, 3), True),
        ],
    )
    def test_semantics(self, text, probe, expected):
        assert parse_cond(text).accepts(probe) == expected

    def test_false(self):
        assert not parse_cond("false").satisfiable()

    def test_precedence_and_binds_tighter(self):
        # a | b & c == a | (b & c)
        cond = parse_cond("= 1 | >= 10 & <= 20")
        assert cond.accepts(1)
        assert cond.accepts(15)
        assert not cond.accepts(5)

    def test_escaped_quote(self):
        cond = parse_cond('= "a\\"b"')
        assert cond.accepts('a"b')

    @pytest.mark.parametrize(
        "bad", ["<", "= ", "(< 5", "< 5)", "5 <", "& = 1", "= 'single'"]
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(CondSyntaxError):
            parse_cond(bad)

    @pytest.mark.parametrize("opening, closing", [("(", ")"), ("!", ""), ("!(", ")")])
    def test_nesting_over_the_bound_is_refused(self, opening, closing):
        """Past the bound the parser refuses before it recurses further:
        thousands of levels are a ``CondSyntaxError``, not a
        ``RecursionError``."""
        from repro.core.parsing import MAX_COND_NESTING

        def nested(reps: int) -> str:
            return opening * reps + "< 1" + closing * reps

        at_bound = MAX_COND_NESTING // len(opening)  # each "!(" nests twice
        assert parse_cond(nested(at_bound)).accepts(0)  # an even count of "!"
        for reps in (at_bound + 1, 3000):
            with pytest.raises(CondSyntaxError, match="nests deeper"):
                parse_cond(nested(reps))

    def test_equivalence_with_builders(self):
        assert parse_cond("< 200 & != 100").equivalent(Cond.lt(200) & Cond.ne(100))
        assert parse_cond('!( = "a" | = "b")').equivalent(
            ~(Cond.eq("a") | Cond.eq("b"))
        )


class TestParseQuery:
    def test_query1_figure_2(self):
        text = """
        catalog
          product
            name
            price [< 200]
            cat [= "elec"]
              subcat
        """
        parsed = parse_query(text)
        from repro.workloads.catalog import query1

        assert parsed == query1()

    def test_bar_labels(self):
        parsed = parse_query("catalog\n  ~product [= 0]")
        expected = PSQuery(pattern("catalog", children=[subtree("product", Cond.eq(0))]))
        assert parsed == expected

    def test_comments_ignored(self):
        parsed = parse_query("a  # the root\n  b  # child\n")
        assert parsed.size() == 2

    def test_single_node(self):
        assert parse_query("root").size() == 1

    def test_evaluation_of_parsed_query(self, catalog_doc):
        text = """
        catalog
          product
            name
            cat [= "elec"]
              subcat [= "camera"]
        """
        parsed = parse_query(text)
        from repro.workloads.catalog import query4

        assert parsed.evaluate(catalog_doc) == query4().evaluate(catalog_doc)

    @pytest.mark.parametrize(
        "bad",
        [
            "",  # empty
            "a\nb",  # two roots
            "a\n  b\n      c",  # depth jump (unit 2, then 6)
            "a\n  b [< ]",  # bad condition
            "a\n\tb",  # tabs
        ],
    )
    def test_syntax_errors(self, bad):
        with pytest.raises((QuerySyntaxError, CondSyntaxError)):
            parse_query(bad)

    def test_sibling_label_clash_propagates(self):
        with pytest.raises(ValueError):
            parse_query("r\n  a\n  a [< 1]")


numbers = st.integers(min_value=-50, max_value=50)


@given(
    op=st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
    value=numbers,
    probe=numbers,
)
@settings(max_examples=150, deadline=None)
def test_atom_roundtrip_property(op, value, probe):
    cond = parse_cond(f"{op} {value}")
    assert cond.equivalent(Cond.atom(op, value))
    assert cond.accepts(probe) == Cond.atom(op, value).accepts(probe)
