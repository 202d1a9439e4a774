"""ps-query structure and evaluation tests (Section 2 semantics)."""

import pytest

from repro.core.conditions import Cond
from repro.core.query import PSQuery, linear_query, pattern, subtree
from repro.core.tree import DataTree, node


def doc():
    return DataTree.build(
        node(
            "r",
            "root",
            0,
            [
                node("a1", "a", 5, [node("b1", "b", 1), node("c1", "c", 7)]),
                node("a2", "a", 0, [node("b2", "b", 2)]),
                node("a3", "a", 9),
            ],
        )
    )


class TestStructure:
    def test_sibling_label_clash_rejected(self):
        with pytest.raises(ValueError):
            pattern("root", children=[pattern("a"), pattern("a", Cond.eq(1))])

    def test_bar_must_be_leaf(self):
        with pytest.raises(ValueError):
            from repro.core.query import QueryNode

            QueryNode("a", Cond.true(), True, (pattern("b"),))

    def test_linear_detection(self):
        assert linear_query(["root", "a", "b"]).is_linear()
        q = PSQuery(pattern("root", children=[pattern("a"), pattern("b")]))
        assert not q.is_linear()

    def test_paths_and_subquery(self):
        q = PSQuery(pattern("root", children=[pattern("a", children=[pattern("b")])]))
        assert list(q.paths()) == [(), (0,), (0, 0)]
        assert q.subquery((0,)).root.label == "a"
        assert q.size() == 3 and q.depth() == 3

    def test_hash_is_computed_once_and_kept(self, monkeypatch):
        from repro.core.query import QueryNode

        calls = []
        node_hash = QueryNode.__hash__
        monkeypatch.setattr(
            QueryNode, "__hash__", lambda self: calls.append(self) or node_hash(self)
        )
        q = PSQuery(pattern("root", children=[pattern("a"), pattern("b")]))
        first = hash(q)
        computed = len(calls)
        assert computed >= 1
        assert hash(q) == first and len(calls) == computed
        assert q == q and q == PSQuery(q.root)

    def test_linear_query_builder(self):
        q = linear_query(["root", "a", "b"], [None, Cond.gt(0), None], extract_last=True)
        assert q.node_at((0, 0)).extract
        with pytest.raises(ValueError):
            linear_query([])
        with pytest.raises(ValueError):
            linear_query(["a"], [None, None])


class TestEvaluation:
    def test_all_matches_extracted(self):
        # every a with a b child
        q = PSQuery(pattern("root", children=[pattern("a", children=[pattern("b")])]))
        answer = q.evaluate(doc())
        ids = set(answer.node_ids())
        assert ids == {"r", "a1", "b1", "a2", "b2"}

    def test_conditions_filter(self):
        q = PSQuery(
            pattern("root", children=[pattern("a", Cond.gt(0), [pattern("b")])])
        )
        assert set(q.evaluate(doc()).node_ids()) == {"r", "a1", "b1"}

    def test_failed_branch_empties_answer(self):
        # no a has a d child, so NO valuation exists at all
        q = PSQuery(pattern("root", children=[pattern("a", children=[pattern("d")])]))
        assert q.evaluate(doc()).is_empty()

    def test_root_mismatch(self):
        q = PSQuery(pattern("catalog"))
        assert q.evaluate(doc()).is_empty()

    def test_root_condition(self):
        q = PSQuery(pattern("root", Cond.eq(1)))
        assert q.evaluate(doc()).is_empty()
        q2 = PSQuery(pattern("root", Cond.eq(0)))
        assert set(q2.evaluate(doc()).node_ids()) == {"r"}

    def test_empty_input(self):
        assert PSQuery(pattern("root")).evaluate(DataTree.empty()).is_empty()

    def test_bar_extracts_subtree(self):
        q = PSQuery(pattern("root", children=[subtree("a", Cond.eq(5))]))
        ids = set(q.evaluate(doc()).node_ids())
        assert ids == {"r", "a1", "b1", "c1"}

    def test_answer_is_prefix(self):
        q = PSQuery(pattern("root", children=[pattern("a", Cond.gt(0))]))
        answer = q.evaluate(doc())
        assert answer.is_prefix_of(doc(), relative_to=list(answer.node_ids()))

    def test_multi_branch_combination(self):
        # a>0 with b branch AND c branch: only a1 qualifies
        q = PSQuery(
            pattern(
                "root",
                children=[pattern("a", children=[pattern("b"), pattern("c")])],
            )
        )
        assert set(q.evaluate(doc()).node_ids()) == {"r", "a1", "b1", "c1"}

    def test_witness_mapping(self):
        q = PSQuery(pattern("root", children=[subtree("a", Cond.eq(5))]))
        answer, witness = q.evaluate_with_witness(doc())
        assert witness["r"] == ()
        assert witness["a1"] == (0,)
        assert witness["b1"] == (0,)  # below-bar nodes map to the bar path

    def test_fixpoint(self):
        # re-evaluating a query on its own answer returns the same answer
        q = PSQuery(pattern("root", children=[pattern("a", children=[pattern("b")])]))
        answer = q.evaluate(doc())
        assert q.evaluate(answer) == answer


class TestCatalogFigures:
    """Experiment E1: the answers in Figure 6 are reproduced exactly."""

    def test_query1_answer(self, catalog_doc, catalog_queries):
        answer = catalog_queries[1].evaluate(catalog_doc)
        products = {
            answer.value(c)
            for p in answer.children(answer.root)
            for c in answer.children(p)
            if answer.label(c) == "name"
        }
        assert products == {"Canon", "Nikon", "Sony"}
        # prices and subcategories are present
        labels = {answer.label(n) for n in answer.node_ids()}
        assert labels == {"catalog", "product", "name", "price", "cat", "subcat"}

    def test_query2_answer(self, catalog_doc, catalog_queries):
        answer = catalog_queries[2].evaluate(catalog_doc)
        products = {
            answer.value(c)
            for p in answer.children(answer.root)
            for c in answer.children(p)
            if answer.label(c) == "name"
        }
        assert products == {"Canon", "Olympus"}
        pictures = {
            answer.value(n)
            for n in answer.node_ids()
            if answer.label(n) == "picture"
        }
        assert pictures == {"c.jpg", "o.jpg"}

    def test_query3_empty_on_demo(self, catalog_doc, catalog_queries):
        # no camera under $100 with a picture in the demo data
        assert catalog_queries[3].evaluate(catalog_doc).is_empty()

    def test_query4_lists_all_cameras(self, catalog_doc, catalog_queries):
        answer = catalog_queries[4].evaluate(catalog_doc)
        names = {
            answer.value(n) for n in answer.node_ids() if answer.label(n) == "name"
        }
        assert names == {"Canon", "Nikon", "Olympus", "Leica"}

    def test_query5_expensive_cameras(self, catalog_doc, catalog_queries):
        answer = catalog_queries[5].evaluate(catalog_doc)
        names = {
            answer.value(n) for n in answer.node_ids() if answer.label(n) == "name"
        }
        assert names == {"Olympus", "Leica"}
