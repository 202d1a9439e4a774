"""The paper's running catalog example (Figures 1-9, Examples 2.1/3.1/3.4).

Provides the catalog tree type, Queries 1-5, the demo document whose
query answers are those of Figure 6, and a synthetic catalog generator
for benchmarks.

The demo document extends Figure 6's visible data with the products the
examples reason about implicitly: the Olympus camera (returned by Query
2 but not Query 1, so its price must be ≥ 200), an expensive camera
without pictures (invisible to both queries — the "there may be more
cameras" of Example 3.4), and a non-electronics product.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional

from ..core.conditions import Cond
from ..core.query import PSQuery, pattern, subtree
from ..core.tree import DataTree, NodeSpec, node
from ..core.treetype import TreeType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..mediator.source import InMemorySource

#: Element names of the catalog schema.
CATALOG_ALPHABET = (
    "catalog",
    "product",
    "name",
    "price",
    "cat",
    "subcat",
    "picture",
)


def catalog_type() -> TreeType:
    """Figure 1's tree type."""
    return TreeType.parse(
        """
        root: catalog
        catalog -> product+
        product -> name price cat picture*
        cat     -> subcat
        """
    )


def query1() -> PSQuery:
    """Query 1 (Figure 2): name, price and subcategories of electronics
    products with price less than $200."""
    return PSQuery(
        pattern(
            "catalog",
            children=[
                pattern(
                    "product",
                    children=[
                        pattern("name"),
                        pattern("price", Cond.lt(200)),
                        pattern("cat", Cond.eq("elec"), [pattern("subcat")]),
                    ],
                )
            ],
        )
    )


def query2() -> PSQuery:
    """Query 2 (Figure 3): name and picture of all cameras (inside
    electronics) whose picture appears in the catalog."""
    return PSQuery(
        pattern(
            "catalog",
            children=[
                pattern(
                    "product",
                    children=[
                        pattern("name"),
                        pattern("picture"),
                        pattern(
                            "cat",
                            Cond.eq("elec"),
                            [pattern("subcat", Cond.eq("camera"))],
                        ),
                    ],
                )
            ],
        )
    )


def query3() -> PSQuery:
    """Query 3 (Figure 4): name, price, pictures of cameras costing less
    than $100 with at least one picture."""
    return PSQuery(
        pattern(
            "catalog",
            children=[
                pattern(
                    "product",
                    children=[
                        pattern("name"),
                        pattern("price", Cond.lt(100)),
                        pattern("picture"),
                        pattern(
                            "cat",
                            Cond.eq("elec"),
                            [pattern("subcat", Cond.eq("camera"))],
                        ),
                    ],
                )
            ],
        )
    )


def query4() -> PSQuery:
    """Query 4 (Figure 5): list all cameras inside electronics."""
    return PSQuery(
        pattern(
            "catalog",
            children=[
                pattern(
                    "product",
                    children=[
                        pattern("name"),
                        pattern(
                            "cat",
                            Cond.eq("elec"),
                            [pattern("subcat", Cond.eq("camera"))],
                        ),
                    ],
                )
            ],
        )
    )


def query5() -> PSQuery:
    """Query 5 (Example 3.4): name and price of cameras costing ≥ $200.

    The price condition is written as ``not (< 200)`` — in the paper's
    value domain (Q only) this is the same as ``>= 200``, and it is the
    exact complement of Query 1's filter, which is what the example's
    reasoning relies on.  (In this library's two-sorted domain a bare
    ``>= 200`` would exclude hypothetical string-valued prices that
    ``not (< 200)`` admits.)
    """
    return PSQuery(
        pattern(
            "catalog",
            children=[
                pattern(
                    "product",
                    children=[
                        pattern("name"),
                        pattern("price", ~Cond.lt(200)),
                        pattern(
                            "cat",
                            Cond.eq("elec"),
                            [pattern("subcat", Cond.eq("camera"))],
                        ),
                    ],
                )
            ],
        )
    )


def named_queries() -> Dict[str, Callable[[], PSQuery]]:
    """Queries 1-4 by the names ``q1``..``q4`` that the CLI and ``/ask``
    accept (the ``named`` map of :func:`repro.core.parsing.parse_query_spec`)."""
    return {"q1": query1, "q2": query2, "q3": query3, "q4": query4}


def _product(
    pid: str,
    name: str,
    price: float,
    cat: str,
    sub: str,
    pictures: Optional[List[str]] = None,
) -> NodeSpec:
    children = [
        node(f"{pid}-name", "name", name),
        node(f"{pid}-price", "price", price),
        node(f"{pid}-cat", "cat", cat, [node(f"{pid}-subcat", "subcat", sub)]),
    ]
    for i, pic in enumerate(pictures or []):
        children.append(node(f"{pid}-pic{i}", "picture", pic))
    return node(pid, "product", 0, children)


def demo_catalog() -> DataTree:
    """The document behind Figure 6's answers (plus the hidden products
    Example 3.4 reasons about)."""
    return DataTree.build(
        node(
            "cat0",
            "catalog",
            0,
            [
                _product("p-canon", "Canon", 120, "elec", "camera", ["c.jpg"]),
                _product("p-nikon", "Nikon", 199, "elec", "camera"),
                _product("p-sony", "Sony", 175, "elec", "cdplayer"),
                _product("p-olympus", "Olympus", 250, "elec", "camera", ["o.jpg"]),
                _product("p-leica", "Leica", 800, "elec", "camera"),
                _product("p-chair", "Chair", 49, "furniture", "seating"),
            ],
        )
    )


#: Categories/subcategories used by the synthetic generator.
_CATEGORIES = {
    "elec": ("camera", "cdplayer", "tv", "laptop"),
    "furniture": ("seating", "tables"),
    "garden": ("tools", "plants"),
}


def generate_catalog(
    n_products: int, seed: int = 0, camera_fraction: float = 0.3
) -> DataTree:
    """A synthetic catalog of ``n_products`` satisfying Figure 1's type.

    Prices are spread over [10, 1000); roughly ``camera_fraction`` of the
    products are electronics cameras; pictures appear on ~60% of
    products (0-3 each).  Deterministic for a given seed.
    """
    rng = random.Random(seed)
    products = []
    for i in range(n_products):
        pid = f"p{i}"
        if rng.random() < camera_fraction:
            cat, sub = "elec", "camera"
        else:
            cat = rng.choice(sorted(_CATEGORIES))
            sub = rng.choice(_CATEGORIES[cat])
        price = rng.randrange(10, 1000)
        pictures = [f"{pid}-{j}.jpg" for j in range(rng.choice((0, 0, 1, 1, 2, 3)))]
        products.append(
            _product(pid, f"Item{i}", price, cat, sub, pictures)
        )
    return DataTree.build(node("cat0", "catalog", 0, products))


@lru_cache(maxsize=None)
def _catalog_source(products: int, seed: int) -> "InMemorySource":
    from ..mediator.source import InMemorySource

    return InMemorySource(generate_catalog(products, seed=seed), catalog_type())


def hinted_source(
    hint: Mapping[str, object], products: int = 10, seed: int = 0
) -> "InMemorySource":
    """The source over the catalog a session's workload hint names.

    A durable session remembers the synthetic catalog it was created
    over (:meth:`Webhouse.source_hint`), so every later process fetches
    from the same document; ``products`` and ``seed`` fill in what the
    hint lacks.  One source per document per process.
    """
    return _catalog_source(
        int(hint.get("products", products)), int(hint.get("seed", seed))
    )
