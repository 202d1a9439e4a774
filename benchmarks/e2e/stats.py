"""Percentiles, run-to-run spread, and the pairwise comparison verdict."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence

#: A reported percentile must leave at least this many samples beyond it.
MIN_BEYOND = 10

#: The levels a tail percentile may fall back to, highest first.
LEVELS = (0.99, 0.95, 0.90, 0.75, 0.50)

#: Run pairs needed before a change may be called an improvement.
MIN_PAIRS = 10


def rank(n: int, level: float) -> int:
    """Nearest-rank index (1-based) of the ``level`` percentile of ``n``."""
    return max(1, math.ceil(level * n - 1e-9))


def beyond(n: int, level: float) -> int:
    """How many of ``n`` samples lie above the ``level`` percentile."""
    return n - rank(n, level)


def percentile(ordered: Sequence[float], level: float) -> float:
    """Nearest-rank percentile of an ascending, non-empty sequence."""
    return ordered[rank(len(ordered), level) - 1]


def tail_level(n: int, preferred: float) -> float:
    """``preferred`` if ``n`` samples support it, else the next lower level
    that leaves :data:`MIN_BEYOND` samples beyond (0.5 at worst)."""
    for level in LEVELS:
        if level <= preferred and beyond(n, level) >= MIN_BEYOND:
            return level
    return LEVELS[-1]


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles as ``statistics.quantiles(values, n=4)`` gives
    them, plus the interquartile spread as a share of the median."""
    if len(values) < 2:
        only = values[0]
        return {"q1": only, "median": only, "q3": only, "spread": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "q1": q1,
        "median": median,
        "q3": q3,
        "spread": (q3 - q1) / median if median else float("inf"),
    }


def verdict(
    base: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: Optional[float],
) -> Dict[str, object]:
    """Compare a change's runs with the parent's, pair by pair.

    Runs pair up in order (run i of each side).  *improved*: at least
    :data:`MIN_PAIRS` pairs, the change wins at least nine tenths of them
    (ties count for neither), and the medians differ by more than the
    parent's interquartile distance.
    *worse*: the change's median is worse than the parent's by more than
    ``bound``.  *unresolved*: either side's spread is wider than the
    bound and not every run of the change beats every run of the parent.
    Otherwise *unchanged*.  Without a bound (per-layer metrics) the
    verdict is left empty.
    """
    sign = 1.0 if better == "lower" else -1.0
    a, b = quartiles(base), quartiles(change)
    pairs = list(zip(base, change))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    win_fraction = wins / len(pairs) if pairs else 0.0
    worse_by = sign * (b["median"] - a["median"]) / a["median"] if a["median"] else 0.0
    result: Dict[str, object] = {
        "base": a,
        "change": b,
        "win_fraction": win_fraction,
        "worse_by": worse_by,
        "verdict": "",
    }
    if bound is None:
        return result
    separated = all(sign * (y - x) < 0 for x in base for y in change)
    if (
        len(pairs) >= MIN_PAIRS
        and win_fraction >= 0.9
        and sign * (b["median"] - a["median"]) < -(a["q3"] - a["q1"])
    ):
        result["verdict"] = "improved"
    elif worse_by > bound:
        result["verdict"] = "worse"
    elif max(a["spread"], b["spread"]) > bound and not separated:
        result["verdict"] = "unresolved"
    else:
        result["verdict"] = "unchanged"
    return result
