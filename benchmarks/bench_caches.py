#!/usr/bin/env python
"""Cache effectiveness benchmark: repeated-query scenarios, off vs on.

The ``repro.perf`` memo tables target *repetition*: the same emptiness
fixpoint, normalization or bipartite matching asked again on an
unchanged type shape, and the same ``Webhouse`` derivation (a history
another session already recorded), which the ``knowledge`` table hands
back whole.  Each scenario below replays an E4–E11 workload several
times — the first pass pays full price, the replays are where the
caches earn their keep — and is timed twice, with caches off and on.
E7 calls ``refine_sequence`` directly, below the ``Webhouse``, so its
replays re-run every Refine step with no table to hit; E10 replays the
same history through fresh warehouses, which share one value.

Usage::

    python benchmarks/bench_caches.py              # run + print
    python benchmarks/bench_caches.py --write      # also write BENCH_pr4.json
    python benchmarks/bench_caches.py --check      # exit 1 unless >=2 scenarios
                                                   # reach the 2x speedup target
    REPRO_ORACLE_INSTANCES=200 python benchmarks/bench_caches.py --write
                                                   # include the differential-
                                                   # oracle sweep in the document

The emitted ``BENCH_pr4.json`` records per-scenario wall seconds,
speedups and cache hit counts, plus the differential-oracle verdict
(instances run / failures) when the sweep is enabled.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))  # for tests.oracle / tests.test_oracle

import repro.perf as perf  # noqa: E402
from repro.answering.query_incomplete import query_incomplete  # noqa: E402
from repro.incomplete.certainty import certain_prefix, possible_prefix  # noqa: E402
from repro.refine.refine import refine_sequence  # noqa: E402
from repro.refine.type_intersect import intersect_with_tree_type  # noqa: E402
from repro.mediator.webhouse import Webhouse  # noqa: E402
from repro.workloads.catalog import (  # noqa: E402
    CATALOG_ALPHABET,
    catalog_type,
    generate_catalog,
    query1,
    query2,
    query4,
)

import series  # noqa: E402

#: Where the result document goes (repo root, committed).
RESULT_PATH = REPO_ROOT / "BENCH_pr4.json"

#: Acceptance: at least MIN_WINNERS scenarios at or above TARGET_SPEEDUP.
TARGET_SPEEDUP = 2.0
MIN_WINNERS = 2

#: Replays per scenario — repetition is the workload the caches target.
REPEATS = 5


def _catalog_history(n_products: int, seed: int):
    doc = generate_catalog(n_products, seed=seed)
    queries = [query1(), query2(), query4()]
    return [(q, q.evaluate(doc)) for q in queries]


# -- scenarios -------------------------------------------------------------------
# Each is a zero-arg callable doing REPEATS passes of identical work.


def scenario_emptiness_repeated() -> None:
    """E4 shape: the emptiness fixpoint re-asked on deep chain types."""
    taus = [series.chain_type(depth) for depth in (50, 100, 200)]
    for _ in range(REPEATS):
        for tau in taus:
            tau.is_empty()
            tau.productive_symbols()


def scenario_prefix_repeated() -> None:
    """E5 shape: certain/possible prefix re-asked on fixed knowledge.

    The prefix recursions re-run per call, but their matching and
    normalization substrates hit the memo tables."""
    history = _catalog_history(8, seed=8)
    knowledge = intersect_with_tree_type(
        refine_sequence(CATALOG_ALPHABET, history), catalog_type()
    )
    prefix = knowledge.data_tree()
    for _ in range(REPEATS):
        possible_prefix(prefix, knowledge)
        certain_prefix(prefix, knowledge)


def scenario_refine_replay() -> None:
    """E7 shape: the same acquisition history folded again (replay /
    crash-recovery pattern — every Refine step repeats exactly, and
    only the steps' emptiness, normalization and matching hit)."""
    history = _catalog_history(6, seed=6)
    for _ in range(REPEATS):
        refine_sequence(CATALOG_ALPHABET, history, tree_type=catalog_type())


def scenario_query_incomplete_repeated() -> None:
    """E9 shape: the same query posed repeatedly to fixed knowledge."""
    history = _catalog_history(6, seed=16)
    knowledge = refine_sequence(CATALOG_ALPHABET, history)
    queries = [query1(), query2(), query4()]
    for _ in range(REPEATS):
        for q in queries:
            query_incomplete(knowledge, q)


def scenario_mediator_batch() -> None:
    """E10 shape: warehouses rebuilt from one history (record_many),
    then asked the same certain-answer questions."""
    history = _catalog_history(5, seed=25)
    for _ in range(REPEATS):
        wh = Webhouse(CATALOG_ALPHABET, tree_type=catalog_type())
        wh.record_many(history)
        wh.answer_locally(query1())


SCENARIOS = {
    "E4_emptiness_repeated": scenario_emptiness_repeated,
    "E5_prefix_repeated": scenario_prefix_repeated,
    "E7_refine_replay": scenario_refine_replay,
    "E9_query_incomplete_repeated": scenario_query_incomplete_repeated,
    "E10_mediator_batch": scenario_mediator_batch,
}


def _time(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def run_scenarios() -> dict:
    results = {}
    for name, fn in SCENARIOS.items():
        perf.clear_caches()
        with perf.uncached():
            fn()  # warm the CPython side (imports, code objects) evenly
            uncached_s = _time(fn)
        perf.clear_caches()
        with perf.cached():
            cached_s = _time(fn)
            stats = perf.cache_stats()
        perf.clear_caches()
        hits = sum(t["hits"] for t in stats["tables"].values())
        misses = sum(t["misses"] for t in stats["tables"].values())
        speedup = uncached_s / cached_s if cached_s > 0 else float("inf")
        results[name] = {
            "repeats": REPEATS,
            "uncached_s": round(uncached_s, 6),
            "cached_s": round(cached_s, 6),
            "speedup": round(speedup, 3),
            "cache_hits": hits,
            "cache_misses": misses,
        }
        print(
            f"  {name:<30} off {uncached_s:>8.4f}s  on {cached_s:>8.4f}s  "
            f"x{speedup:>6.2f}  ({hits} hits / {misses} misses)"
        )
    return results


def run_oracle_sweep(instances: int) -> dict:
    """The differential-oracle sweep from tests/test_oracle.py, counted."""
    from tests.test_oracle import _check_instance

    failures = []
    for seed in range(instances):
        try:
            _check_instance(seed)
        except AssertionError as exc:  # pragma: no cover - only on regression
            failures.append({"seed": seed, "error": str(exc)[:200]})
    print(f"  oracle sweep: {instances} instances, {len(failures)} failures")
    return {"instances": instances, "failures": len(failures), "detail": failures}


def main(argv) -> int:
    args = set(argv[1:])
    if not args <= {"--write", "--check"}:
        print(__doc__)
        return 2
    write, check = "--write" in args, "--check" in args
    print(f"cache benchmark: {len(SCENARIOS)} repeated-query scenarios...")
    scenarios = run_scenarios()
    winners = [
        name
        for name, row in scenarios.items()
        if row["speedup"] >= TARGET_SPEEDUP
    ]
    met = len(winners) >= MIN_WINNERS
    print(
        f"{len(winners)}/{len(scenarios)} scenarios at >= {TARGET_SPEEDUP}x "
        f"({'PASS' if met else 'FAIL'}: need {MIN_WINNERS}): "
        + ", ".join(winners)
    )
    document = {
        "suite": "pr4-caches",
        "repeats": REPEATS,
        "scenarios": scenarios,
        "criteria": {
            "target_speedup": TARGET_SPEEDUP,
            "min_scenarios": MIN_WINNERS,
            "winners": winners,
            "met": met,
        },
    }
    instances = int(os.environ.get("REPRO_ORACLE_INSTANCES", "0"))
    if instances:
        print(f"running differential-oracle sweep ({instances} instances)...")
        document["oracle"] = run_oracle_sweep(instances)
        if document["oracle"]["failures"]:
            met = False
    if write:
        RESULT_PATH.write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {RESULT_PATH}")
    if check and not met:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
