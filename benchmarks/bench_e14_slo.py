#!/usr/bin/env python
"""E14-slo: always-on telemetry overhead + fleet quantile accuracy.

``serve`` runs with span collection on: every request's spans feed the
``latency.seconds`` family (the only latency book), and the SLO
burn-rate engine and the flight recorder's keep decision run on every
request.
That posture is only tenable if the pipeline is cheap and the quantiles
it reports are right.  Two measurements, two acceptance criteria:

* **overhead** — the same ``/ask`` workload driven through the full
  in-process request pipeline (:func:`repro.ops.server.drive_request`:
  trace, dispatch, recorder/SLO bookkeeping) twice: once with span
  collection on (the ``serve`` default) and once with
  ``STATE.enabled = False``, where the SLO and keep books still run
  but no latency book does.  Batches alternate between the two servers
  so drift hits both sides equally.  Criterion: always-on ``/ask`` p50
  within **10%** of the baseline;
* **fleet accuracy** — a 4-shard pool serves keyed answers with span
  collection on; the fleet p50/p90/p99 read off the
  ``latency.seconds{layer="cluster.answer"}`` histogram (the
  :func:`cluster_latency` / ``/slo`` path) must agree with exact percentiles over
  the raw durations the same histogram kept in its ``recent`` window
  (400 ops fit its 1,024-sample window) within the sketch's
  **relative-error bound** (1%).

Usage::

    python benchmarks/bench_e14_slo.py              # run + print
    python benchmarks/bench_e14_slo.py --write      # also write BENCH_pr8.json
    python benchmarks/bench_e14_slo.py --check      # exit 1 if criteria unmet
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import repro.obs as obs  # noqa: E402
from repro.cluster import ShardedWebhouse  # noqa: E402
from repro.cluster.sharded import cluster_latency  # noqa: E402
from repro.mediator.source import InMemorySource  # noqa: E402
from repro.ops import OpsServer, demo_cluster  # noqa: E402
from repro.ops.server import drive_request  # noqa: E402
from repro.workloads.catalog import (  # noqa: E402
    CATALOG_ALPHABET,
    catalog_type,
    generate_catalog,
    query1,
)

#: Where the result document goes (repo root, committed).
RESULT_PATH = REPO_ROOT / "BENCH_pr8.json"

PRODUCTS = 48
SEED = 7
WARMUP = 60
BATCHES = 20
BATCH_SIZE = 25
FLEET_SHARDS = 4
FLEET_SESSIONS = 8
FLEET_OPS = 400

MAX_OVERHEAD_PCT = 10.0

SPECS = ("q1", "q2", "q3", "q4")


def _percentiles(samples):
    ordered = sorted(samples)
    return {
        "p50_ms": round(statistics.median(ordered) * 1000, 4),
        "p99_ms": round(
            ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)] * 1000, 4
        ),
        "count": len(ordered),
    }


def _drive_batch(server, offset: int, count: int):
    """``count`` local asks through the in-process pipeline; durations."""
    durations = []
    for i in range(offset, offset + count):
        endpoint = f"/ask?q={SPECS[i % len(SPECS)]}"
        started = time.perf_counter()
        status, _ = drive_request(server, endpoint)
        durations.append(time.perf_counter() - started)
        if status != 200:
            raise RuntimeError(f"{endpoint} returned {status}")
    return durations


def run_overhead():
    """The same /ask load with telemetry always-on vs obs disabled.

    Two identical servers; measurement batches alternate between them
    so clock drift and cache warmth hit both modes symmetrically.
    """
    obs.reset()
    obs.disable()
    base_pool, base_source = demo_cluster(1, PRODUCTS, seed=SEED)
    baseline = OpsServer(base_pool, source=base_source)

    on_pool, on_source = demo_cluster(1, PRODUCTS, seed=SEED)
    always_on = OpsServer(on_pool, source=on_source)

    def with_obs(server, offset, count):
        obs.STATE.enabled = True
        try:
            return _drive_batch(server, offset, count)
        finally:
            obs.STATE.enabled = False

    # warm both sides (prepared knowledge, hash caches, allocator)
    _drive_batch(baseline, 0, WARMUP)
    with_obs(always_on, 0, WARMUP)

    off_durations, on_durations = [], []
    for batch in range(BATCHES):
        offset = WARMUP + batch * BATCH_SIZE
        off_durations.extend(_drive_batch(baseline, offset, BATCH_SIZE))
        on_durations.extend(with_obs(always_on, offset, BATCH_SIZE))

    slo_lifetime = {
        objective["name"]: objective["lifetime"]
        for objective in always_on.slo.snapshot()["objectives"]
    }
    return {
        "baseline_s": off_durations,
        "always_on_s": on_durations,
        "sampler": always_on.recorder.stats(),
        "slo_lifetime": slo_lifetime,
    }


def run_fleet_accuracy():
    """Fleet quantiles from the ``cluster.answer`` histogram vs exact
    percentiles over the raw durations in its own ``recent`` window.

    Both sides come from the same observations, so the comparison
    isolates sketch error from client/server timing skew.
    """
    obs.reset()
    obs.enable()
    source = InMemorySource(
        generate_catalog(PRODUCTS, seed=SEED), catalog_type()
    )
    cluster = ShardedWebhouse(
        CATALOG_ALPHABET, tree_type=catalog_type(), shards=FLEET_SHARDS
    )
    try:
        for tenant in range(FLEET_SESSIONS):
            cluster.ask(f"tenant-{tenant}", source, query1())
        for i in range(FLEET_OPS):
            cluster.answer(f"tenant-{i % FLEET_SESSIONS}", query1())
        histogram = obs.metrics.histogram("latency.seconds", layer="cluster.answer")
        pooled = sorted(histogram.recent)
        quantiles = {}
        for q in (0.5, 0.9, 0.99):
            rank = max(0, math.ceil(q * len(pooled)) - 1)
            quantiles[f"p{int(q * 100)}"] = {
                "exact_ms": round(pooled[rank] * 1000, 4),
                "sketch_ms": round(histogram.quantile(q) * 1000, 4),
            }
        rollup = cluster_latency()["answer"]
        return {
            "ops": FLEET_OPS,
            "sketch_count": histogram.sketch.count,
            "pooled_count": len(pooled),
            "relative_accuracy": histogram.sketch.relative_accuracy,
            "quantiles": quantiles,
            "cluster_latency_p99_ms": round(rollup["p99"] * 1000, 4),
        }
    finally:
        cluster.close()
        obs.disable()


def evaluate(overhead, fleet) -> dict:
    failures = []

    off = _percentiles(overhead["baseline_s"])
    on = _percentiles(overhead["always_on_s"])
    overhead_pct = (on["p50_ms"] - off["p50_ms"]) / off["p50_ms"] * 100.0
    if overhead_pct > MAX_OVERHEAD_PCT:
        failures.append(
            f"always-on p50 overhead {overhead_pct:.1f}% > "
            f"{MAX_OVERHEAD_PCT:.0f}% budget"
        )
    if overhead["sampler"]["kept"] == 0:
        failures.append("flight recorder kept nothing under always-on load")

    if not fleet["sketch_count"] == fleet["pooled_count"] == fleet["ops"]:
        failures.append(
            f"sketch saw {fleet['sketch_count']} ops, recent window "
            f"{fleet['pooled_count']}, expected {fleet['ops']}"
        )
    alpha = fleet["relative_accuracy"]
    for name, row in fleet["quantiles"].items():
        if abs(row["sketch_ms"] - row["exact_ms"]) > alpha * row["exact_ms"]:
            failures.append(
                f"fleet {name} sketch {row['sketch_ms']}ms vs exact "
                f"{row['exact_ms']}ms exceeds the {alpha:.0%} bound"
            )

    return {
        "suite": "pr8-slo",
        "requests_per_mode": len(overhead["baseline_s"]),
        "overhead": {
            "baseline": off,
            "always_on": on,
            "p50_overhead_pct": round(overhead_pct, 2),
            "budget_pct": MAX_OVERHEAD_PCT,
            "sampler": overhead["sampler"],
            "slo_lifetime": overhead["slo_lifetime"],
        },
        "fleet": fleet,
        "criteria": {
            "max_overhead_pct": MAX_OVERHEAD_PCT,
            "relative_accuracy": alpha,
            "failures": failures,
            "met": not failures,
        },
    }


def main(argv) -> int:
    args = set(argv[1:])
    if not args <= {"--write", "--check"}:
        print(__doc__)
        return 2
    write, check = "--write" in args, "--check" in args

    previous = (obs.STATE.enabled, obs.STATE.sink)
    try:
        print(
            f"overhead: {BATCHES}x{BATCH_SIZE} asks per mode, alternating "
            f"batches, {PRODUCTS} products..."
        )
        overhead = run_overhead()
        print(
            f"fleet accuracy: {FLEET_SHARDS} shards, {FLEET_OPS} keyed "
            f"answers, ground truth from the histogram's recent window..."
        )
        fleet = run_fleet_accuracy()
    finally:
        obs.STATE.enabled, obs.STATE.sink = previous

    document = evaluate(overhead, fleet)
    o = document["overhead"]
    print(
        f"  baseline  p50 {o['baseline']['p50_ms']:>8.4f}ms  "
        f"p99 {o['baseline']['p99_ms']:>8.4f}ms"
    )
    print(
        f"  always-on p50 {o['always_on']['p50_ms']:>8.4f}ms  "
        f"p99 {o['always_on']['p99_ms']:>8.4f}ms  "
        f"overhead {o['p50_overhead_pct']}% (budget {MAX_OVERHEAD_PCT:.0f}%)"
    )
    for name, row in document["fleet"]["quantiles"].items():
        print(
            f"  fleet {name}: sketch {row['sketch_ms']}ms vs exact "
            f"{row['exact_ms']}ms"
        )
    for failure in document["criteria"]["failures"]:
        print(f"  FAIL: {failure}")
    print(f"criteria: {'PASS' if document['criteria']['met'] else 'FAIL'}")
    if write:
        RESULT_PATH.write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {RESULT_PATH}")
    if check and not document["criteria"]["met"]:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
