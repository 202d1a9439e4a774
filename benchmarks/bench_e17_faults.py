#!/usr/bin/env python
"""E17-faults: disarmed-injection overhead + shard recovery time.

PR 9 threads fault-injection sites through the store, cluster, and ops
layers, always compiled in.  That is only tenable if the *disarmed*
plane is free and the recovery machinery it proves is fast.  Two
measurements, two acceptance criteria:

* **overhead** — the same ``/ask`` workload driven through the full
  in-process request pipeline twice: once with the shipped disarmed
  hooks (one module-global read per site) and once with every call
  site's ``armed`` gate monkeypatched to a constant-False stub (the
  no-plumbing baseline).  Batches alternate between the two servers,
  and the whole comparison repeats for several rounds with the median
  round reported, so scheduler noise hits both sides equally.
  Criterion: disarmed ``/ask`` p50 within **2%** of the baseline;
* **recovery** — a durable 2-shard cluster records a keyed workload,
  is killed (handles abandoned, locks left behind), and every session
  is resumed from its journal+snapshot the way a restarted shard would
  (:meth:`Webhouse.resume` — the same path a shard host's engine
  rebuild and a cluster restart take).  Reported as a per-session recovery-time
  distribution plus the full-fleet restart wall time.  Criterion:
  every session recovers with its acknowledged history intact.

Usage::

    python benchmarks/bench_e17_faults.py              # run + print
    python benchmarks/bench_e17_faults.py --write      # also write BENCH_pr9.json
    python benchmarks/bench_e17_faults.py --check      # exit 1 if criteria unmet
"""

from __future__ import annotations

import json
import math
import shutil
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import repro.cluster.executor as executor_module  # noqa: E402
import repro.obs as obs  # noqa: E402
import repro.ops.server as server_module  # noqa: E402
import repro.store.journal as journal_module  # noqa: E402
import repro.store.snapshot as snapshot_module  # noqa: E402
from repro.cluster import ShardedWebhouse  # noqa: E402
from repro.mediator.source import InMemorySource  # noqa: E402
from repro.mediator.webhouse import Webhouse  # noqa: E402
from repro.ops import OpsServer, demo_cluster  # noqa: E402
from repro.ops.server import drive_request  # noqa: E402
from repro.store import SessionStore  # noqa: E402
from repro.workloads.catalog import (  # noqa: E402
    CATALOG_ALPHABET,
    catalog_type,
    generate_catalog,
    query1,
    query2,
    query3,
    query4,
)

#: Where the result document goes (repo root, committed).
RESULT_PATH = REPO_ROOT / "BENCH_pr9.json"

PRODUCTS = 48
SEED = 7
WARMUP = 60
ROUNDS = 3
BATCHES = 12
BATCH_SIZE = 25

MAX_OVERHEAD_PCT = 2.0

FLEET_SHARDS = 2
FLEET_SESSIONS = 10
FLEET_OPS_PER_SESSION = 4

SPECS = ("q1", "q2", "q3", "q4")

#: Every module that imported the ``armed`` fast gate at a call site.
_GATED_MODULES = (
    server_module,
    journal_module,
    snapshot_module,
    executor_module,
)


def _percentiles(samples):
    ordered = sorted(samples)
    return {
        "p50_ms": round(statistics.median(ordered) * 1000, 4),
        "p99_ms": round(
            ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)] * 1000, 4
        ),
        "count": len(ordered),
    }


class _gates_stubbed:
    """Swap every call site's ``_faults_armed`` for a constant False."""

    def __enter__(self):
        self._saved = [(m, m._faults_armed) for m in _GATED_MODULES]
        for module in _GATED_MODULES:
            module._faults_armed = lambda: False
        return self

    def __exit__(self, *exc):
        for module, gate in self._saved:
            module._faults_armed = gate
        return False


def _drive_batch(server, offset: int, count: int):
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
    """Disarmed hooks vs stubbed-out gates on the same /ask workload.

    The servers are identical; only the module-level ``_faults_armed``
    bindings differ per batch.  Rounds are scored independently and the
    median round's overhead is reported — a single noisy scheduling
    quantum cannot fail the 2% budget.
    """
    obs.reset()
    obs.disable()
    armed_pool, armed_source = demo_cluster(1, PRODUCTS, seed=SEED)
    disarmed = OpsServer(armed_pool, source=armed_source)
    stub_pool, stub_source = demo_cluster(1, PRODUCTS, seed=SEED)
    stubbed = OpsServer(stub_pool, source=stub_source)

    _drive_batch(disarmed, 0, WARMUP)
    with _gates_stubbed():
        _drive_batch(stubbed, 0, WARMUP)

    rounds = []
    for round_index in range(ROUNDS):
        disarmed_durations, stubbed_durations = [], []
        for batch in range(BATCHES):
            offset = WARMUP + (round_index * BATCHES + batch) * BATCH_SIZE
            with _gates_stubbed():
                stubbed_durations.extend(_drive_batch(stubbed, offset, BATCH_SIZE))
            disarmed_durations.extend(_drive_batch(disarmed, offset, BATCH_SIZE))
        baseline = _percentiles(stubbed_durations)
        armed = _percentiles(disarmed_durations)
        rounds.append(
            {
                "baseline": baseline,
                "disarmed": armed,
                "p50_overhead_pct": round(
                    (armed["p50_ms"] - baseline["p50_ms"])
                    / baseline["p50_ms"]
                    * 100.0,
                    2,
                ),
            }
        )
    rounds.sort(key=lambda r: r["p50_overhead_pct"])
    median_round = rounds[len(rounds) // 2]
    return {"rounds": rounds, "median": median_round}


def run_recovery():
    """Kill a durable fleet; time every session's journal+snapshot resume."""
    root = REPO_ROOT / ".bench-e17-recovery"
    store_root = str(root)
    queries = (query1(), query2(), query3(), query4())
    source = InMemorySource(generate_catalog(PRODUCTS, seed=SEED), catalog_type())

    store = SessionStore(store_root)
    for name in store.list_sessions():
        store.delete(name)
    cluster = ShardedWebhouse(
        CATALOG_ALPHABET,
        tree_type=catalog_type(),
        shards=FLEET_SHARDS,
        store=store,
    )
    expected = {}
    for tenant in range(FLEET_SESSIONS):
        key = f"tenant-{tenant}"
        for op in range(FLEET_OPS_PER_SESSION):
            cluster.ask(key, source, queries[(tenant + op) % len(queries)])
        expected[key] = len(cluster.engine(key).history)
    # the kill: abandon every handle without detaching (locks stay on
    # disk; resume breaks them as same-pid stale locks)
    del cluster

    resume_times = []
    recovered = {}
    restart_started = time.perf_counter()
    for name in store.list_sessions():
        started = time.perf_counter()
        engine = Webhouse.resume(store, name)
        engine.prepare()
        resume_times.append(time.perf_counter() - started)
        recovered[name] = len(engine.history)
        engine.detach()
    restart_wall_s = time.perf_counter() - restart_started

    shutil.rmtree(store_root, ignore_errors=True)

    ordered = sorted(resume_times)
    return {
        "sessions": FLEET_SESSIONS,
        "ops_per_session": FLEET_OPS_PER_SESSION,
        "expected_histories": expected,
        "recovered_histories": recovered,
        "resume_ms": {
            "p50": round(statistics.median(ordered) * 1000, 3),
            "p95": round(
                ordered[max(0, math.ceil(0.95 * len(ordered)) - 1)] * 1000, 3
            ),
            "max": round(ordered[-1] * 1000, 3),
            "count": len(ordered),
        },
        "fleet_restart_wall_ms": round(restart_wall_s * 1000, 3),
    }


def evaluate(overhead, recovery) -> dict:
    failures = []
    median = overhead["median"]
    if median["p50_overhead_pct"] > MAX_OVERHEAD_PCT:
        failures.append(
            f"disarmed p50 overhead {median['p50_overhead_pct']}% > "
            f"{MAX_OVERHEAD_PCT:g}% budget"
        )
    if recovery["recovered_histories"] != recovery["expected_histories"]:
        failures.append(
            "recovered histories differ from the acknowledged ones: "
            f"{recovery['recovered_histories']} vs "
            f"{recovery['expected_histories']}"
        )
    if recovery["resume_ms"]["count"] != recovery["sessions"]:
        failures.append(
            f"resumed {recovery['resume_ms']['count']} sessions, "
            f"expected {recovery['sessions']}"
        )
    return {
        "suite": "pr9-faults",
        "overhead": {**overhead, "budget_pct": MAX_OVERHEAD_PCT},
        "recovery": recovery,
        "criteria": {
            "max_overhead_pct": MAX_OVERHEAD_PCT,
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

    print(
        f"overhead: {ROUNDS} rounds x {BATCHES}x{BATCH_SIZE} asks per mode, "
        "alternating batches, disarmed hooks vs stubbed gates..."
    )
    overhead = run_overhead()
    print(
        f"recovery: {FLEET_SHARDS} shards, {FLEET_SESSIONS} sessions x "
        f"{FLEET_OPS_PER_SESSION} ops, kill + resume every session..."
    )
    recovery = run_recovery()

    document = evaluate(overhead, recovery)
    median = overhead["median"]
    print(
        f"  baseline p50 {median['baseline']['p50_ms']:>8.4f}ms  "
        f"disarmed p50 {median['disarmed']['p50_ms']:>8.4f}ms  "
        f"overhead {median['p50_overhead_pct']}% "
        f"(budget {MAX_OVERHEAD_PCT:g}%, per-round "
        f"{[r['p50_overhead_pct'] for r in overhead['rounds']]})"
    )
    resume = recovery["resume_ms"]
    print(
        f"  recovery p50 {resume['p50']}ms  p95 {resume['p95']}ms  "
        f"max {resume['max']}ms over {resume['count']} sessions; "
        f"fleet restart {recovery['fleet_restart_wall_ms']}ms"
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
