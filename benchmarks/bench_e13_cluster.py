#!/usr/bin/env python
"""E13-cluster: sharded pool vs one merged session under concurrent load.

The cluster's scaling argument is *knowledge locality*, not raw thread
parallelism: one engine serving many tenants merges every tenant's
facts into ONE representation, so every local answer pays the
full-corpus knowledge cost (Refine products grow with each distinct
recorded query); the sharded pool keeps one small engine per session,
so each answer pays only that session's cost — and shards serve reads
concurrently, with no lock.

The benchmark runs the same fleet workload twice over HTTP:

* **mono** — an ``OpsServer`` over a one-shard pool whose one session
  holds the *deduplicated* union of every tenant's queries (the merged
  engine's best case: no duplicate refinement), hammered by N client
  threads with ``/ask?q=...&session=mono`` requests — the same routed
  read the cluster side takes, so the comparison measures
  knowledge locality alone;
* **cluster** — an ``OpsServer`` over a 4-shard pool with 16 tenant
  sessions (2 queries each), the same N threads asking each tenant's
  own queries via ``/ask?q=...&session=tenant-K``.

Acceptance criterion: aggregate ``/ask`` throughput at 4 shards / 8
client threads must be **>= 2x** the merged-session baseline.  On a
2-CPU host one side's throughput swings by a quarter between
back-to-back runs, so the two sides are measured in :data:`ROUNDS`
rounds that alternate which side goes first, each side under the same
load every round, and the gate reads the median of the per-round
cluster/mono ratios.  The document records every round, reports
scatter-gather ``ask_all`` latency and re-verifies shard-count
invariance (1 vs 8 shards produce identical certain answers —
Theorems 3.5 / 2.8).

Usage::

    python benchmarks/bench_e13_cluster.py              # run + print
    python benchmarks/bench_e13_cluster.py --write      # also write BENCH_pr7.json
    python benchmarks/bench_e13_cluster.py --check      # exit 1 if criteria unmet
"""

from __future__ import annotations

import json
import statistics
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path
from urllib.parse import quote

sys.path.insert(0, str(Path(__file__).parent))
REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import repro.obs as obs  # noqa: E402
from repro.cluster import ShardedWebhouse  # noqa: E402
from repro.core.parsing import parse_query_spec  # noqa: E402
from repro.mediator.source import InMemorySource  # noqa: E402
from repro.ops import OpsServer  # noqa: E402
from repro.workloads.catalog import (  # noqa: E402
    CATALOG_ALPHABET,
    catalog_type,
    generate_catalog,
    named_queries,
    query1,
)

#: Where the result document goes (repo root, committed).
RESULT_PATH = REPO_ROOT / "BENCH_pr7.json"

SHARDS = 4
CLIENT_THREADS = 8
SESSIONS = 16
REQUESTS_PER_THREAD = 30
PRODUCTS = 24
SEED = 7
#: Rounds of both sides; odd, so the median ratio is one round's.
ROUNDS = 5

#: The fleet's distinct queries; each tenant session records two of
#: them (rotating), the mono baseline records the deduplicated union.
SPECS = (
    "q1",
    "q2",
    "q3",
    "q4",
    "catalog/product/price[<100]",
    "catalog/product/price[<300]",
    "catalog/product/price[<500]",
    "catalog/product/name",
)


def _queries():
    return [parse_query_spec(spec, named=named_queries()) for spec in SPECS]


def _tenant_specs(tenant: int):
    """The two specs session ``tenant-N`` records (and later asks)."""
    return SPECS[(2 * tenant) % len(SPECS)], SPECS[(2 * tenant + 1) % len(SPECS)]


def _source() -> InMemorySource:
    return InMemorySource(generate_catalog(PRODUCTS, seed=SEED), catalog_type())


def _get(base: str, endpoint: str):
    """One request; returns (status, seconds, trace_id)."""
    start = time.perf_counter()
    try:
        with urllib.request.urlopen(base + endpoint, timeout=30) as resp:
            resp.read()
            status = resp.status
            trace_id = resp.headers.get("X-Repro-Trace-Id")
    except urllib.error.HTTPError as exc:
        exc.read()
        status = exc.code
        trace_id = exc.headers.get("X-Repro-Trace-Id")
    return status, time.perf_counter() - start, trace_id


def _hammer(base: str, endpoints_for_thread):
    """N threads, each walking its own endpoint list; returns rows + wall."""
    rows = []
    rows_lock = threading.Lock()

    def client(worker: int) -> None:
        mine = [(e, *_get(base, e)) for e in endpoints_for_thread(worker)]
        with rows_lock:
            rows.extend(mine)

    started = time.perf_counter()
    threads = [
        threading.Thread(target=client, args=(w,)) for w in range(CLIENT_THREADS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return rows, time.perf_counter() - started


def _percentiles(samples):
    ordered = sorted(samples)
    return {
        "p50_ms": round(statistics.median(ordered) * 1000, 3),
        "p95_ms": round(ordered[max(0, int(len(ordered) * 0.95) - 1)] * 1000, 3),
        "count": len(ordered),
    }


def run_mono():
    """The merged baseline: deduped fleet corpus in one session."""
    source = _source()
    cluster = ShardedWebhouse(CATALOG_ALPHABET, tree_type=catalog_type(), shards=1)
    for query in _queries():
        cluster.ask("mono", source, query)
    server = OpsServer(cluster, source=source).start()

    def endpoints(worker: int):
        for i in range(REQUESTS_PER_THREAD):
            tenant = (worker * REQUESTS_PER_THREAD + i) % SESSIONS
            spec = _tenant_specs(tenant)[i % 2]
            yield f"/ask?q={quote(spec, safe='')}&session=mono"

    rows, wall_s = _hammer(server.url, endpoints)
    server.stop()
    knowledge_size = cluster.size()
    cluster.close()
    return {"rows": rows, "wall_s": wall_s, "knowledge_size": knowledge_size}


def build_cluster(shards: int) -> ShardedWebhouse:
    """The fleet: SESSIONS tenant sessions, two recorded queries each."""
    source = _source()
    cluster = ShardedWebhouse(
        CATALOG_ALPHABET, tree_type=catalog_type(), shards=shards
    )
    named = named_queries()
    for tenant in range(SESSIONS):
        for spec in _tenant_specs(tenant):
            cluster.ask(
                f"tenant-{tenant}", source, parse_query_spec(spec, named=named)
            )
    return cluster


def run_cluster():
    """The pool under the same client load, asks routed per tenant."""
    cluster = build_cluster(SHARDS)
    server = OpsServer(cluster, source=_source()).start()

    def endpoints(worker: int):
        for i in range(REQUESTS_PER_THREAD):
            tenant = (worker * REQUESTS_PER_THREAD + i) % SESSIONS
            spec = _tenant_specs(tenant)[i % 2]
            yield f"/ask?q={quote(spec, safe='')}&session=tenant-{tenant}"

    rows, wall_s = _hammer(server.url, endpoints)

    # scatter-gather figure: fleet-wide certain-answer union, direct call
    ask_all_s = []
    for _ in range(10):
        t0 = time.perf_counter()
        cluster.ask_all(query1())
        ask_all_s.append(time.perf_counter() - t0)

    server.stop()
    stats = cluster.stats_all()
    cluster.close()
    return {
        "rows": rows,
        "wall_s": wall_s,
        "ask_all_s": ask_all_s,
        "stats": stats,
    }


def check_invariance() -> bool:
    """Same fact sequence on 1 and 8 shards => identical certain answers."""

    def facts(tree):
        return sorted(
            (n, tree.label(n), tree.value(n), tree.parent(n))
            for n in tree.node_ids()
        )

    one, eight = build_cluster(1), build_cluster(8)
    try:
        for query in _queries():
            sure_1, more_1 = one.ask_all(query)
            sure_8, more_8 = eight.ask_all(query)
            if facts(sure_1) != facts(sure_8) or more_1 != more_8:
                return False
        return True
    finally:
        one.close()
        eight.close()


def run_rounds():
    """:data:`ROUNDS` rounds of both sides, alternating which goes first;
    returns the per-round results of each side."""
    monos, clusters = [], []
    for round_index in range(ROUNDS):
        sides = [("mono", run_mono, monos), ("cluster", run_cluster, clusters)]
        if round_index % 2:
            sides.reverse()
        for name, run, results in sides:
            print(f"  round {round_index + 1}/{ROUNDS}: {name}...")
            results.append(run())
    return monos, clusters


def evaluate(monos, clusters, invariance_ok: bool) -> dict:
    failures = []
    all_rows = [row for side in monos + clusters for row in side["rows"]]
    for endpoint, status, _, _ in all_rows:
        if status != 200:
            failures.append(f"{endpoint} returned {status}")
            break
    trace_ids = [row[3] for row in all_rows]
    if None in trace_ids:
        failures.append("response without X-Repro-Trace-Id header")
    if len(set(trace_ids)) != len(trace_ids):
        failures.append("duplicate trace ids across requests")
    if not invariance_ok:
        failures.append("certain answers differ between 1 and 8 shards")

    def rps(side) -> float:
        return len(side["rows"]) / side["wall_s"]

    rounds = [
        {
            "first": "mono" if index % 2 == 0 else "cluster",
            "mono_rps": round(rps(mono), 1),
            "cluster_rps": round(rps(cluster), 1),
            "ratio": round(rps(cluster) / rps(mono), 3),
        }
        for index, (mono, cluster) in enumerate(zip(monos, clusters))
    ]
    speedup = statistics.median(rps(c) / rps(m) for m, c in zip(monos, clusters))
    if speedup < 2.0:
        failures.append(f"cluster speedup {speedup:.2f}x (median of rounds) < required 2x")

    mono, cluster = monos[-1], clusters[-1]
    shard_sessions = [s["sessions"] for s in cluster["stats"]["per_shard"]]
    return {
        "suite": "pr7-cluster",
        "shards": SHARDS,
        "client_threads": CLIENT_THREADS,
        "sessions": SESSIONS,
        "requests_per_side": len(mono["rows"]),
        "rounds": rounds,
        "mono": {
            "wall_s": round(statistics.median(m["wall_s"] for m in monos), 4),
            "throughput_rps": round(statistics.median(rps(m) for m in monos), 1),
            "ask": _percentiles([r[2] for m in monos for r in m["rows"]]),
            "knowledge_size": mono["knowledge_size"],
        },
        "cluster": {
            "wall_s": round(statistics.median(c["wall_s"] for c in clusters), 4),
            "throughput_rps": round(statistics.median(rps(c) for c in clusters), 1),
            "ask": _percentiles([r[2] for c in clusters for r in c["rows"]]),
            "knowledge_size": cluster["stats"]["knowledge_size"],
            "sessions_per_shard": shard_sessions,
            "ask_all": _percentiles([s for c in clusters for s in c["ask_all_s"]]),
        },
        "speedup": round(speedup, 2),
        "shard_count_invariance": invariance_ok,
        "criteria": {
            "required_speedup": 2.0,
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

    obs.reset()
    previous = (obs.STATE.enabled, obs.STATE.sink)
    obs.enable(obs.RingBufferSink())
    try:
        print(
            f"{ROUNDS} rounds, alternating which side goes first, each side "
            f"{CLIENT_THREADS} threads x {REQUESTS_PER_THREAD} asks: mono is 1 "
            f"session with {len(SPECS)} deduped queries, cluster {SHARDS} shards "
            f"with {SESSIONS} sessions and routed asks..."
        )
        monos, clusters = run_rounds()
        print("invariance: replaying the fleet on 1 and 8 shards...")
        invariance_ok = check_invariance()
    finally:
        obs.STATE.enabled, obs.STATE.sink = previous

    document = evaluate(monos, clusters, invariance_ok)
    for index, row in enumerate(document["rounds"]):
        print(
            f"  round {index + 1} ({row['first']} first): mono {row['mono_rps']} req/s, "
            f"cluster {row['cluster_rps']} req/s, x{row['ratio']}"
        )
    m, c = document["mono"], document["cluster"]
    print(
        f"  mono     {m['throughput_rps']:>7.1f} req/s  "
        f"p50 {m['ask']['p50_ms']:>7.3f}ms  knowledge {m['knowledge_size']}"
    )
    print(
        f"  cluster  {c['throughput_rps']:>7.1f} req/s  "
        f"p50 {c['ask']['p50_ms']:>7.3f}ms  knowledge {c['knowledge_size']} "
        f"across shards {c['sessions_per_shard']}"
    )
    print(
        f"  median speedup {document['speedup']}x (required >= 2x); "
        f"ask_all p50 {c['ask_all']['p50_ms']}ms; "
        f"invariance {'OK' if invariance_ok else 'BROKEN'}"
    )
    for failure in document["criteria"]["failures"]:
        print(f"  FAIL: {failure}")
    print(f"criteria: {'PASS' if document['criteria']['met'] else 'FAIL'}")
    if write:
        RESULT_PATH.write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"wrote {RESULT_PATH}")
    if check and not document["criteria"]["met"]:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
