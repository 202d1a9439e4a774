#!/usr/bin/env python
"""E12-ops: concurrent load against the live ops plane.

Starts an in-process :class:`repro.ops.OpsServer` over a one-shard
catalog pool (:func:`repro.ops.demo_cluster`), then hammers it with
threaded HTTP clients alternating ``/ask`` (all four catalog queries),
``/metrics`` and ``/healthz``, plus a deliberate stream of malformed
queries.  Reports per-endpoint latency percentiles, request throughput,
the HTTP overhead over calling the engine directly, and verifies the
ops-plane contracts under load:

* every response carries a unique ``X-Repro-Trace-Id``;
* no cross-thread span parentage (every span of a retained trace root
  carries that root's trace id);
* ``/metrics`` output passes ``validate_prometheus_text`` and includes
  ``repro_cache_*`` series;
* the flight recorder retains **every** errored trace;
* the flight-recorder dump passes ``validate_chrome_trace``.

Usage::

    python benchmarks/bench_e12_ops.py              # run + print
    python benchmarks/bench_e12_ops.py --write      # also write BENCH_pr6.json
    python benchmarks/bench_e12_ops.py --check      # exit 1 on any violated contract
"""

from __future__ import annotations

import json
import statistics
import sys
import threading
import time
import urllib.request
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import repro.obs as obs  # noqa: E402
import repro.perf as perf  # noqa: E402
from repro.obs.export import (  # noqa: E402
    validate_chrome_trace,
    validate_prometheus_text,
)
from repro.ops import FlightRecorder, OpsServer, demo_cluster  # noqa: E402
from repro.workloads.catalog import query1  # noqa: E402

#: Where the result document goes (repo root, committed).
RESULT_PATH = REPO_ROOT / "BENCH_pr6.json"

THREADS = 6
REQUESTS_PER_THREAD = 24
ERROR_REQUESTS = 12  # malformed /ask probes (must all be retained as errored)

#: The request mix one client thread cycles through.
MIX = (
    "/ask?q=q1",
    "/metrics",
    "/ask?q=q2",
    "/healthz",
    "/ask?q=q4",
    "/ask?q=catalog/product/price[<300]",
)


def _get(base: str, endpoint: str):
    """One request; returns (endpoint, status, seconds, trace_id, body)."""
    start = time.perf_counter()
    try:
        with urllib.request.urlopen(base + endpoint, timeout=10) as resp:
            body = resp.read()
            status = resp.status
            trace_id = resp.headers.get("X-Repro-Trace-Id")
    except urllib.error.HTTPError as exc:
        body = exc.read()
        status = exc.code
        trace_id = exc.headers.get("X-Repro-Trace-Id")
    return endpoint, status, time.perf_counter() - start, trace_id, body


def _percentiles(samples):
    ordered = sorted(samples)
    return {
        "p50_ms": round(statistics.median(ordered) * 1000, 3),
        "p95_ms": round(ordered[max(0, int(len(ordered) * 0.95) - 1)] * 1000, 3),
        "max_ms": round(ordered[-1] * 1000, 3),
        "count": len(ordered),
    }


def run_load():
    recorder = FlightRecorder(
        capacity=THREADS * REQUESTS_PER_THREAD + 16,
        errored_capacity=ERROR_REQUESTS + 16,
    )
    cluster, source = demo_cluster(shards=1, products=6)
    server = OpsServer(cluster, source=source, recorder=recorder).start()
    base = server.url
    results = []
    results_lock = threading.Lock()

    def client(worker: int) -> None:
        rows = []
        for i in range(REQUESTS_PER_THREAD):
            endpoint = MIX[(worker + i) % len(MIX)]
            rows.append(_get(base, endpoint))
        with results_lock:
            results.extend(rows)

    started = time.perf_counter()
    threads = [threading.Thread(target=client, args=(w,)) for w in range(THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall_s = time.perf_counter() - started

    # a burst of malformed queries: every one must land in the errored ring
    error_rows = [_get(base, "/ask?q=%5Bnot-a-query") for _ in range(ERROR_REQUESTS)]

    # live-scrape validation under the post-load state
    _, metrics_status, _, _, metrics_body = _get(base, "/metrics")
    _, flight_status, _, _, flight_body = _get(base, "/debug/flightrecorder")

    # direct-call baseline for the /ask overhead figure
    q = query1()
    engine = cluster.engine("demo")
    direct = []
    for _ in range(50):
        t0 = time.perf_counter()
        engine.answer_with_caveats(q)
        direct.append(time.perf_counter() - t0)

    server.stop()
    cluster.close()
    return {
        "results": results,
        "error_rows": error_rows,
        "wall_s": wall_s,
        "recorder": recorder,
        "metrics": (metrics_status, metrics_body),
        "flight": (flight_status, flight_body),
        "direct_ask_s": direct,
    }


def evaluate(load) -> dict:
    results = load["results"]
    failures = []

    by_endpoint = {}
    for endpoint, status, seconds, trace_id, _ in results:
        key = endpoint.split("?")[0]
        by_endpoint.setdefault(key, []).append(seconds)
        if status != 200:
            failures.append(f"{endpoint} returned {status}")
    endpoint_stats = {k: _percentiles(v) for k, v in sorted(by_endpoint.items())}

    trace_ids = [row[3] for row in results + load["error_rows"]]
    if None in trace_ids:
        failures.append("response without X-Repro-Trace-Id header")
    if len(set(trace_ids)) != len(trace_ids):
        failures.append("duplicate trace ids across requests")

    for _, status, _, _, _ in load["error_rows"]:
        if status != 400:
            failures.append(f"malformed query returned {status}, expected 400")
    recorder = load["recorder"]
    rec_stats = recorder.stats()
    if rec_stats["retained_errored"] < len(load["error_rows"]):
        failures.append(
            f"flight recorder dropped errored traces "
            f"({rec_stats['retained_errored']} < {len(load['error_rows'])})"
        )

    # every retained trace must be single-trace-id: no cross-thread adoption
    for root in recorder.roots():
        root_tid = root.attrs.get("trace_id")
        stack = [root]
        while stack:
            node = stack.pop()
            if node.attrs.get("trace_id") != root_tid:
                failures.append(
                    f"span {node.name!r} carries trace {node.attrs.get('trace_id')!r} "
                    f"inside trace {root_tid!r}"
                )
                break
            stack.extend(node.children)

    metrics_status, metrics_body = load["metrics"]
    try:
        samples = validate_prometheus_text(metrics_body.decode("utf-8"))
        if not any(name.startswith("repro_cache_") for name in samples):
            failures.append("no repro_cache_* series in /metrics")
    except ValueError as exc:
        failures.append(f"/metrics failed validation: {exc}")
    flight_status, flight_body = load["flight"]
    try:
        flight_events = validate_chrome_trace(json.loads(flight_body.decode("utf-8")))
    except ValueError as exc:
        flight_events = 0
        failures.append(f"/debug/flightrecorder failed validation: {exc}")

    ask_p50 = endpoint_stats.get("/ask", {}).get("p50_ms", 0.0)
    direct_p50 = round(statistics.median(load["direct_ask_s"]) * 1000, 3)
    return {
        "suite": "pr6-ops",
        "threads": THREADS,
        "requests": len(results),
        "error_requests": len(load["error_rows"]),
        "wall_s": round(load["wall_s"], 4),
        "throughput_rps": round(len(results) / load["wall_s"], 1),
        "endpoints": endpoint_stats,
        "ask_overhead": {
            "http_p50_ms": ask_p50,
            "direct_p50_ms": direct_p50,
            "overhead_ms": round(ask_p50 - direct_p50, 3),
        },
        "flight_recorder": rec_stats,
        "flight_trace_events": flight_events,
        "criteria": {
            "min_threads": 4,
            "unique_trace_ids": len(set(t for t in trace_ids if t)),
            "failures": failures,
            "met": not failures and THREADS >= 4,
        },
    }


def main(argv) -> int:
    args = set(argv[1:])
    if not args <= {"--write", "--check"}:
        print(__doc__)
        return 2
    write, check = "--write" in args, "--check" in args

    obs.reset()
    perf.clear_caches()
    previous = (obs.STATE.enabled, obs.STATE.sink)
    obs.enable(obs.RingBufferSink())
    perf.enable_caches()
    try:
        print(
            f"ops load: {THREADS} client threads x {REQUESTS_PER_THREAD} requests "
            f"+ {ERROR_REQUESTS} malformed..."
        )
        document = evaluate(run_load())
    finally:
        obs.STATE.enabled, obs.STATE.sink = previous
        perf.disable_caches()

    for endpoint, row in document["endpoints"].items():
        print(
            f"  {endpoint:<28} p50 {row['p50_ms']:>8.3f}ms  "
            f"p95 {row['p95_ms']:>8.3f}ms  x{row['count']}"
        )
    overhead = document["ask_overhead"]
    print(
        f"  /ask overhead: http p50 {overhead['http_p50_ms']}ms vs direct "
        f"{overhead['direct_p50_ms']}ms (+{overhead['overhead_ms']}ms)"
    )
    print(
        f"  {document['throughput_rps']} req/s over {document['wall_s']}s; "
        f"flight recorder {document['flight_recorder']['retained_completed']} completed / "
        f"{document['flight_recorder']['retained_errored']} errored retained"
    )
    met = document["criteria"]["met"]
    if document["criteria"]["failures"]:
        for failure in document["criteria"]["failures"]:
            print(f"  FAIL: {failure}")
    print(f"contracts: {'PASS' if met else 'FAIL'}")
    if write:
        RESULT_PATH.write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"wrote {RESULT_PATH}")
    if check and not met:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
