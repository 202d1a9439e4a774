#!/usr/bin/env python3
"""End-to-end benchmark of the served program, with per-layer attribution.

Each run spawns ``python -m repro serve --shards 4`` from this checkout,
seeds its sessions over HTTP with ``mode=fetch``, drives one workload
from one generator process over at most two persistent connections,
checks every response against an in-process oracle, and stops the
server with SIGINT.  BENCHMARK.json names the metrics; see README.md
for what each one means and which layer should move it.

Usage::

    python3 benchmarks/e2e/run.py                       # all four workloads
    python3 benchmarks/e2e/run.py --workload read_hot --seed 7 --seconds 12
    python3 benchmarks/e2e/run.py --workload read_cold --trace 1
    python3 benchmarks/e2e/run.py --backend process     # ungated reading
    python3 benchmarks/e2e/run.py --smoke               # 2 s windows
    python3 benchmarks/e2e/run.py --out runs.jsonl ...  # append run records
    python3 benchmarks/e2e/run.py --compare A.jsonl B.jsonl

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the ``end_to_end`` metrics,
or with ``--trace 1`` the ``per_layer`` ones).  The exit code is 0 only
when every response was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parents[1]
SRC = CHECKOUT / "src"

from layers import TracedRequest, load, requests as traced_requests  # noqa: E402
from load import Record, Server, closed_loop, ladder_step, run_streams, sequence  # noqa: E402
from stats import beyond, percentile, tail_level, verdict  # noqa: E402
from workloads import CATALOG_SEED, WORKLOADS, Oracle, Plan, Request, Workload, mismatch  # noqa: E402

SETUPS = 3
#: Slices per server window that ``rps`` is the median rate of.
SLICES = 8
#: Warmup per server: long enough for read_hot's and fleet's memo
#: entries to fill before timing starts.
WARMUP_S = 1.5
#: The open-loop ladder on read_hot: doubling rates, step length, and
#: the per-step p90 limit (the server's own latency SLO threshold).
LADDER_RATES = (25, 50, 100, 200, 400, 800)
LADDER_STEP_S = 4.0
SLO_S = 0.25

#: End-to-end figures every run records but BENCHMARK.json does not
#: gate: CPU time per request follows this host's speed drift in full
#: (no fixed stall dilutes it), and its spread over ten read_cold runs
#: reached 23%, next to the largest bound a metric may have.
UNGATED = [{"name": "cpu_ms_per_req", "unit": "ms", "better": "lower"}]

#: The perf memo tables whose hit ratio is read off ``/metrics``.
CACHE_TABLES = ("query_incomplete", "emptiness", "matching", "normalize", "type_intersect", "refine")


def _spec() -> Dict[str, object]:
    return json.loads((CHECKOUT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _host() -> Dict[str, object]:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def _latencies_ms(records: Sequence[Record]) -> List[float]:
    # a failed request misses every latency limit
    return sorted(r.latency * 1000.0 if r.status == 200 else float("inf") for r in records)


# -- one run -------------------------------------------------------------------


class Run:
    """One workload run: set up, warm up and measure one server after another.

    A run sets up :data:`SETUPS` fresh servers (``setup_s`` is their
    median) and gives each an equal share of the measured window; each
    replays the same seeded request stream, so what varies between them
    is only the served process itself (memory layout, scheduling), and
    pooling their samples averages that out.  A traced run has the same
    shape, so that comparing it with an untraced one isolates the
    tracing overhead; a smoke run uses one server.
    """

    def __init__(self, workload: Workload, seed: int, seconds: float, trace: bool,
                 backend: str, smoke: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.backend = backend
        self.smoke = smoke
        self.servers = 1 if smoke else SETUPS
        self.plan = Plan(workload, seed)
        self.work = HERE / ".work" / f"run-{os.getpid()}-{workload.name}"
        self.records: List[Record] = []
        #: per server, when its window opened and the window's records
        self.windows: List[Tuple[float, List[Record]]] = []
        self.setup_s: List[float] = []
        self.window_s = 0.0
        self.cpu_s = 0.0
        self.rss_mb: List[float] = []
        self.detail: Dict[str, object] = {}

    def _argv(self, index: int) -> List[str]:
        serve = [
            "serve", "--shards", "4",
            "--products", str(self.workload.products),
            "--seed", str(CATALOG_SEED),
            "--port", "0",
            "--root", str(self.work / f"sessions{index}"),
            "--backend", self.backend,
        ]
        if self.trace:
            return [sys.executable, str(HERE / "traced_serve.py"), "--spans",
                    str(self._spans_path(index)), *serve]
        return [sys.executable, "-m", "repro", *serve]

    def _spans_path(self, index: int) -> Path:
        return self.work / f"spans{index}.json"

    def _env(self) -> Dict[str, str]:
        # a pinned hash seed keeps set iteration order, and with it the
        # engine's work per request, the same from run to run
        return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")

    def execute(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        try:
            for index in range(self.servers):
                self._serve(index, last=index == self.servers - 1)
            if self.trace:
                self.spans = load([self._spans_path(i) for i in range(self.servers)])
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
            try:
                self.work.parent.rmdir()
            except OSError:
                pass  # another run is still using it

    def _serve(self, index: int, last: bool) -> None:
        server = Server(CHECKOUT, self._argv(index), self._env())
        clients = []
        try:
            started = time.perf_counter()
            server.start()
            wanted = max(self.workload.seeders, self.workload.connections)
            clients = [server.client() for _ in range(wanted)]
            seeding = self.plan.seeding()
            run_streams(clients, [sequence(s, "seed", self.records) for s in seeding])
            self.setup_s.append(time.perf_counter() - started)
            self._measure(server, clients, last)
        finally:
            for client in clients:
                client.close()
            code = server.stop()
        if code != 0:
            raise RuntimeError(f"server exited with code {code}")

    def _measure(self, server: Server, clients: List, last: bool) -> None:
        streams = self.plan.streams(self.workload.connections)
        warmup = 0.5 if self.smoke else WARMUP_S
        end = time.perf_counter() + warmup
        run_streams(clients, [closed_loop(s, "warmup", end, self.records) for s in streams])
        window: List[Record] = []
        started = time.perf_counter()
        cpu_before = server.cpu_seconds()
        end = started + self.seconds / self.servers
        run_streams(clients, [closed_loop(s, "window", end, window) for s in streams])
        window_s = max(r.end for r in window) - started
        cpu_s = server.cpu_seconds() - cpu_before
        self.window_s += window_s
        self.cpu_s += cpu_s
        self.rss_mb.append(server.peak_rss_mb())
        self.records.extend(window)
        self.windows.append((started, window))
        self.detail.setdefault("servers", []).append({
            "requests": len(window),
            "rps": len(window) / window_s,
            "cpu_ms_per_req": cpu_s * 1000.0 / len(window),
            "peak_rss_mb": self.rss_mb[-1],
        })
        if not last:
            return
        if self.workload.name == "read_hot" and not self.trace:
            self._ladder(clients, streams[0])
        probe = Record(Request("probe", "/metrics"), "probe")
        self.records.append(probe)
        clients[0].send(probe)
        self.metrics_text = probe.body.decode("utf-8", "replace")

    def _ladder(self, clients: List, stream) -> None:
        """The highest rung of the open-loop ladder that meets the SLO.

        Two connections cannot carry more than the closed loop's rate, so
        a rung far above it would only pile up backlog: lateness reaches
        the 100 ms limit at any rung above ``capacity / 0.9`` within a 4 s
        step.  The ladder therefore starts at the highest rung at or
        below the measured capacity, climbs while the next rung could
        still pass, and steps down on a failure; its cost stays one or
        two steps however fast the server gets.
        """
        rates = LADDER_RATES[:2] if self.smoke else LADDER_RATES
        step_s = 1.0 if self.smoke else LADDER_STEP_S
        capacity = sum(s["requests"] for s in self.detail["servers"]) / self.window_s
        index = max([i for i, r in enumerate(rates) if r <= capacity], default=0)
        steps, best, tried = [], 0, set()
        while 0 <= index < len(rates) and index not in tried:
            tried.add(index)
            step = ladder_step(clients, stream, rates[index], step_s, SLO_S, self.records)
            steps.append(step)
            if step["pass"]:
                best = max(best, rates[index])
                if index + 1 >= len(rates) or capacity < 0.9 * rates[index + 1]:
                    break
                index += 1
            elif best:
                break
            else:
                index -= 1
        self.detail["ladder"] = {
            "step_s": step_s,
            "slo_p90_ms": SLO_S * 1000,
            "closed_loop_rps": capacity,
            "steps": steps,
        }
        self.detail["ask_max_rps_at_slo"] = best

    # -- verification --------------------------------------------------------

    def verify(self) -> List[str]:
        """Check every response; returns one line per failed request."""
        oracle = Oracle(self.workload.products)
        failures = []
        try:
            for record in self.records:
                problem = ""
                if record.status != 200:
                    problem = f"status {record.status}"
                elif record.request.kind != "probe":
                    try:
                        got = json.loads(record.body)
                    except ValueError:
                        got = None
                    problem = mismatch(got if isinstance(got, dict) else None,
                                       oracle.expected(record.request))
                if problem:
                    failures.append(f"{record.phase} {record.request.path}: {problem}")
        finally:
            oracle.close()
        return failures

    # -- metrics --------------------------------------------------------------

    def end_to_end(self) -> Dict[str, float]:
        window = [r for r in self.records if r.phase == "window"]
        reads = [r for r in window if r.request.kind in ("ask", "fleet")]
        fetches = [r for r in self.records if r.request.kind == "fetch" and r.phase in ("seed", "window")]
        read_ms = _latencies_ms(reads)
        level = tail_level(len(read_ms), self.workload.tail)
        fetch_ms = _latencies_ms(fetches)
        self.detail["samples"] = {
            "window": len(window),
            "reads": len(read_ms),
            "fetches": len(fetch_ms),
            "tail_level": level,
            "tail_beyond": beyond(len(read_ms), level),
        }
        self.detail["setup_runs_s"] = self.setup_s
        return {
            "setup_s": statistics.median(self.setup_s),
            "rps": statistics.median(self._slice_rates()),
            "ask_p50_ms": percentile(read_ms, 0.5),
            "ask_tail_ms": percentile(read_ms, level),
            "fetch_p50_ms": percentile(fetch_ms, 0.5),
            "cpu_ms_per_req": self.cpu_s * 1000.0 / len(window),
            "peak_rss_mb": statistics.median(self.rss_mb),
        }

    def _slice_rates(self) -> List[float]:
        """Throughput of each window slice.

        Each server's window is cut into :data:`SLICES` runs of
        consecutive completions; a slice's rate is its completions over
        the time since the previous slice ended.  ``rps`` is the median
        over every slice of every server, so a few seconds in which a
        neighbour on the host takes the CPU move it much less than they
        move the pooled rate.
        """
        rates = []
        for started, window in self.windows:
            done = sorted(r.end for r in window)
            bounds = [round(i * len(done) / SLICES) for i in range(SLICES + 1)]
            previous = started
            for low, high in zip(bounds, bounds[1:]):
                if high > low:
                    rates.append((high - low) / (done[high - 1] - previous))
                    previous = done[high - 1]
        return rates

    def _counters(self) -> Dict[str, float]:
        values = {}
        for line in self.metrics_text.splitlines():
            match = re.match(r"^(repro_[A-Za-z0-9_]+) ([0-9.eE+-]+)$", line)
            if match:
                values[match.group(1)] = float(match.group(2))
        return values

    def scraped(self) -> Dict[str, float]:
        """Memo hit ratios (over the last server's life) and admission
        sheds, read off its ``/metrics`` after the window."""
        counters = self._counters()
        found = {}
        for table in CACHE_TABLES:
            hits = counters.get(f"repro_cache_{table}_hits_total", 0.0)
            misses = counters.get(f"repro_cache_{table}_misses_total", 0.0)
            found[f"perf.{table}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        found["cluster.shed"] = sum(
            v for k, v in counters.items() if re.match(r"repro_shard_\d+_shed$", k)
        )
        return found

    def per_layer(self) -> Dict[str, float]:
        traced = traced_requests(self.spans)
        fetches, joined = [], []
        for record in self.records:
            request = traced.get(record.trace_id or "")
            if request is None or record.status != 200:
                continue
            if record.phase == "window" and record.request.kind in ("ask", "fleet"):
                joined.append((record, request))
            elif record.request.kind == "fetch" and record.phase in ("seed", "window"):
                fetches.append(request)
        reads = [request for _, request in joined]
        if not reads or not fetches:
            raise RuntimeError("traced run joined no reads or no fetches to server spans")

        def mean(rows: List[TracedRequest], table: str, layer: str) -> float:
            return sum(getattr(r, table).get(layer, 0.0) for r in rows) * 1000.0 / len(rows)

        def calls(rows: List[TracedRequest], layer: str) -> float:
            return sum(r.calls.get(layer, 0) for r in rows) / len(rows)

        transport = [(rec.end - rec.start - req.duration) * 1000.0 for rec, req in joined]
        tasks = [r.tasks for r in reads if r.tasks]
        metrics = {
            "http.transport_ms": sum(transport) / len(transport),
            "ops.handle.self_ms": mean(reads, "self_s", "http.handle"),
            "ops.dispatch.self_ms": mean(reads, "self_s", "ops.dispatch"),
            "ops.finish_ms": mean(reads, "inclusive_s", "ops.finish"),
            "core.parse_ms": mean(reads, "inclusive_s", "core.parse"),
            "cluster.self_ms": sum(
                mean(reads, "self_s", layer)
                for layer in ("cluster.route", "cluster.fanout", "cluster.task")
            ),
            "cluster.lock_wait_ms": mean(reads, "inclusive_s", "cluster.lock_wait"),
            "mediator.answer.self_ms": mean(reads, "self_s", "mediator.answer"),
            "answering.fully_answerable.self_ms": mean(reads, "self_s", "answering.fully_answerable"),
            "answering.q_of_T_ms": mean(reads, "inclusive_s", "answering.q_of_T"),
            "incomplete.certain_prefix_ms": mean(reads, "inclusive_s", "incomplete.certain_prefix"),
            "incomplete.emptiness_ms": mean(reads, "inclusive_s", "incomplete.emptiness"),
            "incomplete.emptiness_calls": calls(reads, "incomplete.emptiness"),
            "core.matching_ms": mean(reads, "inclusive_s", "core.matching"),
            "core.matching_calls": calls(reads, "core.matching"),
            "refine.refine_ms": mean(fetches, "inclusive_s", "refine.refine"),
            "refine.type_intersect_ms": mean(fetches, "inclusive_s", "refine.type_intersect"),
            "mediator.source_ms": mean(fetches, "inclusive_s", "mediator.source"),
            "mediator.prepare_ms": mean(fetches, "inclusive_s", "mediator.prepare"),
            # the fan-out's own figures; zero on the keyed workloads
            "cluster.route.self_ms": mean(reads, "self_s", "cluster.route"),
            "cluster.fanout.self_ms": mean(reads, "self_s", "cluster.fanout"),
            "cluster.merge_ms": mean(reads, "inclusive_s", "cluster.merge"),
            "cluster.shard_max_ms": (
                sum(max(t) for t in tasks) * 1000.0 / len(tasks) if tasks else 0.0
            ),
            "cluster.shard_skew": (
                sum(max(t) * len(t) / sum(t) for t in tasks) / len(tasks) if tasks else 0.0
            ),
        }
        metrics.update(self.scraped())
        self._layer_detail(reads, fetches, joined, transport)
        return metrics

    def _layer_detail(self, reads, fetches, joined, transport) -> None:
        client_ms = [(rec.end - rec.start) * 1000.0 for rec, _ in joined]
        server_ms = [req.duration * 1000.0 for _, req in joined]
        total_client = sum(client_ms)

        def table(rows: List[TracedRequest], total_ms: float) -> Dict[str, object]:
            layers = sorted({name for r in rows for name in r.self_s})
            return {
                name: {
                    "self_ms": sum(r.self_s.get(name, 0.0) for r in rows) * 1000.0 / len(rows),
                    "share": sum(r.self_s.get(name, 0.0) for r in rows) * 1000.0 / total_ms,
                    "calls": sum(r.calls.get(name, 0) for r in rows) / len(rows),
                }
                for name in layers
            }

        self.detail["reads"] = {
            "requests": len(reads),
            "client_p50_ms": statistics.median(client_ms),
            "server_p50_ms": statistics.median(server_ms),
            "transport_p50_ms": statistics.median(transport),
            "transport_share": sum(transport) / total_client,
            # self times add up to the server span by construction; a
            # positive excess means a span escaped its request
            "max_self_excess_ms": max(
                (sum(r.self_s.values()) - r.duration) * 1000.0 for _, r in joined
            ),
            "layers": table(reads, total_client),
        }
        self.detail["fetches"] = {
            "requests": len(fetches),
            "layers": table(fetches, sum(r.duration for r in fetches) * 1000.0),
        }


# -- reporting ------------------------------------------------------------------


def _unit_table(spec: Dict[str, object], key: str) -> Dict[str, str]:
    return {row["name"]: row["unit"] for row in spec[key]}


def run_one(name: str, args, spec) -> Dict[str, object]:
    workload = WORKLOADS[name]
    run = Run(workload, args.seed, args.seconds, bool(args.trace), args.backend, args.smoke)
    host = _host()
    started = time.perf_counter()
    run.execute()
    served = time.perf_counter()
    failures = run.verify()
    run.detail["run_s"] = {"serve": served - started, "verify": time.perf_counter() - served}
    e2e = run.end_to_end()
    layers = run.per_layer() if args.trace else {}
    if not args.trace:
        run.detail["scraped"] = run.scraped()
    label = " (process backend: ungated, not part of BENCHMARK.json)" if args.backend == "process" else ""
    print(f"## {name} seed={args.seed} window={args.seconds:g}s trace={args.trace}{label}")
    print(f"# host cpu_count={host['cpu_count']} python={host['python']} loadavg={host['loadavg']}")
    print("# " + next(w["why"] for w in spec["workloads"] if w["name"] == name))
    key = "per_layer" if args.trace else "end_to_end"
    units = _unit_table(spec, key)
    shown = layers if args.trace else e2e
    for metric, unit in units.items():
        print(f"{metric:<38} {shown[metric]:>14.4f} {unit}")
    print("# also measured, not in BENCHMARK.json (too noisy on this host, or zero or fixed on some workloads):")
    for metric in sorted(set(shown) - set(units)):
        print(f"#   {metric:<34} {shown[metric]:>14.4f}")
    if args.trace:
        print("# end-to-end under tracing (compare with an untraced run for the overhead):")
        for metric, value in e2e.items():
            print(f"#   {metric:<34} {value:>14.4f}")
    attempted = len(run.records)
    print(f"# requests attempted={attempted} failed={len(failures)} "
          f"error_rate={len(failures) / attempted:.6f}")
    for line in failures[:5]:
        print(f"# FAIL {line}")
    print("# detail " + json.dumps(run.detail, sort_keys=True, default=float))
    record = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": args.backend,
        "host": host,
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "end_to_end": e2e,
        "per_layer": layers,
        "detail": run.detail,
    }
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True, default=float) + "\n")
    return record


def _result(records: List[Dict[str, object]], spec, trace: int) -> Dict[str, object]:
    key = "per_layer" if trace else "end_to_end"
    units = _unit_table(spec, key)
    metrics = {}
    for record in records:
        prefix = "" if len(records) == 1 else f"{record['workload']}."
        for metric, unit in units.items():
            metrics[prefix + metric] = {"value": record[key][metric], "unit": unit}
    return {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }


def compare(path_a: str, path_b: str, spec) -> int:
    """Per workload and metric: both sides' medians and quartiles, the
    pair win fraction, and a verdict against BENCHMARK.json's bounds."""

    def read(path: str) -> Dict[str, List[Dict[str, object]]]:
        grouped: Dict[str, List[Dict[str, object]]] = {}
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            if line.strip():
                record = json.loads(line)
                grouped.setdefault(f"{record['workload']}/{record['backend']}", []).append(record)
        return grouped

    side_a, side_b = read(path_a), read(path_b)
    rows = [(row, "end_to_end") for row in spec["end_to_end"] + UNGATED] + [
        (row, "per_layer") for row in spec["per_layer"]
    ]
    print(f"# A={path_a}  B={path_b}  (B against A)")
    print(f"{'workload':<22} {'metric':<36} {'A median [q1, q3]':>30} "
          f"{'B median [q1, q3]':>30} {'B wins':>7} {'change':>8}  verdict")
    for group in sorted(set(side_a) & set(side_b)):
        for row, key in rows:
            a = [r[key][row["name"]] for r in side_a[group] if row["name"] in r[key]]
            b = [r[key][row["name"]] for r in side_b[group] if row["name"] in r[key]]
            if not a or not b:
                continue
            result = verdict(a, b, row["better"], row.get("bound"))
            qa, qb = result["base"], result["change"]
            print(
                f"{group:<22} {row['name']:<36} "
                f"{qa['median']:>11.4f} [{qa['q1']:.4f}, {qa['q3']:.4f}] "
                f"{qb['median']:>11.4f} [{qb['q1']:.4f}, {qb['q3']:.4f}] "
                f"{result['win_fraction']:>7.2f} {result['worse_by'] * 100:>+7.1f}%  "
                f"{result['verdict'] or '-'}"
            )
    return 0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--backend", choices=("thread", "process"), default="thread")
    parser.add_argument("--smoke", action="store_true", help="2 s windows, 2-step ladder")
    parser.add_argument("--out", help="append each run's full record to this JSONL file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --out files instead of running")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__main__.py").is_file() or not (CHECKOUT / "BENCHMARK.json").is_file():
        print(f"error: no repro sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = _spec()
    if args.compare:
        return compare(*args.compare, spec)
    if args.trace and args.backend == "process":
        print("error: --trace 1 needs the thread backend (worker processes are "
              "not instrumented)", file=sys.stderr)
        return 2
    if args.smoke:
        args.seconds = 2.0
    names = [args.workload] if args.workload else list(WORKLOADS)
    records = [run_one(name, args, spec) for name in names]
    result = _result(records, spec, args.trace)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
