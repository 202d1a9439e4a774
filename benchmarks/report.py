#!/usr/bin/env python
"""Regenerate every experiment series and print the tables.

Usage::

    python benchmarks/report.py            # all experiments + perf trajectory
    python benchmarks/report.py E6 E8      # selected ids

The numbers printed here populate EXPERIMENTS.md.  The perf trajectory
at the end is read from the committed ``BENCH_*.json`` documents at the
repo root — every suite that writes one shows up here automatically, no
edits needed when a PR adds a new benchmark.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import series  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent

EXPERIMENTS = {
    "E4": ("emptiness (Lemma 2.5, PTIME)", series.series_emptiness),
    "E5": ("certain/possible prefix (Theorem 2.8)", series.series_prefix),
    "E6": ("representation blowup (Example 3.2 et al.)", series.series_blowup),
    "E7": ("per-step Refine cost (Theorem 3.4)", series.series_refine_cost),
    "E8a": (
        "emptiness plain vs conjunctive (Theorem 3.10)",
        series.series_conjunctive_emptiness,
    ),
    "E8b": ("SAT-derived emptiness (Theorems 3.6/3.10)", series.series_sat_emptiness),
    "E9a": ("q(T) vs knowledge size (Theorem 3.14)", series.series_query_incomplete),
    "E9b": (
        "q(T) vs alphabet width (exponential in Σ)",
        series.series_query_incomplete_alphabet,
    ),
    "E10": ("mediator transfer savings (Theorem 3.19)", series.series_mediator),
    "E11": (
        "persistence overhead and resume cost (docs/PERSISTENCE.md)",
        series.series_persistence,
    ),
    "E15": ("branching answer blowup (Section 4)", series.series_branching),
    "E16": ("pebble automaton acceptance (Theorem 4.2)", series.series_pebble),
}


def _headline(document):
    """The document's top-level scalars — each suite's headline figures."""
    scalars = {
        key: value
        for key, value in document.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }
    return ", ".join(f"{k}={v}" for k, v in sorted(scalars.items())) or "-"


def perf_trajectory():
    """One row per committed ``BENCH_*.json``, lexicographic order."""
    rows = []
    for path in sorted(REPO_ROOT.glob("BENCH_*.json")):
        try:
            document = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            rows.append({"file": path.name, "suite": f"unreadable: {exc}",
                         "criteria": "?", "headline": "-"})
            continue
        criteria = document.get("criteria")
        if isinstance(criteria, dict) and "met" in criteria:
            verdict = "PASS" if criteria["met"] else "FAIL"
        else:
            verdict = "-"
        rows.append({
            "file": path.name,
            "suite": str(document.get("suite", "-")),
            "criteria": verdict,
            "headline": _headline(document),
        })
    return rows


def telemetry_overhead():
    """Always-on vs ``STATE.enabled=False`` ``/ask`` latency (PR 8).

    Read from ``BENCH_pr8.json`` (``benchmarks/bench_e14_slo.py``); one
    row per mode plus the delta row the overhead budget judges.
    """
    path = REPO_ROOT / "BENCH_pr8.json"
    try:
        document = json.loads(path.read_text())
    except (OSError, ValueError):
        return [{"mode": "run benchmarks/bench_e14_slo.py --write first",
                 "p50_ms": "-", "p99_ms": "-"}]
    overhead = document["overhead"]
    off, on = overhead["baseline"], overhead["always_on"]

    def delta_pct(a, b):
        return f"{(b - a) / a * 100.0:+.1f}%"

    return [
        {"mode": "traced-off baseline", "p50_ms": off["p50_ms"],
         "p99_ms": off["p99_ms"]},
        {"mode": "always-on telemetry", "p50_ms": on["p50_ms"],
         "p99_ms": on["p99_ms"]},
        {"mode": f"delta (budget {overhead['budget_pct']:.0f}% on p50)",
         "p50_ms": delta_pct(off["p50_ms"], on["p50_ms"]),
         "p99_ms": delta_pct(off["p99_ms"], on["p99_ms"])},
    ]


def main(argv):
    wanted = [w.upper() for w in argv[1:]]
    for key, (title, fn) in EXPERIMENTS.items():
        if wanted and not any(key.startswith(w) for w in wanted):
            continue
        rows = fn()
        series.print_table(f"{key}: {title}", rows)
    if not wanted:
        series.print_table("perf trajectory (BENCH_*.json)", perf_trajectory())
        series.print_table(
            "telemetry overhead (/ask, BENCH_pr8.json)", telemetry_overhead()
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
