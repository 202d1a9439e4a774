"""Checks of the end-to-end harness itself.  Not part of the tier-1 suite
(it spawns servers for about a minute); run it explicitly::

    python -m pytest benchmarks/e2e/test_harness.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from layers import ROOT, self_times  # noqa: E402
from stats import MIN_BEYOND, beyond, percentile, tail_level, verdict  # noqa: E402
from workloads import mismatch  # noqa: E402

SPEC = json.loads((CHECKOUT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _smoke(directory: Path, *args: str):
    out = directory / "runs.jsonl"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out), *args],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    records = [json.loads(line) for line in out.read_text().splitlines()]
    return proc.stdout, records


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return _smoke(tmp_path_factory.mktemp("untraced"))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return _smoke(tmp_path_factory.mktemp("traced"), "--trace", "1")


def _printed(stdout: str, rows, records) -> None:
    lines = stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for record in records:
        prefix = f"{record['workload']}."
        for row in rows:
            assert any(
                line.split()[:1] == [row["name"]] and line.split()[-1] == row["unit"]
                for line in lines
            ), row["name"]
            metric = result["metrics"][prefix + row["name"]]
            assert metric["unit"] == row["unit"]
            assert isinstance(metric["value"], float)


def test_every_end_to_end_metric_is_printed_with_its_unit(untraced):
    stdout, records = untraced
    assert sorted(r["workload"] for r in records) == sorted(w["name"] for w in SPEC["workloads"])
    _printed(stdout, SPEC["end_to_end"], records)


def test_every_per_layer_metric_is_printed_with_its_unit(traced):
    stdout, records = traced
    _printed(stdout, SPEC["per_layer"], records)


def test_reported_percentiles_leave_ten_samples_beyond(untraced):
    for record in untraced[1]:
        samples = record["detail"]["samples"]
        assert samples["tail_beyond"] >= MIN_BEYOND
        assert beyond(samples["reads"], samples["tail_level"]) >= MIN_BEYOND
        assert beyond(samples["reads"], 0.5) >= MIN_BEYOND
        assert beyond(samples["fetches"], 0.5) >= MIN_BEYOND


def test_traced_self_times_never_exceed_the_server_span(traced):
    for record in traced[1]:
        assert record["detail"]["reads"]["max_self_excess_ms"] <= 1e-6, record["workload"]


def test_tail_level_falls_back_until_ten_samples_lie_beyond():
    assert tail_level(1000, 0.95) == 0.95
    assert tail_level(150, 0.95) == 0.90
    assert tail_level(30, 0.95) == 0.50
    for n in (20, 40, 101, 199, 200, 450):
        level = tail_level(n, 0.99)
        assert beyond(n, level) >= MIN_BEYOND or level == 0.5
    assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0


def test_concurrent_children_split_time_so_self_times_add_up():
    # a root with two overlapping shard tasks, one holding a nested call
    spans = [
        (1, 0, ROOT, 0.0, 10.0, "t"),
        (2, 1, "cluster.task", 1.0, 7.0, "t"),
        (3, 1, "cluster.task", 2.0, 9.0, "t"),
        (4, 3, "core.matching", 3.0, 4.0, "t"),
    ]
    own = self_times(spans)
    assert abs(sum(own.values()) - 10.0) < 1e-9
    assert own[1] == pytest.approx(2.0)  # [0,1] and [9,10]
    assert own[4] == pytest.approx(0.5)  # shares [3,4] with task 2


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]
    assert verdict(base, [v * 0.8 for v in base], "lower", 0.1)["verdict"] == "improved"
    assert verdict(base, [v * 1.2 for v in base], "lower", 0.1)["verdict"] == "worse"
    assert verdict(base, [v * 1.02 for v in base], "lower", 0.1)["verdict"] == "unchanged"
    noisy = [70.0, 130.0, 85.0, 120.0, 100.0, 75.0, 125.0, 90.0, 110.0, 95.0]
    assert verdict(base, noisy, "lower", 0.1)["verdict"] == "unresolved"
    assert verdict(base, [v * 1.2 for v in base], "higher", 0.1)["verdict"] == "improved"
    assert verdict(base, base, "lower", None)["verdict"] == ""


def test_oracle_mismatch_names_the_wrong_field():
    want = {"sure_nodes": 3, "may_have_more": False}
    assert mismatch({"sure_nodes": 3, "may_have_more": False, "extra": 1}, want) == ""
    assert "sure_nodes=4" in mismatch({"sure_nodes": 4, "may_have_more": False}, want)
    assert mismatch(None, want)


def test_refuses_to_run_without_the_program(tmp_path):
    # a directory holding only BENCHMARK.json and the benchmark's files
    shutil.copy(CHECKOUT / "BENCHMARK.json", tmp_path)
    target = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(HERE, target, ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "read_hot", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
