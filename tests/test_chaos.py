"""The chaos suite: seeded fault schedules over record/crash/recover.

The PR-9 headline proof.  Every cycle drives a durable session through
a random workload while a seeded :class:`FaultPlan` tears journal
appends, fails fsyncs, and damages snapshot writes; after every
simulated crash the recovered state must satisfy Theorem 3.5 — the
recovered history is exactly the acknowledged prefix (± the one
in-flight pair), and the recovered knowledge is
``incomplete_equivalent`` to a fault-free replay of that history.

Two *mutation* tests close the loop on the suite itself: with a
recovery path deliberately broken under ``monkeypatch`` (snapshot
verify-before-promote disabled; resume dropping a journaled pair), the
same seeds must *report violations* — a chaos suite that cannot catch
a planted bug proves nothing.  The verify-before-promote mutation is
not hypothetical: it is the real clobbering bug this suite found while
being built (see ``write_snapshot``'s docstring).
"""

from __future__ import annotations

import json

import pytest

import repro.store.snapshot as snapshot_module
from repro.__main__ import main as cli_main
from repro.faults.chaos import (
    ChaosResult,
    chaos_schedule,
    run_chaos_cycle,
    run_chaos_sweep,
)
from repro.faults.plan import FaultPlan
from repro.mediator.webhouse import Knowledge, Webhouse

#: Seeds the parametrized sweep covers (the acceptance floor is 50).
SWEEP_SEEDS = range(54)

#: Results accumulated by the sweep, for the aggregate coverage check.
_SWEEP_RESULTS: list = []


class TestChaosSweep:
    @pytest.mark.parametrize("seed", SWEEP_SEEDS)
    def test_seeded_cycle_recovers_equivalently(self, seed, tmp_path):
        result = run_chaos_cycle(seed, str(tmp_path))
        _SWEEP_RESULTS.append(result)
        assert result.ok, "\n".join(result.violations) + f"\n  repro: {result.repro()}"
        assert result.checks >= 1  # the final recovery always checks

    def test_sweep_actually_exercised_faults(self):
        """Guard against a vacuous sweep: across the seeds, faults must
        have fired, crashes recovered, and records landed."""
        assert len(_SWEEP_RESULTS) >= 50
        assert sum(r.faults_fired for r in _SWEEP_RESULTS) >= len(_SWEEP_RESULTS)
        assert sum(r.crashes for r in _SWEEP_RESULTS) >= len(_SWEEP_RESULTS)
        assert sum(r.records for r in _SWEEP_RESULTS) >= 8 * len(_SWEEP_RESULTS) // 2
        assert sum(r.checks for r in _SWEEP_RESULTS) > sum(
            r.crashes for r in _SWEEP_RESULTS
        ) // 2


class TestChaosDeterminism:
    def test_schedule_is_seed_deterministic(self):
        assert chaos_schedule(9).spec() == chaos_schedule(9).spec()
        specs = {chaos_schedule(seed).spec() for seed in range(20)}
        assert len(specs) > 10  # different seeds draw different plans

    def test_cycle_is_reproducible(self, tmp_path):
        a = run_chaos_cycle(3, str(tmp_path / "a"))
        b = run_chaos_cycle(3, str(tmp_path / "b"))
        assert a.to_json() == b.to_json()

    def test_explicit_plan_overrides_the_schedule(self, tmp_path):
        plan = FaultPlan.parse("store.journal.append:torn:nth=2")
        result = run_chaos_cycle(1, str(tmp_path), plan=plan)
        assert result.ok, result.violations
        assert result.plan_spec == plan.spec()
        assert result.faults_fired == 1

    def test_result_repro_line(self):
        result = ChaosResult(seed=4, plan_spec="s:error")
        assert result.repro() == "python -m repro chaos --seed 4 --plan 's:error'"
        assert result.to_json()["ok"] is True


class TestChaosCatchesPlantedBugs:
    """Acceptance: a deliberately broken recovery path must be caught."""

    def test_catches_snapshot_promotion_without_verification(
        self, tmp_path, monkeypatch
    ):
        """Re-plant the clobbering bug the suite originally found: skip
        the temp-file verification in ``write_snapshot``, so a damaged
        re-checkpoint overwrites the only good snapshot of compacted
        records.  The sweep must notice lost history."""
        real = snapshot_module._read_snapshot

        def unverified(path):
            if path.endswith(".tmp"):
                return (0, None, [])  # "looks fine" — promote anything
            return real(path)

        monkeypatch.setattr(snapshot_module, "_read_snapshot", unverified)
        results = run_chaos_sweep(range(20), str(tmp_path))
        broken = [r for r in results if not r.ok]
        assert broken, "the sweep failed to catch the planted snapshot bug"
        assert any(
            "recovered history" in violation or "Theorem 3.5" in violation
            for r in broken
            for violation in r.violations
        )

    def test_catches_resume_dropping_an_acknowledged_pair(
        self, tmp_path, monkeypatch
    ):
        """Recovery that silently forgets the last journaled pair must
        trip the acknowledged-prefix check on the very first cycle."""

        class ForgetfulWebhouse(Webhouse):
            @classmethod
            def resume(cls, store, name):
                webhouse = Webhouse.resume(store, name)
                value = webhouse.value
                if value.history:
                    webhouse._value = Knowledge(
                        value.rep, value.history[:-1], value.linear
                    )
                return webhouse

        import repro.faults.chaos as chaos_module

        monkeypatch.setattr(chaos_module, "Webhouse", ForgetfulWebhouse)
        result = run_chaos_cycle(0, str(tmp_path))
        assert not result.ok
        assert any(
            "durability or ordering broken" in violation
            or "acknowledged" in violation
            for violation in result.violations
        )


class TestChaosCli:
    def test_seed_range_json(self, tmp_path, capsys):
        code = cli_main(
            [
                "repro",
                "chaos",
                "--seeds",
                "0:3",
                "--json",
                "--root",
                str(tmp_path),
            ]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["ok"] is True and summary["cycles"] == 3
        assert summary["violations"] == 0 and summary["failures"] == []
        assert summary["crashes"] >= 3 and summary["equivalence_checks"] >= 3

    def test_single_seed_with_plan(self, tmp_path, capsys):
        code = cli_main(
            [
                "repro",
                "chaos",
                "--seed",
                "7",
                "--plan",
                "store.journal.append:fsync:nth=2",
                "--root",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1 cycles" in out and "0 violations" in out

    def test_bad_arguments_are_usage_errors(self, capsys):
        assert cli_main(["repro", "chaos", "--seed", "1", "--seeds", "0:2"]) == 2
        assert cli_main(["repro", "chaos", "--plan", "not-a-plan"]) == 2
        assert cli_main(["repro", "chaos", "--seeds", "backwards"]) == 2
        capsys.readouterr()
