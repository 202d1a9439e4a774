"""Seeded chaos schedules over record / ask / crash-recover cycles.

One :func:`run_chaos_cycle` call drives a durable
:class:`~repro.mediator.webhouse.Webhouse` session through a random
workload while a seeded :class:`~repro.faults.plan.FaultPlan` tears
journal writes, fails fsyncs, and corrupts snapshots underneath it; a
third of the cycles go conjunctive (Corollary 3.9) part-way.  After
every simulated crash the session is resumed and checked against the
paper's Theorem 3.5: replaying the recovered history from scratch must
land on knowledge ``incomplete_equivalent`` to what recovery produced,
and the recovered history itself must be exactly the acknowledged
pairs (plus at most the one in-flight pair a torn write may or may not
have persisted — durability is only promised once ``record`` returns).
The observed document must stay a possible world of it (Theorem 3.4).

Everything is derived from one int seed, so a failing cycle is
reproducible from the one-line spec in its :class:`ChaosResult`
(``python -m repro chaos --seed N``).  The suite in
``tests/test_chaos.py`` sweeps 50+ seeds; CI's ``chaos-smoke`` job adds
a timed soak.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..core.query import PSQuery
from ..core.tree import DataTree
from ..core.treetype import TreeType
from ..incomplete.certainty import incomplete_equivalent
from ..mediator.webhouse import Webhouse
from ..obs.monitor import REMEDY_CONJUNCTIVE
from ..refine.refine import refine_sequence
from ..store import codec as _codec
from ..store.journal import JournalError
from ..store.session import SessionStore, StoreError
from ..workloads.generators import random_history, random_tree
from .inject import FaultInjected, fault_scope
from .plan import FaultPlan, FaultRule

#: Errors that count as a crash during a chaos cycle: the injected ones
#: plus the store-layer failures they surface as.
CRASH_ERRORS = (FaultInjected, JournalError, StoreError, OSError)

#: Site/effect pool :func:`chaos_schedule` draws rules from.  Only data
#: and error effects — latency/stall are exercised by the cluster tests,
#: not the single-session durability cycle.
SCHEDULE_POOL: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("store.journal.append", ("error", "torn", "fsync")),
    ("store.snapshot.write", ("error", "torn", "corrupt")),
)

#: Armed record attempts per pair before the final disarmed one.  The
#: disarmed fallback keeps a hostile plan (e.g. ``p=0.5`` on every
#: append) from wedging a cycle; it does not weaken the checks, which
#: run after every crash regardless of how the record finally landed.
MAX_ARMED_ATTEMPTS = 6


def chaos_tree_type() -> TreeType:
    """A deliberately small schema so equivalence checks stay cheap."""
    return TreeType.parse(
        """
        root: doc
        doc -> item+
        item -> k v*
        """
    )


def chaos_schedule(seed: int, max_rules: int = 3) -> FaultPlan:
    """A reproducible random fault plan for :func:`run_chaos_cycle`.

    Draws 1..``max_rules`` rules from :data:`SCHEDULE_POOL`.  Trigger
    probabilities stay at or below 0.5 so a cycle always makes forward
    progress; some rules use ``nth``/``once`` triggers instead to pin
    single-shot faults at exact call indices.
    """
    rng = random.Random(f"chaos-plan|{seed}")
    rules: List[FaultRule] = []
    for _ in range(rng.randint(1, max_rules)):
        site, effects = SCHEDULE_POOL[rng.randrange(len(SCHEDULE_POOL))]
        effect = effects[rng.randrange(len(effects))]
        style = rng.random()
        if style < 0.3:
            rules.append(FaultRule(site, effect, nth=rng.randint(1, 6)))
        elif style < 0.5:
            rules.append(
                FaultRule(site, effect, probability=rng.uniform(0.2, 0.5), once=True)
            )
        else:
            rules.append(
                FaultRule(
                    site,
                    effect,
                    probability=rng.uniform(0.05, 0.5),
                    fraction=rng.choice((0.25, 0.5, 0.75)),
                )
            )
    return FaultPlan(rules, seed=seed)


@dataclass
class ChaosResult:
    """Outcome of one seeded cycle; ``violations`` empty means healthy."""

    seed: int
    plan_spec: str
    ops: int = 0
    records: int = 0
    crashes: int = 0
    recoveries: int = 0
    retries: int = 0
    faults_fired: int = 0
    checks: int = 0
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def repro(self) -> str:
        """The one-line reproduction command for this cycle."""
        return f"python -m repro chaos --seed {self.seed} --plan '{self.plan_spec}'"

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "plan": self.plan_spec,
            "ops": self.ops,
            "records": self.records,
            "crashes": self.crashes,
            "recoveries": self.recoveries,
            "retries": self.retries,
            "faults_fired": self.faults_fired,
            "checks": self.checks,
            "violations": list(self.violations),
            "ok": self.ok,
            "repro": self.repro(),
        }


def _pair_json(pair: Tuple[PSQuery, DataTree]) -> Tuple[object, object]:
    query, answer = pair
    return (_codec.query_to_json(query), _codec.tree_to_json(answer))


def _check_recovery(
    webhouse: Webhouse,
    acknowledged: List[Tuple[PSQuery, DataTree]],
    pending: Optional[Tuple[PSQuery, DataTree]],
    alphabet: Sequence[str],
    tree_type: TreeType,
    document: DataTree,
    where: str,
    result: ChaosResult,
) -> bool:
    """Theorem 3.5 recovery checks; returns True iff ``pending`` survived.

    1. The recovered history is the acknowledged pairs, in order, plus
       at most the one in-flight pair (a torn tail may legitimately
       lose it; it must never be half-applied or reordered).
    2. The recovered knowledge is ``incomplete_equivalent`` to a
       fault-free replay of that history (Theorem 3.5: snapshot +
       suffix replay vs. pure replay agree semantically).
    3. The observed document is in its rep set (Theorem 3.4 soundness).
    """
    result.checks += 1
    recovered = [_pair_json(pair) for pair in webhouse.history]
    ack = [_pair_json(pair) for pair in acknowledged]
    with_pending = ack + [_pair_json(pending)] if pending is not None else ack
    if recovered not in (ack, with_pending):
        result.violations.append(
            f"{where}: recovered history has {len(recovered)} pairs, "
            f"expected the {len(ack)} acknowledged"
            + (" (+1 in-flight)" if pending is not None else "")
            + " — durability or ordering broken"
        )
        return False
    reference = refine_sequence(alphabet, webhouse.history, tree_type=tree_type)
    if not incomplete_equivalent(webhouse.knowledge, reference):
        result.violations.append(
            f"{where}: recovered knowledge is not equivalent to a "
            f"fault-free replay of its own {len(recovered)}-pair history "
            "(Theorem 3.5 violated)"
        )
        return False
    if not webhouse.knowledge.contains(document):
        result.violations.append(f"{where}: document not in rep (Theorem 3.4 violated)")
        return False
    return len(recovered) == len(with_pending) and pending is not None


def run_chaos_cycle(
    seed: int,
    root: str,
    ops: int = 8,
    plan: Optional[FaultPlan] = None,
    snapshot_every: int = 3,
) -> ChaosResult:
    """One seeded record/crash/recover cycle against a durable session.

    ``root`` is the session-store directory (caller-owned, e.g. a tmp
    dir); the cycle creates and finally deletes ``chaos-<seed>``.
    Returns a :class:`ChaosResult` whose ``violations`` list is empty
    exactly when every recovery and the final state honored Theorem 3.5.
    """
    rng = random.Random(f"chaos-cycle|{seed}")
    tree_type = chaos_tree_type()
    alphabet = sorted(tree_type.alphabet)
    document = random_tree(tree_type, seed=rng, max_depth=4)
    pairs = random_history(tree_type, document, ops, seed=rng, max_depth=3)
    remedy = random.Random(f"chaos-remedy|{seed}")  # leaves ``rng``'s draws as they were
    conjunctive_at = remedy.randrange(len(pairs)) if remedy.random() < 1 / 3 else None
    if plan is None:
        plan = chaos_schedule(seed)
    plan.reset()
    result = ChaosResult(seed=seed, plan_spec=plan.spec(), ops=ops)

    store = SessionStore(root, snapshot_every=snapshot_every)
    name = f"chaos-{seed}"
    if store.exists(name):
        store.delete(name)
    session = store.create(name, alphabet, tree_type=tree_type)
    webhouse = Webhouse(alphabet, tree_type=tree_type)
    webhouse.attach(session)

    acknowledged: List[Tuple[PSQuery, DataTree]] = []

    def crash_and_resume(
        pending: Optional[Tuple[PSQuery, DataTree]], where: str
    ) -> bool:
        """Abandon the live handle (no close — the lock is broken as a
        same-pid stale lock on reopen) and recover from disk."""
        nonlocal webhouse
        result.crashes += 1
        webhouse = Webhouse.resume(store, name)
        result.recoveries += 1
        return _check_recovery(
            webhouse, acknowledged, pending, alphabet, tree_type, document, where, result
        )

    try:
        for index, pair in enumerate(pairs):
            if acknowledged and rng.random() < 0.15:
                # Spontaneous crash between operations: nothing in
                # flight, so recovery must reproduce everything.
                crash_and_resume(None, f"op {index} (clean crash)")
            if index == conjunctive_at:
                webhouse.apply_remedy(REMEDY_CONJUNCTIVE)
            recorded = False
            for attempt in range(MAX_ARMED_ATTEMPTS + 1):
                armed_plan = plan if attempt < MAX_ARMED_ATTEMPTS else None
                try:
                    with fault_scope(armed_plan):
                        webhouse.record(*pair)
                    recorded = True
                    break
                except CRASH_ERRORS:
                    result.retries += 1
                    if crash_and_resume(pair, f"op {index} attempt {attempt}"):
                        recorded = True  # the torn pair actually landed
                        break
            if not recorded:
                result.violations.append(
                    f"op {index}: record never landed after "
                    f"{MAX_ARMED_ATTEMPTS} armed and 1 disarmed attempts"
                )
                break
            acknowledged.append(pair)
            result.records += 1
            if rng.random() < 0.3:
                try:
                    with fault_scope(plan):
                        webhouse.checkpoint()
                except CRASH_ERRORS:
                    crash_and_resume(None, f"op {index} (checkpoint)")

        # Final accounting: one last crash/recover, then the full-history
        # equivalence check against a completely fault-free replay.
        crash_and_resume(None, "final")
        if len(webhouse.history) != len(acknowledged):
            result.violations.append(
                f"final: {len(webhouse.history)} recovered pairs != "
                f"{len(acknowledged)} acknowledged"
            )
        result.faults_fired = plan.fires()
    finally:
        if webhouse.session is not None:
            webhouse.detach()
        try:
            store.delete(name)
        except StoreError:  # pragma: no cover - best-effort cleanup
            pass
    return result


def run_chaos_sweep(
    seeds: Sequence[int], root: str, ops: int = 8
) -> List[ChaosResult]:
    """Run many cycles; returns every result (callers filter ``.ok``)."""
    return [run_chaos_cycle(seed, root, ops=ops) for seed in seeds]


__all__ = [
    "CRASH_ERRORS",
    "ChaosResult",
    "chaos_schedule",
    "chaos_tree_type",
    "run_chaos_cycle",
    "run_chaos_sweep",
]
