"""Declarative SLOs evaluated by a multi-window burn-rate engine.

An :class:`Objective` states a promise about the request stream —
*availability* ("99.9% of requests do not 5xx") or *latency* ("99% of
requests finish under 250ms").  The :class:`SloEngine` consumes every
finished request, buckets good/bad counts per second, and evaluates
**burn rate** — the ratio between the observed bad fraction and the
error budget (``1 - target``) — over several windows at once.  Burn
rate 1.0 means the budget is being spent exactly as provisioned; 10x
means it will be gone in a tenth of the window.

Alerting is multi-window in the SRE style: an alert fires only when
*every* window burns above the threshold (the long window proves it is
not a blip, the short window proves it is still happening) and resolves
— edge-triggered, like :class:`repro.obs.monitor.GrowthMonitor` — once
the short window cools down.

The paper-aware part: a burning *latency* objective carries a remedy
from the PR 3 catalogue (default :data:`REMEDY_LOSSY` — Section 3.2
forgetting shrinks the representation, which is what speeds reads up),
so the degrade hook can call ``Webhouse.apply_remedy`` and trade answer
completeness for restored tail latency.  Availability burns carry no
remedy: a 5xx storm is a bug, not a representation regime.

The clock is injectable so tests drive time deterministically.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from .monitor import REMEDY_CONJUNCTIVE, REMEDY_LINEAR, REMEDY_LOSSY

#: Default slow-request threshold, seconds: the latency objective's
#: threshold and the flight recorder's slow-trace rule, and the
#: ``--slow-ms`` default of ``serve`` and ``slo``.
DEFAULT_SLOW_S = 0.25

KIND_AVAILABILITY = "availability"
KIND_LATENCY = "latency"

#: Multi-window defaults: short window for "still happening", long
#: window for "not a blip".  Seconds.
DEFAULT_WINDOWS = (60.0, 300.0)

#: A window must burn at this multiple of the provisioned rate to alert.
DEFAULT_BURN_THRESHOLD = 10.0

#: Minimum events in the short window before the engine will alert —
#: one unlucky request out of three is noise, not a burn.
DEFAULT_MIN_EVENTS = 10

_VALID_REMEDIES = (REMEDY_CONJUNCTIVE, REMEDY_LINEAR, REMEDY_LOSSY)


class Objective:
    """One promise about the request stream.

    ``target`` is the good fraction promised (0 < target < 1); the
    error budget is ``1 - target``.  Latency objectives also carry
    ``threshold_s`` — a request slower than that is *bad* even if it
    succeeded.  ``remedy`` names the paper degrade to recommend when
    this objective burns (latency defaults to lossy forgetting).
    """

    __slots__ = ("name", "kind", "target", "threshold_s", "remedy")

    def __init__(
        self,
        name: str,
        kind: str,
        target: float,
        threshold_s: Optional[float] = None,
        remedy: Optional[str] = None,
    ):
        if kind not in (KIND_AVAILABILITY, KIND_LATENCY):
            raise ValueError(f"kind must be availability|latency, got {kind!r}")
        if not 0.0 < target < 1.0:
            raise ValueError(f"target must be in (0, 1), got {target!r}")
        if kind == KIND_LATENCY:
            if threshold_s is None or threshold_s <= 0:
                raise ValueError("latency objectives need a positive threshold_s")
            if remedy is None:
                remedy = REMEDY_LOSSY
        if remedy is not None and remedy not in _VALID_REMEDIES:
            raise ValueError(f"unknown remedy {remedy!r}; pick one of {_VALID_REMEDIES}")
        self.name = name
        self.kind = kind
        self.target = float(target)
        self.threshold_s = None if threshold_s is None else float(threshold_s)
        self.remedy = remedy

    @property
    def budget(self) -> float:
        """The provisioned bad fraction."""
        return 1.0 - self.target

    def is_bad(self, status: int, duration_s: float) -> bool:
        """Classify one finished request against this objective.

        Availability counts server failures (5xx, including shed 503s)
        as bad — client errors (4xx) spend no budget.  Latency counts
        any request over the threshold as bad regardless of status.
        """
        if self.kind == KIND_AVAILABILITY:
            return status >= 500
        return duration_s > self.threshold_s  # type: ignore[operator]

    @classmethod
    def parse(cls, spec: str) -> "Objective":
        """Parse ``"availability:99.9"`` / ``"latency:99:250ms"`` specs.

        The target is a percentage; latency specs add a threshold with
        an optional ``ms`` or ``s`` suffix (bare numbers mean seconds).
        An optional final ``:remedy`` overrides the degrade choice.
        """
        parts = [p.strip() for p in spec.split(":")]
        if len(parts) < 2:
            raise ValueError(
                f"objective spec needs kind:target, got {spec!r} "
                "(e.g. availability:99.9 or latency:99:250ms)"
            )
        kind = parts[0].lower()
        target = float(parts[1]) / 100.0
        threshold_s: Optional[float] = None
        remedy: Optional[str] = None
        rest = parts[2:]
        if kind == KIND_LATENCY:
            if not rest:
                raise ValueError(f"latency spec needs a threshold, got {spec!r}")
            raw = rest.pop(0).lower()
            if raw.endswith("ms"):
                threshold_s = float(raw[:-2]) / 1000.0
            elif raw.endswith("s"):
                threshold_s = float(raw[:-1])
            else:
                threshold_s = float(raw)
        if rest:
            remedy = rest.pop(0).lower()
        if rest:
            raise ValueError(f"trailing fields in objective spec {spec!r}")
        name = f"{kind}-{parts[1]}"
        return cls(name, kind, target, threshold_s, remedy)

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "kind": self.kind,
            "target": self.target,
            "budget": self.budget,
            "threshold_s": self.threshold_s,
            "remedy": self.remedy,
        }

    def __repr__(self) -> str:
        threshold = (
            "" if self.threshold_s is None else f", threshold_s={self.threshold_s}"
        )
        return f"Objective({self.name!r}, target={self.target}{threshold})"


def default_objectives(slow_s: float = DEFAULT_SLOW_S) -> List[Objective]:
    """The serve-mode defaults: 99.9% non-5xx, 99% under ``slow_s``."""
    return [
        Objective("availability-99.9", KIND_AVAILABILITY, 0.999),
        Objective("latency-99", KIND_LATENCY, 0.99, threshold_s=slow_s),
    ]


class SloAlert:
    """One edge-triggered burn event (``burn``) or recovery (``resolved``)."""

    __slots__ = ("kind", "objective", "burn_rates", "remedy", "message")

    def __init__(
        self,
        kind: str,
        objective: Objective,
        burn_rates: Dict[float, float],
        message: str,
    ):
        self.kind = kind  # "burn" | "resolved"
        self.objective = objective
        self.burn_rates = dict(burn_rates)
        self.remedy = objective.remedy
        self.message = message

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "objective": self.objective.name,
            "burn_rates": {str(int(w)): rate for w, rate in self.burn_rates.items()},
            "remedy": self.remedy,
            "message": self.message,
        }

    def __repr__(self) -> str:
        rates = ", ".join(
            f"{int(w)}s={rate:.1f}x" for w, rate in sorted(self.burn_rates.items())
        )
        return f"SloAlert({self.kind!r}, {self.objective.name!r}, {rates})"


SloAlertCallback = Callable[[SloAlert], None]


class _Track:
    """Per-objective per-second good/bad buckets plus alert latch."""

    __slots__ = ("buckets", "burning", "good_total", "bad_total")

    def __init__(self) -> None:
        #: deque of [second, good, bad], oldest first
        self.buckets: Deque[List[float]] = deque()
        self.burning = False
        self.good_total = 0
        self.bad_total = 0


class SloEngine:
    """Feed finished requests in; get burn-rate state and alerts out.

    ``record(status, duration_s)`` classifies the request against every
    objective and re-evaluates; alerts fire (and later resolve) through
    the registered callbacks exactly once per episode.  ``clock`` is
    any monotonic-seconds callable — tests inject a fake one.
    """

    def __init__(
        self,
        objectives: Optional[Sequence[Objective]] = None,
        windows: Sequence[float] = DEFAULT_WINDOWS,
        burn_threshold: float = DEFAULT_BURN_THRESHOLD,
        min_events: int = DEFAULT_MIN_EVENTS,
        clock: Callable[[], float] = time.monotonic,
        alert_callbacks: Sequence[SloAlertCallback] = (),
        degrade_callback: Optional[SloAlertCallback] = None,
    ):
        if not windows:
            raise ValueError("need at least one window")
        self.objectives: List[Objective] = list(
            default_objectives() if objectives is None else objectives
        )
        self.windows: Tuple[float, ...] = tuple(sorted(float(w) for w in windows))
        if any(w <= 0 for w in self.windows):
            raise ValueError(f"windows must be positive, got {self.windows}")
        self.burn_threshold = float(burn_threshold)
        self.min_events = int(min_events)
        self._clock = clock
        self._callbacks: List[SloAlertCallback] = list(alert_callbacks)
        self._degrade = degrade_callback
        self._tracks: Dict[str, _Track] = {o.name: _Track() for o in self.objectives}
        self._alerts: List[SloAlert] = []
        self._lock = threading.Lock()

    # -- configuration ----------------------------------------------------------

    def on_alert(self, callback: SloAlertCallback) -> None:
        self._callbacks.append(callback)

    def set_degrade(self, callback: Optional[SloAlertCallback]) -> None:
        """Wire the degrade hook (e.g. to ``Webhouse.apply_remedy``)."""
        self._degrade = callback

    # -- feeding ----------------------------------------------------------------

    def record(self, status: int, duration_s: float) -> List[SloAlert]:
        """Classify one finished request; returns any alerts that fired."""
        now = self._clock()
        second = int(now)
        fired: List[SloAlert] = []
        with self._lock:
            for objective in self.objectives:
                track = self._tracks[objective.name]
                bad = objective.is_bad(status, duration_s)
                if bad:
                    track.bad_total += 1
                else:
                    track.good_total += 1
                if track.buckets and track.buckets[-1][0] == second:
                    track.buckets[-1][2 if bad else 1] += 1
                else:
                    track.buckets.append([second, 0 if bad else 1, 1 if bad else 0])
                self._prune(track, now)
                fired.extend(self._evaluate(objective, track, now))
        self._dispatch(fired)
        return fired

    def evaluate(self) -> List[SloAlert]:
        """Re-evaluate without new traffic (lets burns resolve by decay)."""
        now = self._clock()
        fired: List[SloAlert] = []
        with self._lock:
            for objective in self.objectives:
                track = self._tracks[objective.name]
                self._prune(track, now)
                fired.extend(self._evaluate(objective, track, now))
        self._dispatch(fired)
        return fired

    def _prune(self, track: _Track, now: float) -> None:
        horizon = now - self.windows[-1]
        while track.buckets and track.buckets[0][0] < horizon:
            track.buckets.popleft()

    def _window_counts(self, track: _Track, now: float, window: float) -> Tuple[int, int]:
        horizon = now - window
        good = bad = 0
        for second, g, b in reversed(track.buckets):
            if second < horizon:
                break
            good += g
            bad += b
        return int(good), int(bad)

    def _burn_rate(
        self, objective: Objective, track: _Track, now: float, window: float
    ) -> Tuple[float, int]:
        good, bad = self._window_counts(track, now, window)
        total = good + bad
        if total == 0:
            return 0.0, 0
        return (bad / total) / objective.budget, total

    def _evaluate(
        self, objective: Objective, track: _Track, now: float
    ) -> List[SloAlert]:
        rates: Dict[float, float] = {}
        short_total = 0
        burning_everywhere = True
        for window in self.windows:
            rate, total = self._burn_rate(objective, track, now, window)
            rates[window] = rate
            if window == self.windows[0]:
                short_total = total
            if rate < self.burn_threshold:
                burning_everywhere = False
        burning = burning_everywhere and short_total >= self.min_events

        fired: List[SloAlert] = []
        if burning and not track.burning:
            track.burning = True
            rendered = ", ".join(
                f"{int(w)}s at {rates[w]:.1f}x" for w in self.windows
            )
            remedy_note = (
                f"; recommend remedy: {objective.remedy}" if objective.remedy else ""
            )
            fired.append(
                SloAlert(
                    "burn",
                    objective,
                    rates,
                    f"SLO {objective.name} burning its error budget "
                    f"{self.burn_threshold:.0f}x+ across all windows "
                    f"({rendered}){remedy_note}",
                )
            )
        elif track.burning and rates[self.windows[0]] < self.burn_threshold:
            track.burning = False
            fired.append(
                SloAlert(
                    "resolved",
                    objective,
                    rates,
                    f"SLO {objective.name} burn resolved "
                    f"(short-window rate {rates[self.windows[0]]:.1f}x)",
                )
            )
        return fired

    def _dispatch(self, fired: List[SloAlert]) -> None:
        for alert in fired:
            self._alerts.append(alert)
            for callback in self._callbacks:
                callback(alert)
            if (
                alert.kind == "burn"
                and alert.remedy is not None
                and self._degrade is not None
            ):
                self._degrade(alert)

    # -- reading ----------------------------------------------------------------

    @property
    def alerts(self) -> Tuple[SloAlert, ...]:
        with self._lock:
            return tuple(self._alerts)

    def burning(self) -> List[str]:
        """Names of objectives currently in a burn episode."""
        with self._lock:
            return [name for name, track in self._tracks.items() if track.burning]

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready engine state for ``/slo`` and the CLI."""
        now = self._clock()
        with self._lock:
            objectives = []
            for objective in self.objectives:
                track = self._tracks[objective.name]
                self._prune(track, now)
                rates = {}
                for window in self.windows:
                    rate, total = self._burn_rate(objective, track, now, window)
                    rates[str(int(window))] = {"burn_rate": rate, "events": total}
                lifetime = track.good_total + track.bad_total
                objectives.append(
                    {
                        **objective.to_dict(),
                        "burning": track.burning,
                        "windows": rates,
                        "lifetime": {
                            "good": track.good_total,
                            "bad": track.bad_total,
                            "bad_fraction": (
                                track.bad_total / lifetime if lifetime else 0.0
                            ),
                        },
                    }
                )
            return {
                "burn_threshold": self.burn_threshold,
                "min_events": self.min_events,
                "windows_s": list(self.windows),
                "objectives": objectives,
                "alerts": [alert.to_dict() for alert in self._alerts],
            }

    def __repr__(self) -> str:
        return (
            f"SloEngine(objectives={[o.name for o in self.objectives]}, "
            f"burning={self.burning()})"
        )


__all__ = [
    "DEFAULT_BURN_THRESHOLD",
    "DEFAULT_MIN_EVENTS",
    "DEFAULT_SLOW_S",
    "DEFAULT_WINDOWS",
    "KIND_AVAILABILITY",
    "KIND_LATENCY",
    "Objective",
    "SloAlert",
    "SloAlertCallback",
    "SloEngine",
    "default_objectives",
]
