"""The lifecycle manager: drift → plan → retrain → swap, on the control loop.

:class:`ModelLifecycle` is the optional **sixth stage** of the
:class:`~repro.control.plane.ControlPlane`: after predict → detect →
plan → act → account, the plane hands the lifecycle the same interval
tick. Most ticks it only records drift signals; when the
:class:`~repro.lifecycle.drift.DriftMonitor` reports classes saturated
for long enough (and past their retrain cooldown), it assembles a
:class:`~repro.lifecycle.planner.RetrainPlan` from live telemetry, runs
one lockstep :class:`~repro.lifecycle.retrainer.Retrainer` round, and
atomically publishes the new model versions — closing the ROADMAP's
train → serve → control → **retrain** loop.

Swaps deliberately do not touch in-flight serving state: curves,
calibration γ and Δ_update deadlines survive untouched, and the new
model takes effect at the next ψ_stable query (a newly tracked server
or a VM-set-change retarget). A lifecycle that only ever performs
no-op swaps is therefore *bit-identical* to running without one — the
parity contract pinned by ``tests/lifecycle/test_swap_parity.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.lifecycle.drift import DriftMonitor, DriftMonitorConfig
from repro.lifecycle.planner import RetrainPlanner, RetrainPlannerConfig
from repro.lifecycle.retrainer import Retrainer, RetrainerConfig, RetrainRound
from repro.serving.registry import ModelRegistry


@dataclass(frozen=True)
class LifecycleConfig:
    """Knobs of the drift → retrain → swap loop."""

    drift: DriftMonitorConfig = field(default_factory=DriftMonitorConfig)
    planner: RetrainPlannerConfig = field(default_factory=RetrainPlannerConfig)
    retrainer: RetrainerConfig = field(default_factory=RetrainerConfig)
    #: Seconds a class rests after a successful retrain before it may be
    #: flagged stale again (the anti-thrash guard of the sixth stage:
    #: γ only unwinds toward the new model at the next ψ_stable query,
    #: so the drift signal overstates staleness right after a swap).
    retrain_cooldown_s: float = 1800.0
    #: Seconds before re-planning a class whose last attempt produced no
    #: model (e.g. too much VM churn in the telemetry window) — without
    #: it a skipped class would be re-planned every control interval.
    retry_backoff_s: float = 300.0

    def __post_init__(self) -> None:
        if self.retrain_cooldown_s < 0:
            raise ConfigurationError(
                f"retrain_cooldown_s must be >= 0, got {self.retrain_cooldown_s}"
            )
        if self.retry_backoff_s < 0:
            raise ConfigurationError(
                f"retry_backoff_s must be >= 0, got {self.retry_backoff_s}"
            )


class ModelLifecycle:
    """Drives drift detection and retraining for one registry."""

    def __init__(
        self, registry: ModelRegistry, config: LifecycleConfig | None = None
    ) -> None:
        self.registry = registry
        self.config = config or LifecycleConfig()
        self.monitor = DriftMonitor(self.config.drift)
        self.planner = RetrainPlanner(self.config.planner)
        self.retrainer = Retrainer(registry, self.config.retrainer)
        self.rounds: list[RetrainRound] = []
        self._last_retrain_s: dict[str, float] = {}
        self._last_attempt_s: dict[str, float] = {}

    def _due(self, key: str, time_s: float) -> bool:
        """Whether a stale class may be (re-)planned at ``time_s``."""
        config = self.config
        last_success = self._last_retrain_s.get(key, float("-inf"))
        last_attempt = self._last_attempt_s.get(key, float("-inf"))
        return (
            time_s - last_success >= config.retrain_cooldown_s
            and time_s - last_attempt >= config.retry_backoff_s
        )

    def step(self, sim, time_s: float, fleet, errors) -> RetrainRound | None:
        """One lifecycle tick: observe drift, retrain when warranted.

        Called by the control plane once per control interval (after the
        account stage), with the tick's
        :class:`~repro.control.ledger.MaturedErrors` aligned with
        ``fleet.names``. Returns the :class:`RetrainRound` when a round
        ran — even one where every stale class was skipped by the
        planner — and ``None`` on ordinary, no-drift ticks.
        """
        self.monitor.observe_fleet(time_s, fleet, errors)
        due = [
            key
            for key in self.monitor.stale_classes()
            if self._due(key, time_s)
        ]
        if not due:
            return None
        for key in due:
            self._last_attempt_s[key] = time_s
        plan = self.planner.plan(time_s, due, sim, fleet)
        round_ = self.retrainer.retrain(plan)
        for outcome in round_.outcomes:
            self._last_retrain_s[outcome.key] = time_s
        self.rounds.append(round_)
        return round_

    # -- queries -------------------------------------------------------------

    @property
    def n_rounds(self) -> int:
        """Number of retraining rounds that ran."""
        return len(self.rounds)

    @property
    def n_swaps(self) -> int:
        """Total class models published across all rounds."""
        return sum(round_.n_retrained for round_ in self.rounds)

    def retrained_keys(self) -> list[str]:
        """Every class retrained at least once, sorted."""
        return sorted(self._last_retrain_s)

    def summary(self) -> dict[str, float]:
        """Scorecard of the lifecycle's activity over a run."""
        durations = [round_.duration_s for round_ in self.rounds]
        return {
            "drift_intervals": float(self.monitor.n_intervals),
            "rounds": float(self.n_rounds),
            "models_published": float(self.n_swaps),
            "classes_retrained": float(len(self._last_retrain_s)),
            "retrain_seconds_total": float(sum(durations)),
            "last_round_time_s": (
                self.rounds[-1].time_s if self.rounds else float("nan")
            ),
        }
