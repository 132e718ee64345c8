"""Drift detection over the live prediction fleet.

The paper's ψ_stable ε-SVR (Eq. 1–2) is trained on one profiling
campaign; the Δ_update calibration γ (Eq. 4–7) then absorbs whatever
the model gets wrong online. That makes γ itself the cleanest drift
signal a serving system has: with an accurate stable model γ hovers
near zero between transients, while a model serving out of its training
regime (ambient drift, new VM flavors, aged hardware) leaves γ pinned
at the model's steady-state bias — *γ saturation*. The
:class:`DriftMonitor` watches exactly that, per server class, in the
windowed style of the :class:`~repro.control.ledger.ControlLedger`: one
:class:`DriftIntervalRecord` per control interval, and a class is
*stale* only when its saturation sustains over several consecutive
intervals (a single hot interval is a transient, not drift).

Alongside γ the monitor tracks each class's matured forecast error —
the ground-truth confirmation that saturation is hurting forecasts,
reported in the lifecycle scorecards. It aggregates the control tick's
one :class:`~repro.control.ledger.MaturedErrors` pass over the class's
servers, which equals :func:`~repro.control.ledger.forecast_error_at`
restricted to them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class DriftMonitorConfig:
    """Knobs of the γ-saturation drift detector."""

    #: Mean |γ| (°C) over a class's servers that counts as saturated.
    gamma_threshold_c: float = 2.0
    #: Consecutive saturated intervals before a class is called stale.
    sustain_intervals: int = 3
    #: Classes with fewer tracked servers are never flagged (one noisy
    #: server should not retrain a fleet-wide model).
    min_servers: int = 1
    #: Leading intervals ignored by :meth:`DriftMonitor.stale_classes`:
    #: right after tracking starts γ swings hard absorbing the initial
    #: thermal transient (that is calibration doing its job, not drift).
    warmup_intervals: int = 10

    def __post_init__(self) -> None:
        if self.gamma_threshold_c <= 0:
            raise ConfigurationError(
                f"gamma_threshold_c must be > 0, got {self.gamma_threshold_c}"
            )
        if self.sustain_intervals < 1:
            raise ConfigurationError(
                f"sustain_intervals must be >= 1, got {self.sustain_intervals}"
            )
        if self.min_servers < 1:
            raise ConfigurationError(
                f"min_servers must be >= 1, got {self.min_servers}"
            )
        if self.warmup_intervals < 0:
            raise ConfigurationError(
                f"warmup_intervals must be >= 0, got {self.warmup_intervals}"
            )


@dataclass(frozen=True)
class ClassDriftSignal:
    """One class's drift statistics for one interval."""

    key: str
    n_servers: int
    mean_abs_gamma_c: float
    max_abs_gamma_c: float
    #: Mean matured |forecast − measured| over the class (NaN unscored).
    forecast_mae_c: float
    forecasts_scored: int


@dataclass(frozen=True)
class DriftIntervalRecord:
    """Per-class drift signals for one control interval."""

    time_s: float
    signals: tuple[ClassDriftSignal, ...]

    def signal(self, key: str) -> ClassDriftSignal | None:
        """The signal for ``key``, or None when the class was not tracked."""
        for signal in self.signals:
            if signal.key == key:
                return signal
        return None


class DriftMonitor:
    """Windowed per-class γ-saturation statistics over a prediction fleet."""

    def __init__(self, config: DriftMonitorConfig | None = None) -> None:
        self.config = config or DriftMonitorConfig()
        self.records: list[DriftIntervalRecord] = []

    def observe_fleet(  # reprolint: waive R004 -- fleet-native: per-class drift stats are defined over the whole fleet snapshot (γ vector grouped by model key); there is no meaningful single-server twin
        self, time_s: float, fleet, errors=None
    ) -> DriftIntervalRecord:
        """Record one interval's per-class signals from the live fleet.

        ``fleet`` is a :class:`~repro.serving.fleet.PredictionFleet`;
        its tracked servers are grouped by registry model key. Passing
        the tick's :class:`~repro.control.ledger.MaturedErrors` (aligned
        with ``fleet.names``) additionally scores each class's matured
        forecast error; without it the error columns are NaN.
        """
        keys = fleet.model_keys
        gamma = fleet.gamma
        by_class: dict[str, list[int]] = {}
        for index, key in enumerate(keys):
            by_class.setdefault(key, []).append(index)
        signals = []
        for key in sorted(by_class):
            indices = np.asarray(by_class[key], dtype=np.intp)
            abs_gamma = np.abs(gamma[indices])
            error_c, scored = float("nan"), 0
            if errors is not None:
                error_c, scored = errors.mean(indices)
            signals.append(
                ClassDriftSignal(
                    key=key,
                    n_servers=int(indices.shape[0]),
                    mean_abs_gamma_c=float(abs_gamma.mean()),
                    max_abs_gamma_c=float(abs_gamma.max()),
                    forecast_mae_c=error_c,
                    forecasts_scored=scored,
                )
            )
        record = DriftIntervalRecord(time_s=time_s, signals=tuple(signals))
        self.records.append(record)
        return record

    # -- queries -------------------------------------------------------------

    @property
    def n_intervals(self) -> int:
        """Number of recorded drift intervals."""
        return len(self.records)

    def stale_classes(self) -> list[str]:
        """Classes γ-saturated in each of the last ``sustain_intervals``.

        A class qualifies only if it was tracked (with at least
        ``min_servers`` servers) and over threshold in *every* one of
        the trailing intervals. The first ``warmup_intervals`` records
        never count (seed-transient γ), and fewer eligible intervals
        than the sustain window means nothing is stale yet.
        """
        config = self.config
        eligible = self.records[config.warmup_intervals :]
        if len(eligible) < config.sustain_intervals:
            return []
        tail = eligible[-config.sustain_intervals :]

        def saturated_in(record: DriftIntervalRecord) -> set[str]:
            return {
                signal.key
                for signal in record.signals
                if signal.n_servers >= config.min_servers
                and signal.mean_abs_gamma_c >= config.gamma_threshold_c
            }

        stale = saturated_in(tail[0])
        for record in tail[1:]:
            stale &= saturated_in(record)
        return sorted(stale)

    def class_history(self, key: str) -> list[ClassDriftSignal]:
        """Every recorded signal for one class, oldest first."""
        return [
            signal
            for record in self.records
            if (signal := record.signal(key)) is not None
        ]
