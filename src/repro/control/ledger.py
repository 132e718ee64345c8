"""Control-plane accounting: per-interval telemetry and the energy ledger.

The *account* stage of the control loop. Every control interval produces
one :class:`ControlIntervalRecord` — how many hotspots the forecasts
predicted, how many the sensors measured, what the planner proposed,
what the actuator actually issued (and why it held back), how far the
acted-on forecasts were from reality, and the interval's IT/cooling
power draw through the CRAC COP model. The :class:`ControlLedger`
accumulates the rows, integrates energy via
:class:`~repro.management.energy.EnergyAccount`, and answers the
question the acceptance tests ask: *which servers are still sustained
hotspots?*
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, TelemetryError
from repro.management.energy import CoolingModel, EnergyAccount


def _matured_error(bundle, time_s: float) -> float | None:
    """|forecast − measured| of one server's matured forecast, or None."""
    actual = bundle.cpu_temperature
    if len(actual) == 0:
        return None
    try:
        target_t, predicted = bundle.predicted_cpu_temperature.last_before(time_s)
    except TelemetryError:
        return None
    return abs(predicted - actual.value_at(target_t))


def forecast_error_at(telemetry, names: list[str], time_s: float) -> tuple[float, int]:
    """Mean |forecast − measured| over matured forecasts at ``time_s``.

    For each server, takes the latest recorded Δ_gap-ahead forecast whose
    *target* time has already passed (the forecast the controller would
    have acted on) and compares it against the measured temperature
    series interpolated at that target. Returns ``(mean_abs_error_c,
    n_scored)``; the error is NaN when no server has a matured forecast
    yet. This is the per-server reference of :func:`matured_forecast_errors`.
    """
    errors = []
    for name in names:
        error = _matured_error(telemetry.for_server(name), time_s)
        if error is not None:
            errors.append(error)
    if not errors:
        return float("nan"), 0
    return float(np.mean(errors)), len(errors)


@dataclass(frozen=True)
class MaturedErrors:
    """One tick's matured forecast error per server, in name order.

    ``abs_error_c[i]`` is server ``i``'s |forecast − measured| where
    ``scored[i]``, and 0 elsewhere. :meth:`mean` aggregates any subset
    exactly as :func:`forecast_error_at` aggregates those servers.
    """

    abs_error_c: np.ndarray
    scored: np.ndarray

    def mean(self, indices: np.ndarray | None = None) -> tuple[float, int]:
        """``(mean_abs_error_c, n_scored)`` over all servers or ``indices``."""
        errors, scored = self.abs_error_c, self.scored
        if indices is not None:
            errors, scored = errors[indices], scored[indices]
        errors = errors[scored]
        if errors.size == 0:
            return float("nan"), 0
        return float(np.mean(errors)), int(errors.size)


def matured_forecast_errors(telemetry, names, time_s: float) -> MaturedErrors:
    """Every server's matured forecast error at ``time_s``, in one pass.

    The control tick computes this once; the ledger row and the drift
    monitor's per-class rows both aggregate the result (see
    :meth:`MaturedErrors.mean`). The forecasts and the measured values
    at their targets are read from the telemetry blocks with array
    operations. Parity: repro.control.ledger.forecast_error_at
    """
    targets, predicted, has_forecast = telemetry.latest_forecasts(names, time_s)
    errors = np.zeros(len(names))
    scored = np.zeros(len(names), dtype=bool)
    idx = np.flatnonzero(has_forecast)
    if idx.size:
        actual, measured = telemetry.values_at(
            "cpu_temperature", [names[i] for i in idx.tolist()], targets[idx]
        )
        idx = idx[measured]
        errors[idx] = np.abs(predicted[idx] - actual[measured])
        scored[idx] = True
    return MaturedErrors(errors, scored)


@dataclass(frozen=True)
class ControlIntervalRecord:
    """One control interval's telemetry, produced by the account stage."""

    time_s: float
    n_tracked: int
    predicted_hotspot_names: tuple[str, ...]
    measured_hotspot_names: tuple[str, ...]
    moves_planned: int
    moves_issued: int
    moves_deferred: int
    forecast_error_c: float
    forecasts_scored: int
    it_power_w: float
    cooling_power_w: float

    @property
    def predicted_hotspots(self) -> int:
        """Number of servers whose forecast exceeded the threshold."""
        return len(self.predicted_hotspot_names)

    @property
    def measured_hotspots(self) -> int:
        """Number of servers whose measured temperature exceeded it."""
        return len(self.measured_hotspot_names)

    @property
    def total_power_w(self) -> float:
        """IT plus cooling power over the interval."""
        return self.it_power_w + self.cooling_power_w


class ControlLedger:
    """Accumulates control-interval records and the fleet energy account."""

    def __init__(
        self,
        interval_s: float,
        cooling: CoolingModel | None = None,
        supply_temperature_c: float = 15.0,
    ) -> None:
        if interval_s <= 0:
            raise ConfigurationError(f"interval_s must be > 0, got {interval_s}")
        self.interval_s = interval_s
        self.supply_temperature_c = supply_temperature_c
        self.account = EnergyAccount(cooling=cooling or CoolingModel())
        self.records: list[ControlIntervalRecord] = []

    # -- writing -------------------------------------------------------------

    def record_interval(
        self,
        time_s: float,
        n_tracked: int,
        predicted_hotspot_names: list[str],
        measured_hotspot_names: list[str],
        moves_planned: int,
        moves_issued: int,
        moves_deferred: int,
        forecast_error_c: float,
        forecasts_scored: int,
        it_power_w: float,
    ) -> ControlIntervalRecord:
        """Append one interval row and integrate its energy."""
        cooling_power_w = self.account.cooling.cooling_power_w(
            it_power_w, self.supply_temperature_c
        )
        self.account.add_interval(
            it_power_w, self.supply_temperature_c, self.interval_s
        )
        record = ControlIntervalRecord(
            time_s=time_s,
            n_tracked=n_tracked,
            predicted_hotspot_names=tuple(predicted_hotspot_names),
            measured_hotspot_names=tuple(measured_hotspot_names),
            moves_planned=moves_planned,
            moves_issued=moves_issued,
            moves_deferred=moves_deferred,
            forecast_error_c=forecast_error_c,
            forecasts_scored=forecasts_scored,
            it_power_w=it_power_w,
            cooling_power_w=cooling_power_w,
        )
        self.records.append(record)
        return record

    # -- queries -------------------------------------------------------------

    @property
    def n_intervals(self) -> int:
        """Number of recorded control intervals."""
        return len(self.records)

    @property
    def moves_issued(self) -> int:
        """Total migrations actually scheduled by the act stage."""
        return sum(record.moves_issued for record in self.records)

    def sustained_hotspots(self, intervals: int = 3) -> list[str]:
        """Servers measured over threshold in each of the last N intervals.

        A single interval over the limit is a transient (a migration's
        CPU overhead, a sensor spike); a server hot through ``intervals``
        consecutive control periods is a real, unmitigated hotspot.
        Requires at least ``intervals`` recorded rows (fewer rows mean
        the run was too short to call anything sustained).
        """
        if intervals < 1:
            raise ConfigurationError(f"intervals must be >= 1, got {intervals}")
        if len(self.records) < intervals:
            return []
        tail = self.records[-intervals:]
        sustained = set(tail[0].measured_hotspot_names)
        for record in tail[1:]:
            sustained &= set(record.measured_hotspot_names)
        return sorted(sustained)

    def mean_forecast_error_c(self) -> float:
        """Average act-time forecast error over intervals that scored one."""
        return self.windowed_forecast_error_c(max(len(self.records), 1))

    def windowed_forecast_error_c(self, intervals: int = 5) -> float:
        """Mean act-time forecast error over the last ``intervals`` rows.

        The lifecycle scorecard's headline: how well the *currently
        served* models forecast at the end of a run, after any drift
        and retraining have played out — unlike
        :meth:`mean_forecast_error_c`, early (pre-drift or pre-swap)
        intervals do not dilute the comparison. NaN rows (nothing
        matured that interval) are skipped; returns NaN when no row in
        the window scored.
        """
        if intervals < 1:
            raise ConfigurationError(f"intervals must be >= 1, got {intervals}")
        errors = [
            record.forecast_error_c
            for record in self.records[-intervals:]
            if not math.isnan(record.forecast_error_c)
        ]
        return float(np.mean(errors)) if errors else float("nan")

    def summary(self) -> dict[str, float]:
        """Scorecard of the whole run (energy in kWh, PUE, hotspot totals)."""
        account = self.account
        peak_measured = max(
            (record.measured_hotspots for record in self.records), default=0
        )
        return {
            "intervals": float(self.n_intervals),
            "moves_issued": float(self.moves_issued),
            "peak_measured_hotspots": float(peak_measured),
            "final_measured_hotspots": (
                float(self.records[-1].measured_hotspots) if self.records else 0.0
            ),
            "sustained_hotspots": float(len(self.sustained_hotspots())),
            "mean_forecast_error_c": self.mean_forecast_error_c(),
            "it_energy_kwh": account.to_kwh(account.it_energy_j),
            "cooling_energy_kwh": account.to_kwh(account.cooling_energy_j),
            "pue": account.pue if account.it_energy_j > 0 else float("nan"),
        }
