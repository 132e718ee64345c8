"""Fleet-wide online temperature prediction service.

:class:`~repro.core.monitor.TemperatureMonitor` runs the paper's online
loop — pre-defined curve ψ* (Eq. 3), Δ_update calibration γ (Eq. 4–7),
Δ_gap-ahead forecast (Eq. 8) — one Python object per server. At fleet
scale (hundreds of hosts, one sensor sample each every few seconds) the
per-server loop dominates the serving cost the same way the scalar
thermal plants dominated simulation cost before
:class:`~repro.thermal.fleet.FleetThermalEngine`.

:class:`PredictionFleet` is the vectorized counterpart: curve
parameters (φ(0), ψ_stable, t₀, t_break, δ), calibration state (γ and
the next Δ_update deadline), and the latest forecasts are packed into
contiguous NumPy arrays indexed by tracked server, and every operation
— calibration updates, curve evaluation, Δ_gap-ahead forecasting — runs
for the whole cluster in a handful of array expressions. ψ_stable
queries (seeding and retargeting) go through the cross-model batcher
(:func:`repro.serving.batch.predict_batch`), so a step that retargets
fifty servers costs one kernel evaluation, not fifty.

Every vectorized expression replicates the scalar predictor
operation-for-operation (same ``log1p``, same clamping, same repeated
Δ_update grid addition), so fleet forecasts are **bit-identical** to a
per-server :class:`~repro.core.dynamic.DynamicTemperaturePredictor`
loop — the parity contract enforced by
``tests/serving/test_fleet_service.py`` and benchmarked (≥5× at 128
servers) by ``benchmarks/test_prediction_fleet.py``.

:class:`FleetPredictionProbe` wires the service into a running
:class:`~repro.datacenter.simulation.DatacenterSimulation` with one step
body for both simulation paths: it reads the step's sensor samples as
arrays (``sim.step_columns``), batches them into ``observe``, finds
placement changes through ``FleetState.server_generation`` and
re-queries ψ_stable only for servers whose VM set changed, and emits
predicted-vs-actual temperature columns into telemetry
(``predicted_cpu_temperature`` alongside the measured
``cpu_temperature`` series).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.config import PredictionConfig
from repro.core.monitor import record_for_server
from repro.core.records import ExperimentRecord
from repro.errors import ServingError
from repro.management.hotspot import Hotspot, HotspotDetector
from repro.serving.batch import PredictionRequest, predict_batch
from repro.serving.registry import DEFAULT_KEY, ModelRegistry


@dataclass(frozen=True)
class ForecastSnapshot:
    """A consistent point-in-time copy of a fleet's latest forecasts.

    The snapshot is the read API mitigation policies consume: name-aligned
    arrays of the latest Δ_gap-ahead forecast per tracked server (its
    target time and value), the current calibration γ, and a validity
    mask (servers tracked but not yet forecast carry NaN). Arrays are
    copies — policies may plan at leisure while the fleet keeps serving.
    """

    names: tuple[str, ...]
    target_times_s: np.ndarray
    predicted_c: np.ndarray
    gamma: np.ndarray
    has_forecast: np.ndarray

    @property
    def n_servers(self) -> int:
        """Number of tracked servers in the snapshot."""
        return len(self.names)

    def forecast_names(self) -> list[str]:
        """Names of servers that have a forecast, in array order."""
        mask = self.has_forecast
        return [name for i, name in enumerate(self.names) if mask[i]]

    def forecasts(self) -> tuple[list[str], np.ndarray]:
        """(names, predicted) restricted to servers with a forecast —
        the shape :meth:`~repro.management.hotspot.HotspotDetector.detect_fleet`
        consumes."""
        return self.forecast_names(), self.predicted_c[self.has_forecast]


class PredictionFleet:
    """Batched dynamic prediction + Δ_update calibration for many servers.

    Parameters
    ----------
    registry:
        Source of trained ψ_stable models (seeding and retargeting).
    config:
        λ, Δ_gap, Δ_update, t_break and curve δ — shared by the fleet.
    calibrated:
        When False, γ stays 0 for every server (the paper's
        "without calibration" arm), exactly as in the scalar predictor.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        config: PredictionConfig | None = None,
        calibrated: bool = True,
    ) -> None:
        self.registry = registry
        self.config = config or PredictionConfig()
        self.calibrated = calibrated
        self._names: list[str] = []
        self._index: dict[str, int] = {}
        self._keys: list[str] = []
        empty = np.empty(0, dtype=float)
        self._phi0 = empty.copy()
        self._psi = empty.copy()
        self._origin = empty.copy()
        self._t_break = empty.copy()
        self._delta = empty.copy()
        self._denom = empty.copy()  # log1p(δ·t_break), precomputed per curve
        self._gamma = empty.copy()
        self._next_update = empty.copy()
        self._last_target = empty.copy()
        self._last_pred = empty.copy()
        self._retarget_log: list[tuple[str, float, float, float]] = []

    # -- membership ---------------------------------------------------------

    @property
    def names(self) -> list[str]:
        """Tracked server names, in array order."""
        return list(self._names)

    @property
    def n_servers(self) -> int:
        """Number of tracked servers."""
        return len(self._names)

    def indices(self, names: list[str]) -> np.ndarray:
        """Array indices for ``names`` (raises on untracked servers)."""
        try:
            return np.array([self._index[name] for name in names], dtype=np.intp)
        except KeyError as exc:
            raise ServingError(f"server {exc.args[0]!r} is not tracked") from None

    def track(
        self,
        names: list[str],
        records: list[ExperimentRecord],
        times_s: np.ndarray,
        measured_c: np.ndarray,
        keys: list[str] | None = None,
    ) -> np.ndarray:
        """Start serving ``names``: one batched ψ_stable query seeds all curves.

        ``records`` are the servers' Eq. (2) input records, ``times_s`` /
        ``measured_c`` the first sensor sample per server (curve origin
        t₀ and φ(0)). ``keys`` selects each server's registry model
        (default: the ``"default"`` entry). Returns the seeded ψ_stable
        array. The first later observation calibrates, matching the
        scalar predictor's deadline initialization.
        """
        keys = keys if keys is not None else [DEFAULT_KEY] * len(names)
        if not (len(names) == len(records) == len(keys)):
            raise ServingError(
                f"track: {len(names)} names vs {len(records)} records "
                f"vs {len(keys)} keys"
            )
        times_s = np.atleast_1d(np.asarray(times_s, dtype=float))
        measured_c = np.atleast_1d(np.asarray(measured_c, dtype=float))
        if times_s.shape != (len(names),) or measured_c.shape != (len(names),):
            raise ServingError("track: times/measured must align with names")
        for name in names:
            if name in self._index:
                raise ServingError(f"server {name!r} is already tracked")
        if len(set(names)) != len(names):
            raise ServingError("track: duplicate server names in one batch")

        psi = predict_batch(
            self.registry,
            [PredictionRequest(key, record) for key, record in zip(keys, records)],
        )
        n_new = len(names)
        for offset, name in enumerate(names):
            self._index[name] = len(self._names) + offset
        self._names.extend(names)
        self._keys.extend(keys)
        t_break = np.full(n_new, self.config.t_break_s)
        delta = np.full(n_new, self.config.curve_delta)
        self._phi0 = np.concatenate([self._phi0, measured_c])
        self._psi = np.concatenate([self._psi, psi])
        self._origin = np.concatenate([self._origin, times_s])
        self._t_break = np.concatenate([self._t_break, t_break])
        self._delta = np.concatenate([self._delta, delta])
        self._denom = np.concatenate([self._denom, np.log1p(delta * t_break)])
        self._gamma = np.concatenate([self._gamma, np.zeros(n_new)])
        self._next_update = np.concatenate([self._next_update, times_s])
        nan = np.full(n_new, np.nan)
        self._last_target = np.concatenate([self._last_target, nan])
        self._last_pred = np.concatenate([self._last_pred, nan])
        return psi

    # -- online interface ---------------------------------------------------

    def _broadcast(
        self, values, indices: np.ndarray | list[int] | None
    ) -> tuple[np.ndarray | None, np.ndarray]:
        """Normalize (indices, per-server values) for the hot path.

        ``None`` indices mean "the whole fleet" and skip the fancy-index
        gathers entirely — the common case when every sensor samples on
        the same step.
        """
        idx = None if indices is None else np.asarray(indices, dtype=np.intp)
        arr = np.asarray(values, dtype=float)
        n = len(self._names) if idx is None else idx.shape[0]
        if arr.ndim == 0:
            arr = np.broadcast_to(arr, (n,))
        return idx, arr

    @staticmethod
    def _gather(array: np.ndarray, idx: np.ndarray | None) -> np.ndarray:
        return array if idx is None else array[idx]

    def _curve_value_at(
        self, idx: np.ndarray | None, times_s: np.ndarray
    ) -> np.ndarray:
        """ψ*(t) per server — Eq. (3), vectorized, bit-equal to the scalar
        :meth:`~repro.core.curve.PredefinedCurve.value`."""
        phi0 = self._gather(self._phi0, idx)
        psi = self._gather(self._psi, idx)
        t_break = self._gather(self._t_break, idx)
        local = times_s - self._gather(self._origin, idx)
        safe = np.clip(local, 0.0, t_break)
        rise = np.log1p(self._gather(self._delta, idx) * safe) / self._gather(
            self._denom, idx
        )
        value = phi0 + (psi - phi0) * rise
        value = np.where(local >= t_break, psi, value)
        return np.where(local <= 0.0, phi0, value)

    def observe(
        self,
        times_s: np.ndarray | float,
        measured_c: np.ndarray,
        indices: np.ndarray | list[int] | None = None,
    ) -> np.ndarray:
        """Feed one measurement per (selected) server; calibrate where due.

        Eq. (5)–(6) per server: where a Δ_update deadline has passed,
        ``γ ← γ + λ·(φ(t) − (ψ*(t) + γ))`` and the deadline advances on
        the fixed grid anchored at each curve's origin (jittered sensor
        timestamps do not drift the schedule). Returns the boolean mask
        of servers whose calibration updated, aligned with ``indices``.
        """
        idx, t = self._broadcast(times_s, indices)
        _, v = self._broadcast(measured_c, indices)
        if not self.calibrated:
            return np.zeros(t.shape, dtype=bool)
        due = t + 1e-9 >= self._gather(self._next_update, idx)
        if due.any():
            d_idx = np.flatnonzero(due) if idx is None else idx[due]
            t_due = t[due]
            curve = self._curve_value_at(d_idx, t_due)
            dif = v[due] - (curve + self._gamma[d_idx])
            self._gamma[d_idx] = self._gamma[d_idx] + self.config.learning_rate * dif
            # Advance deadlines by repeated addition, like the scalar
            # predictor's while-loop — multiply-and-add would round
            # differently and break grid parity.
            interval = self.config.update_interval_s
            while True:
                lag = self._next_update[d_idx] <= t_due + 1e-9
                if not lag.any():
                    break
                d_idx = d_idx[lag]
                t_due = t_due[lag]
                self._next_update[d_idx] += interval
        return due

    def predict_at(
        self,
        target_times_s: np.ndarray | float,
        indices: np.ndarray | list[int] | None = None,
    ) -> np.ndarray:
        """ψ(target) = ψ*(target) + γ per (selected) server — Eq. (8)."""
        idx, t = self._broadcast(target_times_s, indices)
        return self._curve_value_at(idx, t) + self._gather(self._gamma, idx)

    def predict_ahead(
        self,
        now_s: np.ndarray | float,
        indices: np.ndarray | list[int] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Forecast Δ_gap ahead of ``now_s`` for every (selected) server.

        Returns ``(target_times, predicted)`` arrays aligned with
        ``indices`` and remembers them as each server's latest forecast.
        """
        idx, now = self._broadcast(now_s, indices)
        targets = now + self.config.prediction_gap_s
        predicted = self._curve_value_at(idx, targets) + self._gather(self._gamma, idx)
        if idx is None:
            self._last_target = targets.copy()
            self._last_pred = predicted.copy()
        else:
            self._last_target[idx] = targets
            self._last_pred[idx] = predicted
        return targets, predicted

    def retarget(
        self,
        names: list[str],
        records: list[ExperimentRecord],
        times_s: np.ndarray,
        measured_c: np.ndarray,
    ) -> np.ndarray:
        """Re-anchor curves after VM-set changes — one batched ψ_stable query.

        Each named server gets a fresh curve from its current measurement
        toward the stable model's prediction for the *new* VM set; γ and
        the Δ_update deadline are kept, exactly like the scalar
        :meth:`~repro.core.dynamic.DynamicTemperaturePredictor.retarget`.
        """
        if len(records) != len(names):
            raise ServingError(
                f"retarget: {len(names)} names vs {len(records)} records"
            )
        idx = self.indices(names)
        times_s = np.atleast_1d(np.asarray(times_s, dtype=float))
        measured_c = np.atleast_1d(np.asarray(measured_c, dtype=float))
        if times_s.shape != (len(names),) or measured_c.shape != (len(names),):
            raise ServingError("retarget: times/measured must align with names")
        psi = predict_batch(
            self.registry,
            [
                PredictionRequest(self._keys[i], record)
                for i, record in zip(idx.tolist(), records)
            ],
        )
        self._phi0[idx] = measured_c
        self._psi[idx] = psi
        self._origin[idx] = times_s
        for name, t, phi, target in zip(
            names, times_s.tolist(), measured_c.tolist(), psi.tolist()
        ):
            self._retarget_log.append((name, t, phi, target))
        return psi

    # -- queries -------------------------------------------------------------

    @property
    def gamma(self) -> np.ndarray:
        """Current calibration γ per tracked server (copy)."""
        return self._gamma.copy()

    @property
    def model_keys(self) -> list[str]:
        """Registry model key per tracked server, in array order.

        The key each server was tracked with (the *requested* key; the
        registry may serve it via an alias or the default fallback) —
        what the lifecycle's drift monitor groups servers by.
        """
        return list(self._keys)

    @property
    def retarget_log(self) -> list[tuple[str, float, float, float]]:
        """(server, time, measured φ, new ψ_stable) for every retarget."""
        return list(self._retarget_log)

    def forecast_snapshot(self) -> ForecastSnapshot:
        """Point-in-time copy of every tracked server's latest forecast.

        The control plane's *predict* stage: policies get name-aligned
        arrays (forecast target times, values, γ, validity mask) decoupled
        from the live service state.
        """
        return ForecastSnapshot(
            names=tuple(self._names),
            target_times_s=self._last_target.copy(),
            predicted_c=self._last_pred.copy(),
            gamma=self._gamma.copy(),
            has_forecast=~np.isnan(self._last_pred),
        )

    def forecast_all(self) -> dict[str, float]:
        """Latest forecast value per server that has one."""
        return {
            name: float(self._last_pred[i])
            for name, i in self._index.items()
            if not np.isnan(self._last_pred[i])
        }

    def predicted_hotspots(self, detector: HotspotDetector) -> list[Hotspot]:
        """Hotspots over the latest fleet forecasts, hottest first."""
        has_forecast = ~np.isnan(self._last_pred)
        names = [name for name, i in self._index.items() if has_forecast[i]]
        return detector.detect_fleet(names, self._last_pred[self.indices(names)])


#: Chooses the registry key for a server (default: the shared model).
ModelKeyFn = Callable[[object], str]


def _default_key(server: object) -> str:
    """Serve every server from the shared default model."""
    return DEFAULT_KEY


class FleetPredictionProbe:
    """Per-step simulation hook running a :class:`PredictionFleet` online.

    Mirrors :class:`~repro.core.monitor.TemperatureMonitor` semantics —
    seed on first sample, retarget on VM-set change, calibrate on the
    Δ_update schedule, forecast Δ_gap ahead on every new sample — but
    batches all per-server work through the fleet arrays, and writes each
    forecast into telemetry as a ``predicted_cpu_temperature`` sample at
    its *target* time, so predicted-vs-actual columns line up against the
    measured ``cpu_temperature`` series (see :func:`predicted_vs_actual`).

    One body serves both simulation step bodies: it reads the step's
    sensor samples from ``sim.step_columns`` (slots, time, values), so
    every sample is observed exactly once, whenever the probe was
    attached. Placement changes are found by comparing each sampled
    server's ``FleetState.server_generation`` with the one seen at its
    last VM-set derivation; Eq. (2) records are built only for servers
    that start tracking or retarget.

    Parameters
    ----------
    fleet:
        The prediction service to drive.
    servers:
        Names to watch; None watches every cluster member.
    key_fn:
        Maps a server to its registry model key (default: ``"default"``).
    """

    def __init__(
        self,
        fleet: PredictionFleet,
        servers: list[str] | None = None,
        key_fn: ModelKeyFn | None = None,
    ) -> None:
        self.fleet = fleet
        self._server_filter = set(servers) if servers is not None else None
        self._key_fn: ModelKeyFn = key_fn or _default_key
        # Per fleet-state slot, grown with the cluster: whether the slot
        # is watched, its fleet index (-1 until its first sample tracks
        # it), and its server generation at the last VM-set derivation.
        self._watched = np.zeros(0, dtype=bool)
        self._fleet_index = np.zeros(0, dtype=np.intp)
        self._generation = np.zeros(0, dtype=np.int64)
        self._vm_sets: dict[int, frozenset[str]] = {}

    def attach(self, sim) -> None:
        """Register the probe on a simulation."""
        sim.add_probe(self._on_step)

    def _grow(self, fs) -> None:
        """Extend the per-slot state to servers registered since last step."""
        names = fs.server_names[self._watched.shape[0]:]
        server_filter = self._server_filter
        watched = [server_filter is None or name in server_filter for name in names]
        self._watched = np.concatenate([self._watched, np.array(watched, dtype=bool)])
        self._fleet_index = np.concatenate(
            [self._fleet_index, np.full(len(names), -1, dtype=np.intp)]
        )
        self._generation = np.concatenate(
            [self._generation, np.zeros(len(names), dtype=np.int64)]
        )

    def _on_step(self, sim, time_s: float) -> None:
        columns = sim.step_columns
        if columns is None or columns.sampled.size == 0:
            return
        fs = sim.cluster.fleet_state
        if self._watched.shape[0] < fs.n_servers:
            self._grow(fs)
        slots = columns.sampled
        values = columns.samples_c
        if self._server_filter is not None:
            keep = self._watched[slots]
            slots, values = slots[keep], values[keep]
            if slots.size == 0:
                return
        times = np.full(slots.shape[0], columns.time_s)
        environment_c = sim.environment.temperature(time_s)

        new = self._fleet_index[slots] < 0
        if new.any():
            self._track(fs, slots[new], times[new], values[new], environment_c)
        generation = fs.server_generation[slots]
        moved = np.flatnonzero(generation != self._generation[slots])
        if moved.size:
            self._retarget(
                fs,
                slots[moved],
                generation[moved],
                times[moved],
                values[moved],
                environment_c,
            )

        fleet = self.fleet
        indices = self._fleet_index[slots]
        fleet.observe(times, values, indices)
        targets, predicted = fleet.predict_ahead(times, indices)
        sim.telemetry.record_fleet_forecasts(
            float(targets[0]), fs.server_names, predicted, slots
        )

    def _track(self, fs, slots, times, values, environment_c) -> None:
        """Seed curves for first-sampled servers (one batched ψ_stable query)."""
        servers = [fs.server_objects[slot] for slot in slots.tolist()]
        names = [server.name for server in servers]
        self.fleet.track(
            names,
            [record_for_server(server, environment_c) for server in servers],
            times,
            values,
            keys=[self._key_fn(server) for server in servers],
        )
        self._fleet_index[slots] = self.fleet.indices(names)
        self._generation[slots] = fs.server_generation[slots]
        for slot, server in zip(slots.tolist(), servers):
            self._vm_sets[slot] = frozenset(server.vms)

    def _retarget(self, fs, slots, generation, times, values, environment_c) -> None:
        """Re-anchor servers whose VM set changed since their last sample.

        A generation bump without a VM-set change (a hosted VM changing
        lifecycle state) only refreshes the remembered generation.
        """
        self._generation[slots] = generation
        changed = []
        for offset, slot in enumerate(slots.tolist()):
            vm_set = frozenset(fs.server_objects[slot].vms)
            if vm_set != self._vm_sets[slot]:
                self._vm_sets[slot] = vm_set
                changed.append(offset)
        if not changed:
            return
        servers = [fs.server_objects[slot] for slot in slots[changed].tolist()]
        self.fleet.retarget(
            [server.name for server in servers],
            [record_for_server(server, environment_c) for server in servers],
            times[changed],
            values[changed],
        )


def predicted_vs_actual(
    telemetry, server_name: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Aligned (target_times, predicted, actual) arrays for one server.

    ``predicted`` is the probe-recorded forecast series; ``actual`` is
    the measured ``cpu_temperature`` linearly interpolated at each
    forecast's target time. Forecasts whose target lies beyond the last
    measurement (not yet matured) are dropped, so
    ``mean((predicted - actual)**2)`` is the paper's dynamic MSE.
    """
    bundle = telemetry.for_server(server_name)
    times = bundle.predicted_cpu_temperature.times_array()
    predicted = bundle.predicted_cpu_temperature.values_array()
    actual_times = bundle.cpu_temperature.times_array()
    actual_values = bundle.cpu_temperature.values_array()
    if actual_times.size == 0:
        return np.empty(0), np.empty(0), np.empty(0)
    matured = times <= actual_times[-1] + 1e-9
    times, predicted = times[matured], predicted[matured]
    actual = np.interp(times, actual_times, actual_values)
    return times, predicted, actual
