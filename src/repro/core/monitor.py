"""Online temperature monitoring service — the paper's method, deployed.

The paper describes deployment: "the model received data collected
online and output prediction values". :class:`TemperatureMonitor` is that
service for a running co-simulation (or, identically, a real telemetry
feed): per observed server it

* seeds a pre-defined curve from the stable model's ψ_stable prediction
  and the first measurement;
* feeds every sensor sample to the runtime calibrator on the Δ_update
  schedule;
* watches the hosted VM set and *retargets* the curve (re-querying the
  stable model) whenever it changes — arrivals, departures, migrations;
* records a Δ_gap-ahead forecast at every sample, so forecast accuracy
  can be audited after the fact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import PredictionConfig
from repro.core.curve import PredefinedCurve
from repro.core.dynamic import DynamicPrediction, DynamicTemperaturePredictor
from repro.core.records import ExperimentRecord, VmRecord
from repro.core.stable import StableTemperaturePredictor
from repro.datacenter.server import Server
from repro.datacenter.simulation import DatacenterSimulation
from repro.errors import TelemetryError
from repro.svm.metrics import mean_squared_error


def record_for_server(server: Server, environment_c: float) -> ExperimentRecord:
    """Eq. (2) input record for a server's *current* VM set."""
    vms = tuple(
        VmRecord(
            vcpus=vm.spec.vcpus,
            memory_gb=vm.spec.memory_gb,
            task_kinds=tuple(task.kind for task in vm.spec.tasks),
            nominal_utilization=vm.spec.nominal_utilization(),
        )
        for vm in server.vms.values()
    )
    capacity = server.spec.capacity
    return ExperimentRecord(
        theta_cpu_cores=capacity.cpu_cores,
        theta_cpu_ghz=capacity.total_ghz,
        theta_memory_gb=capacity.memory_gb,
        theta_fan_count=server.fans.count,
        theta_fan_speed=server.fans.speed,
        delta_env_c=environment_c,
        vms=vms,
        metadata={"server": server.name, "online": True},
    )


@dataclass
class ServerForecastLog:
    """Audit trail for one monitored server."""

    server_name: str
    forecasts: list[DynamicPrediction] = field(default_factory=list)
    observations: list[tuple[float, float]] = field(default_factory=list)
    retargets: list[tuple[float, float]] = field(default_factory=list)

    def realized_mse(self) -> float:
        """MSE of past forecasts against later observations.

        Each forecast is scored against the observation nearest its
        target time (sensor samples are dense relative to Δ_gap).
        """
        if not self.forecasts or len(self.observations) < 2:
            raise TelemetryError(
                f"no auditable forecasts for server {self.server_name!r}"
            )
        times = [t for t, _ in self.observations]
        values = [v for _, v in self.observations]
        scored_predictions = []
        scored_actuals = []
        for forecast in self.forecasts:
            if forecast.target_time_s > times[-1]:
                continue
            nearest = min(
                range(len(times)), key=lambda i: abs(times[i] - forecast.target_time_s)
            )
            scored_predictions.append(forecast.predicted_c)
            scored_actuals.append(values[nearest])
        if not scored_predictions:
            raise TelemetryError(
                f"no forecast of server {self.server_name!r} has matured yet"
            )
        return mean_squared_error(scored_actuals, scored_predictions)


class TemperatureMonitor:
    """Attach the paper's predictors to a live simulation.

    Parameters
    ----------
    predictor:
        Trained stable-temperature model (supplies ψ_stable targets).
    config:
        Prediction constants (t_break, λ, Δ_gap, Δ_update, δ).
    servers:
        Names of servers to monitor; None monitors every cluster member.
    """

    def __init__(
        self,
        predictor: StableTemperaturePredictor,
        config: PredictionConfig | None = None,
        servers: list[str] | None = None,
    ) -> None:
        # reprolint: waive R002 -- live view by contract: the monitor
        # re-queries the caller's predictor on every VM-set retarget;
        # it never publishes or versions fitted state itself.
        self.predictor = predictor
        self.config = config or PredictionConfig()
        self._server_filter = set(servers) if servers is not None else None
        self._dynamic: dict[str, DynamicTemperaturePredictor] = {}
        self._vm_sets: dict[str, frozenset[str]] = {}
        self._last_sample_count: dict[str, int] = {}
        self.logs: dict[str, ServerForecastLog] = {}

    # -- wiring ---------------------------------------------------------

    def attach(self, sim: DatacenterSimulation) -> None:
        """Register the monitor as a simulation probe."""
        sim.add_probe(self._on_step)

    def _watched_servers(self, sim: DatacenterSimulation) -> list[Server]:
        servers = sim.cluster.servers
        if self._server_filter is None:
            return servers
        return [s for s in servers if s.name in self._server_filter]

    # -- per-step logic -----------------------------------------------------

    def _on_step(self, sim: DatacenterSimulation, time_s: float) -> None:
        environment_c = sim.environment.temperature(time_s)
        for server in self._watched_servers(sim):
            bundle = sim.telemetry.for_server(server.name)
            series = bundle.cpu_temperature
            seen = self._last_sample_count.get(server.name, 0)
            if len(series) <= seen:
                continue  # no new sensor sample this step
            self._last_sample_count[server.name] = len(series)
            sample_time, measured = series.last()

            log = self.logs.setdefault(server.name, ServerForecastLog(server.name))
            log.observations.append((sample_time, measured))

            dynamic = self._ensure_predictor(
                server, environment_c, sample_time, measured
            )
            self._maybe_retarget(server, environment_c, sample_time, measured, log)
            dynamic.observe(sample_time, measured)
            log.forecasts.append(dynamic.predict_ahead(sample_time))

    def _ensure_predictor(
        self, server: Server, environment_c: float, time_s: float, measured: float
    ) -> DynamicTemperaturePredictor:
        if server.name not in self._dynamic:
            record = record_for_server(server, environment_c)
            target = self.predictor.predict(record)
            curve = PredefinedCurve(
                phi_0=measured,
                psi_stable=target,
                t_break_s=self.config.t_break_s,
                delta=self.config.curve_delta,
                origin_s=time_s,
            )
            self._dynamic[server.name] = DynamicTemperaturePredictor(
                curve, config=self.config
            )
            self._vm_sets[server.name] = frozenset(server.vms)
        return self._dynamic[server.name]

    def _maybe_retarget(
        self,
        server: Server,
        environment_c: float,
        time_s: float,
        measured: float,
        log: ServerForecastLog,
    ) -> None:
        current = frozenset(server.vms)
        if current == self._vm_sets.get(server.name):
            return
        self._vm_sets[server.name] = current
        record = record_for_server(server, environment_c)
        target = self.predictor.predict(record)
        self._dynamic[server.name].retarget(time_s, measured, target)
        log.retargets.append((time_s, target))

    # -- queries ------------------------------------------------------------

    def forecast(self, server_name: str) -> DynamicPrediction:
        """Latest Δ_gap-ahead forecast for a server."""
        log = self.logs.get(server_name)
        if log is None or not log.forecasts:
            raise TelemetryError(f"no forecasts yet for server {server_name!r}")
        return log.forecasts[-1]

    def forecast_all(self) -> dict[str, float]:
        """Latest forecast value per monitored server."""
        return {
            name: log.forecasts[-1].predicted_c
            for name, log in self.logs.items()
            if log.forecasts
        }

    def predicted_hotspots(self, threshold_c: float = 75.0) -> list[str]:
        """Servers whose latest forecast exceeds the threshold, hottest first."""
        forecasts = self.forecast_all()
        offenders = [name for name, value in forecasts.items() if value > threshold_c]
        return sorted(offenders, key=lambda name: -forecasts[name])
