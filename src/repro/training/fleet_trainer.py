"""Batch training of a per-server-class model farm.

The fleet prediction service (:mod:`repro.serving`) keys its
:class:`~repro.serving.registry.ModelRegistry` by *server class* — the
discrete hardware signature (cores, clock, memory, fan count) that per-host
thermal prediction work trains one model per (Ilager et al.; ThermoSim).
This module turns one fleet profiling campaign into that registry in a
single batched pass:

1. :func:`profile_fleet` runs the vectorized co-simulation for a
   :class:`~repro.experiments.scenarios.FleetScenario` and extracts one
   labelled Eq. (2) record per server (ψ_stable via Eq. 1 over the
   telemetry window), tagged with its :func:`server_class_key`.
2. :func:`train_fleet_registry` fits **one shared scaler** over the whole
   campaign (the svm-scale map all class models deploy with), selects
   **one shared (C, γ, ε)** by easygrid-style search over the pooled
   records (subsampled class-stratified beyond ``search_sample`` — the
   hyper-parameters are stable across classes, the coefficients are not),
   then refits every class model *and* the fleet-wide default through one
   :func:`~repro.svm.smo.solve_svr_dual_batch` call.
3. The results are registered directly into a
   :class:`~repro.serving.registry.ModelRegistry`: ``"default"`` plus one
   entry per class, all sharing the scaler/extractor; classes with too few
   records become aliases of the default instead of overfit singletons.

Serving picks the class model per host with
``key_fn=lambda server: server_class_key(server.spec)`` on a
:class:`~repro.serving.fleet.FleetPredictionProbe`; unknown future
classes fall back to ``"default"`` via the registry's resolve rules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import ExperimentConfig
from repro.core.features import FeatureExtractor
from repro.core.records import ExperimentRecord, VmRecord
from repro.datacenter.server import ServerSpec
from repro.errors import DatasetError
from repro.serving.registry import DEFAULT_KEY, ModelRegistry
from repro.svm.grid import (
    DEFAULT_C_GRID,
    DEFAULT_EPSILON_GRID,
    DEFAULT_GAMMA_GRID,
    GridSearchResult,
    grid_search_svr,
)
from repro.svm.kernels import RbfKernel
from repro.svm.metrics import mean_squared_error
from repro.svm.scaling import MinMaxScaler
from repro.svm.smo import solve_svr_dual_batch
from repro.svm.svr import EpsilonSVR


def server_class_key(spec: ServerSpec) -> str:
    """Registry key for a server's hardware class.

    Classes are the discrete hardware axes of Eq. (2)'s θ — core count,
    per-core clock, memory, fan count. Fan *speed* is a continuous
    operating point, not a class boundary; it stays a model feature.
    """
    capacity = spec.capacity
    return (
        f"{capacity.cpu_cores}c/{capacity.ghz_per_core:g}ghz/"
        f"{capacity.memory_gb:g}gb/{spec.fan_count}fan"
    )


@dataclass(frozen=True)
class FleetProfile:
    """One profiling campaign over a fleet: a labelled record per server."""

    names: tuple[str, ...]
    class_keys: tuple[str, ...]
    records: tuple[ExperimentRecord, ...]

    def __post_init__(self) -> None:
        if not (len(self.names) == len(self.class_keys) == len(self.records)):
            raise DatasetError(
                f"profile lengths disagree: {len(self.names)} names, "
                f"{len(self.class_keys)} class keys, {len(self.records)} records"
            )

    @property
    def n_servers(self) -> int:
        """Number of profiled servers (= number of records)."""
        return len(self.names)

    def classes(self) -> dict[str, list[int]]:
        """Record indices per class key, keys sorted."""
        groups: dict[str, list[int]] = {}
        for index, key in enumerate(self.class_keys):
            groups.setdefault(key, []).append(index)
        return dict(sorted(groups.items()))


def profile_fleet(  # reprolint: waive R004 -- campaign profiler, not a vectorized twin: one fleet co-simulation yields one record per server; the per-scenario path (runner.profile_records) runs different physics per experiment
    scenario: FleetScenario,
    t_break_s: float | None = None,
    use_fleet_engine: bool = True,
) -> FleetProfile:
    """Run a fleet scenario and extract one Eq. (2) record per server.

    The co-simulation runs once for the scenario's duration on the
    vectorized fleet engine; each server's ψ_stable is the Eq. (1) mean
    of its sampled CPU temperature over ``[t_break, t_exp]``. Record
    inputs mirror :func:`repro.experiments.runner.record_inputs_from_scenario`
    for each server's initial VM placement.
    """
    # Imported lazily: repro.experiments pulls the figure builders, which
    # import the training pipeline — a cycle at module-import time.
    from repro.experiments.scenarios import build_fleet_simulation

    if t_break_s is None:
        t_break_s = ExperimentConfig().t_break_s
    if scenario.duration_s <= t_break_s:
        raise DatasetError(
            f"scenario duration {scenario.duration_s}s leaves no stable window "
            f"past t_break={t_break_s}s"
        )
    sim = build_fleet_simulation(scenario, use_fleet_engine=use_fleet_engine)
    sim.run(scenario.duration_s)
    env_mean = scenario.environment.mean_over(0.0, scenario.duration_s)

    names: list[str] = []
    keys: list[str] = []
    records: list[ExperimentRecord] = []
    for spec, vm_specs in zip(scenario.server_specs, scenario.vm_specs):
        psi = sim.telemetry.stable_cpu_temperature(
            spec.name, t_break_s=t_break_s, t_exp_s=scenario.duration_s
        )
        vms = tuple(
            VmRecord(
                vcpus=vm.vcpus,
                memory_gb=vm.memory_gb,
                task_kinds=tuple(task.kind for task in vm.tasks),
                nominal_utilization=vm.nominal_utilization(),
            )
            for vm in vm_specs
        )
        capacity = spec.capacity
        records.append(
            ExperimentRecord(
                theta_cpu_cores=capacity.cpu_cores,
                theta_cpu_ghz=capacity.total_ghz,
                theta_memory_gb=capacity.memory_gb,
                theta_fan_count=spec.fan_count,
                theta_fan_speed=spec.fan_speed,
                delta_env_c=env_mean,
                vms=vms,
                psi_stable_c=psi,
                metadata={"scenario": scenario.name, "server": spec.name},
            )
        )
        names.append(spec.name)
        keys.append(server_class_key(spec))
    return FleetProfile(
        names=tuple(names), class_keys=tuple(keys), records=tuple(records)
    )


@dataclass(frozen=True)
class FleetTrainingConfig:
    """Knobs of the batched fleet trainer."""

    #: k of the shared hyper-parameter search's k-fold CV.
    n_splits: int = 5
    c_grid: tuple[float, ...] = DEFAULT_C_GRID
    gamma_grid: tuple[float, ...] = DEFAULT_GAMMA_GRID
    epsilon_grid: tuple[float, ...] = DEFAULT_EPSILON_GRID
    #: Cap on records entering the hyper-parameter search (class-stratified
    #: subsample beyond it); the per-class refits always use every record.
    search_sample: int = 160
    #: Classes with fewer records alias to the default model.
    min_class_records: int = 4
    #: SMO budget for search and refits.
    max_iter: int = 50_000


@dataclass(frozen=True)
class ClassModelReport:
    """Training outcome for one server class."""

    key: str
    n_records: int
    #: True when the class aliases the default model (too few records).
    aliased: bool
    #: Training MSE of the class's own model (None when aliased).
    train_mse: float | None


@dataclass
class FleetTrainingReport:
    """Everything :func:`train_fleet_registry` produced."""

    registry: ModelRegistry
    grid: GridSearchResult
    classes: list[ClassModelReport]
    n_records: int
    n_search_records: int

    @property
    def n_class_models(self) -> int:
        """Number of classes with their own fitted model (not aliased)."""
        return sum(1 for report in self.classes if not report.aliased)

    def summary(self) -> str:
        """Multi-line human-readable description."""
        lines = [
            f"{self.n_records} records, {len(self.classes)} server classes "
            f"({self.n_class_models} own models, "
            f"{len(self.classes) - self.n_class_models} aliased to default)",
            f"shared search ({self.n_search_records} records): "
            f"{self.grid.summary()}",
        ]
        for report in self.classes:
            if report.aliased:
                lines.append(
                    f"  {report.key:<24} {report.n_records:>4} records  -> default"
                )
            else:
                lines.append(
                    f"  {report.key:<24} {report.n_records:>4} records  "
                    f"train MSE {report.train_mse:.3f}"
                )
        return "\n".join(lines)


def _search_subset(profile: FleetProfile, cap: int) -> np.ndarray:
    """Class-stratified, deterministic subsample for the shared search.

    Records are visited class-by-class round-robin (classes sorted by
    key, records in profile order within a class) until ``cap`` records
    are taken, so every class is represented proportionally without any
    randomness.
    """
    n = profile.n_servers
    if n <= cap:
        return np.arange(n)
    queues = [list(indices) for indices in profile.classes().values()]
    taken: list[int] = []
    while len(taken) < cap:
        for queue in queues:
            if queue and len(taken) < cap:
                taken.append(queue.pop(0))
    return np.array(sorted(taken), dtype=np.intp)


def train_fleet_registry(
    profile: FleetProfile | FleetScenario,
    config: FleetTrainingConfig | None = None,
    extractor: FeatureExtractor | None = None,
) -> FleetTrainingReport:
    """Train one stable model per server class and register the farm.

    Accepts either a ready :class:`FleetProfile` or a
    :class:`~repro.experiments.scenarios.FleetScenario` (profiled via
    :func:`profile_fleet` first). See the module docstring for the
    pipeline; the returned report's ``registry`` is ready for
    :class:`~repro.serving.fleet.PredictionFleet` with
    ``key_fn=lambda server: server_class_key(server.spec)``.
    """
    from repro.experiments.scenarios import FleetScenario  # cycle: see above

    if isinstance(profile, FleetScenario):
        profile = profile_fleet(profile)
    config = config or FleetTrainingConfig()
    extractor = extractor or FeatureExtractor()
    records = list(profile.records)
    if len(records) < max(config.n_splits, 2):
        raise DatasetError(
            f"{len(records)} fleet records cannot support a "
            f"{config.n_splits}-fold search"
        )

    x = extractor.matrix(records)
    y = extractor.targets(records)
    scaler = MinMaxScaler()
    x_scaled = scaler.fit_transform(x)

    subset = _search_subset(profile, config.search_sample)
    grid = grid_search_svr(
        x_scaled[subset],
        y[subset],
        c_grid=config.c_grid,
        gamma_grid=config.gamma_grid,
        epsilon_grid=config.epsilon_grid,
        n_splits=config.n_splits,
        rng=None,
        max_iter=config.max_iter,
    )

    # One batched pass refits the fleet-wide default plus every class
    # with enough records, all at the shared (C, γ, ε). The default
    # fallback trains on the same class-stratified sample as the search
    # (beyond ``search_sample`` records an all-fleet kernel would
    # dominate the whole training pass for a model that only serves
    # unknown hardware); class models always train on their full class.
    groups = profile.classes()
    min_records = max(config.min_class_records, 2)
    fitted_keys = [
        key for key, indices in groups.items() if len(indices) >= min_records
    ]
    kernel = RbfKernel(gamma=grid.best_gamma)
    problems = [subset] + [
        np.array(groups[key], dtype=np.intp) for key in fitted_keys
    ]
    grams = [kernel.gram(x_scaled[idx], x_scaled[idx]) for idx in problems]
    targets = [y[idx] for idx in problems]
    solutions = solve_svr_dual_batch(
        grams,
        targets,
        c=grid.best_c,
        epsilon=grid.best_epsilon,
        max_iter=config.max_iter,
        on_no_convergence="warn",
    )

    registry = ModelRegistry()
    models: list[EpsilonSVR] = []
    for idx, solution in zip(problems, solutions):
        model = EpsilonSVR(
            kernel=kernel,
            c=grid.best_c,
            epsilon=grid.best_epsilon,
            max_iter=config.max_iter,
        )
        models.append(model.adopt_solution(x_scaled[idx], solution))
    # Class entries get the default's frozen scaler/extractor, so the
    # whole registry serves one svm-scale map.
    default = registry.register_model(
        DEFAULT_KEY, models[0], scaler=scaler, extractor=extractor
    )
    class_reports: list[ClassModelReport] = []
    for key, model, idx in zip(fitted_keys, models[1:], problems[1:]):
        registry.register_model(
            key, model, scaler=default.scaler, extractor=default.extractor
        )
        predictions = np.atleast_1d(model.predict(x_scaled[idx]))
        class_reports.append(
            ClassModelReport(
                key=key,
                n_records=int(idx.shape[0]),
                aliased=False,
                train_mse=mean_squared_error(
                    y[idx].tolist(), predictions.tolist()
                ),
            )
        )
    for key, indices in groups.items():
        if key in fitted_keys:
            continue
        registry.alias(key, DEFAULT_KEY)
        class_reports.append(
            ClassModelReport(
                key=key, n_records=len(indices), aliased=True, train_mse=None
            )
        )
    class_reports.sort(key=lambda report: report.key)
    return FleetTrainingReport(
        registry=registry,
        grid=grid,
        classes=class_reports,
        n_records=len(records),
        n_search_records=int(subset.shape[0]),
    )
