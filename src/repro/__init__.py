"""repro — VM-level temperature profiling and prediction in cloud datacenters.

A full reproduction of Wu et al., "Virtual Machine Level Temperature
Profiling and Prediction in Cloud Datacenters" (ICDCS 2016), including
every substrate the paper's testbed provided:

* :mod:`repro.core` — the paper's method: stable-temperature SVR (Eq. 1–2),
  pre-defined curve (Eq. 3), runtime calibration (Eq. 4–7), dynamic
  prediction (Eq. 8);
* :mod:`repro.svm` — from-scratch ε-SVR/SMO, grid search, CV (LIBSVM +
  easygrid substitute);
* :mod:`repro.thermal` — two-lump RC server thermal plant (testbed
  substitute), per server and vectorized over the fleet;
* :mod:`repro.datacenter` — VMs, VMM, migration, schedulers, telemetry,
  co-simulation;
* :mod:`repro.management` — thermal management built on the predictions
  (the paper's motivating use case), including the shared batched
  what-if scoring path;
* :mod:`repro.control` — the closed loop: predict → detect → plan →
  act → account on a control interval inside the co-simulation;
* :mod:`repro.lifecycle` — the model loop: per-class drift detection
  over the live fleet, sliding-window retraining in one lockstep
  batched SMO round, and atomic hot-swaps into the versioned registry;
* :mod:`repro.serving` — the method deployed as a fleet-scale service:
  model registry, cross-model batched SVR inference, and the vectorized
  :class:`~repro.serving.fleet.PredictionFleet`;
* :mod:`repro.training` — fleet-scale training: the canonical stable-model
  trainer plus per-server-class model farms registered straight into the
  serving registry (:func:`~repro.training.fleet_trainer.train_fleet_registry`);
* :mod:`repro.experiments` — scenario generators and the Fig. 1(a)/(b)/(c)
  builders;
* :mod:`repro.scenarios` — the declarative scenario layer: JSON-able spec
  documents over a hardware/VM-type catalog, deterministic compilation
  onto :class:`~repro.experiments.scenarios.FleetScenario`, a seeded
  scenario fuzzer, and the end-to-end invariant harness.

Quickstart::

    from repro import (
        random_scenarios, run_experiment, train_stable_predictor,
    )

    records = [run_experiment(s).record for s in random_scenarios(60)]
    report = train_stable_predictor(records[:50], n_splits=5)
    print(report.predictor.predict(records[50]))
"""

from repro.config import (
    ExperimentConfig,
    PredictionConfig,
    SensorConfig,
    ThermalConfig,
)
from repro.core import (
    DynamicTemperaturePredictor,
    ExperimentRecord,
    FeatureExtractor,
    PredefinedCurve,
    RcFitBaseline,
    RuntimeCalibrator,
    StableTemperaturePredictor,
    TaskProfileBaseline,
    VmRecord,
    evaluate_stable_predictor,
    train_stable_predictor,
)
from repro.control import (
    ControlPlane,
    ControlPlaneConfig,
    EnergyAwareConsolidationPolicy,
    ProactiveForecastPolicy,
    ReactiveEvictionPolicy,
    run_closed_loop,
)
from repro.core.dynamic import replay_dynamic_prediction
from repro.datacenter.fleetstate import FleetState
from repro.errors import ReproError
from repro.lifecycle import (
    DriftMonitor,
    LifecycleConfig,
    ModelLifecycle,
    Retrainer,
    RetrainPlanner,
)
from repro.experiments import (
    RecordDataset,
    build_fig1a,
    build_fig1b,
    build_fig1c,
    random_scenario,
    random_scenarios,
    run_experiment,
)
from repro.rng import RngFactory
from repro.scenarios import (
    Catalog,
    HardwareType,
    InvariantReport,
    ScenarioFuzzer,
    VmType,
    compile_spec,
    cooling_failure_spec,
    default_catalog,
    flash_crowd_spec,
    run_with_invariants,
)
from repro.serving import (
    FleetPredictionProbe,
    FrontendConfig,
    ModelRegistry,
    PredictionFleet,
    PredictionFrontend,
    ServingLedger,
    predict_batch,
    predicted_vs_actual,
    serve_trace,
    trace_from_scenario,
)
from repro.svm import EpsilonSVR, RbfKernel, grid_search_svr, mean_squared_error
from repro.training import (
    FleetProfile,
    FleetTrainingConfig,
    FleetTrainingReport,
    profile_fleet,
    server_class_key,
    train_fleet_registry,
)

__version__ = "1.7.0"

__all__ = [
    "Catalog",
    "ControlPlane",
    "ControlPlaneConfig",
    "DriftMonitor",
    "DynamicTemperaturePredictor",
    "EnergyAwareConsolidationPolicy",
    "EpsilonSVR",
    "ExperimentConfig",
    "ExperimentRecord",
    "FeatureExtractor",
    "FleetPredictionProbe",
    "FleetProfile",
    "FleetState",
    "FleetTrainingConfig",
    "FleetTrainingReport",
    "FrontendConfig",
    "HardwareType",
    "InvariantReport",
    "LifecycleConfig",
    "ModelLifecycle",
    "ModelRegistry",
    "PredefinedCurve",
    "PredictionConfig",
    "PredictionFleet",
    "PredictionFrontend",
    "ProactiveForecastPolicy",
    "RbfKernel",
    "RcFitBaseline",
    "ReactiveEvictionPolicy",
    "RecordDataset",
    "ReproError",
    "RetrainPlanner",
    "Retrainer",
    "RngFactory",
    "RuntimeCalibrator",
    "ScenarioFuzzer",
    "SensorConfig",
    "ServingLedger",
    "StableTemperaturePredictor",
    "TaskProfileBaseline",
    "ThermalConfig",
    "VmRecord",
    "VmType",
    "__version__",
    "build_fig1a",
    "build_fig1b",
    "build_fig1c",
    "compile_spec",
    "cooling_failure_spec",
    "default_catalog",
    "evaluate_stable_predictor",
    "flash_crowd_spec",
    "grid_search_svr",
    "mean_squared_error",
    "predict_batch",
    "predicted_vs_actual",
    "profile_fleet",
    "random_scenario",
    "random_scenarios",
    "replay_dynamic_prediction",
    "run_closed_loop",
    "run_experiment",
    "run_with_invariants",
    "serve_trace",
    "server_class_key",
    "trace_from_scenario",
    "train_fleet_registry",
    "train_stable_predictor",
]
