"""Fleet-scale training: one implementation behind every trained model.

* :mod:`repro.training.trainer` — the canonical record → grid search →
  fitted :class:`~repro.core.stable.StableTemperaturePredictor` workflow
  (what :func:`repro.core.pipeline.train_stable_predictor` delegates to);
* :mod:`repro.training.fleet_trainer` — per-server-class model farms:
  profile a :class:`~repro.experiments.scenarios.FleetScenario`, search
  shared hyper-parameters once, refit every class in one batched SMO
  pass, and register the results (models + shared scaler + aliases) into
  a :class:`~repro.serving.registry.ModelRegistry`.

The heavy lifting (Gram caches, the lockstep batch of fold solves) lives
in :mod:`repro.svm`; this package is the policy layer that
applies it to the paper's records and to fleet telemetry. See the
"Training path" section of ``docs/architecture.md``.
"""

from repro.training.fleet_trainer import (
    ClassModelReport,
    FleetProfile,
    FleetTrainingConfig,
    FleetTrainingReport,
    profile_fleet,
    server_class_key,
    train_fleet_registry,
)
from repro.training.trainer import StableTrainingReport, train_stable_predictor

__all__ = [
    "ClassModelReport",
    "FleetProfile",
    "FleetTrainingConfig",
    "FleetTrainingReport",
    "StableTrainingReport",
    "profile_fleet",
    "server_class_key",
    "train_fleet_registry",
    "train_stable_predictor",
]
