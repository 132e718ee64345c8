"""The three benchmark workloads: set-up, timed phase, and output checks.

Each workload builds its inputs from the benchmark seed, runs one
closed loop of the program, and checks the program's outputs. The
program only ever sees the generated inputs. Every call into ``repro``
goes through a module attribute (``training.profile_fleet``, not a name
imported into this file), so the traced run's wrappers see it.

* ``manage_cooling`` — the fleet-manage shape. Control planning and the
  batched what-if scorer do most of the work; the predict kernel sees
  batches of thousands of rows.
* ``drift_lifecycle`` — the fleet-lifecycle shape. The what-if scorer
  never runs; the thermal step, the forecast probe, control accounting
  and batched SMO retrains share the time, and telemetry buffers set
  the peak memory.
* ``serve_frontend`` — the fleet-serve shape. No simulation in the
  timed phase; the request front-end drains micro-batches of about nine
  requests, which reach the predict kernel as one or two rows per class
  model, so a kernel tuned only for big batches shows its cost here.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import repro.control as control
import repro.experiments.scenarios as scenarios
import repro.lifecycle as lifecycle
import repro.serving as serving
import repro.training as training

#: Control interval of both closed loops (s).
INTERVAL_S = 60.0
#: Requests whose answers are recomputed directly, per serve run.
SERVE_SAMPLE = 256


@dataclass
class Outcome:
    """What one run of a workload produced, after its checks."""

    attempted: int
    failed: int
    #: Model outcomes (simulated, so exact per seed), named ``outcome.*``.
    metrics: dict[str, float]
    #: Per-layer counts read from the program's own ledgers.
    counts: dict[str, float] = field(default_factory=dict)
    #: Fingerprint of the outputs: every run at one seed must match.
    digest: str = ""
    problems: list[str] = field(default_factory=list)


#: Hyper-parameter grids of the registry training. The closed loops
#: train at one fixed point: the batched SMO retrain runs at the deployed
#: (C, γ, ε), and a grid that picks C=512 for some seeds and C=8 for
#: others makes the retrain cost, and so the run time, swing several-fold
#: between seeds. At C=128 the retrain is a quarter to a third of the drift run.
#: A single point leaves cross-validation nothing to choose, so it uses
#: three folds, not five, to keep set-up short.
GRIDS = {
    "full": {},
    "point": {"n_splits": 3, "c_grid": (128.0,), "gamma_grid": (0.03125,),
              "epsilon_grid": (0.125,)},
    "quick": {"n_splits": 3, "c_grid": (8.0, 64.0), "gamma_grid": (0.03125, 0.125),
              "epsilon_grid": (0.125,)},
}


def _training_config(size: dict) -> "training.FleetTrainingConfig":
    return training.FleetTrainingConfig(min_class_records=3, **GRIDS[size["grid"]])


def _class_key(server) -> str:
    return training.server_class_key(server.spec)


def _digest(*values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


def _check_intervals(ledger, budget: int, problems: list[str]) -> int:
    """Count control intervals whose ledger row breaks an invariant."""
    bad = 0
    for record in ledger.records:
        broken = []
        if not (math.isfinite(record.it_power_w) and record.it_power_w >= 0.0):
            broken.append(f"IT power {record.it_power_w}")
        if not (math.isfinite(record.cooling_power_w) and record.cooling_power_w >= 0.0):
            broken.append(f"cooling power {record.cooling_power_w}")
        if record.moves_issued > budget:
            broken.append(f"{record.moves_issued} moves over a budget of {budget}")
        if record.moves_issued + record.moves_deferred != record.moves_planned:
            broken.append("issued + deferred != planned")
        if broken:
            bad += 1
            problems.append(f"interval t={record.time_s:g}s: " + ", ".join(broken))
    account = ledger.account
    for label, value in (("IT", account.it_energy_j), ("cooling", account.cooling_energy_j)):
        if not (math.isfinite(value) and value > 0.0):
            bad += 1
            problems.append(f"{label} energy {value} J")
    if not account.pue >= 1.0:
        bad += 1
        problems.append(f"PUE {account.pue} < 1")
    if not math.isfinite(ledger.mean_forecast_error_c()):
        bad += 1
        problems.append("no forecast matured over the whole run")
    return bad


def _loop_metrics(ledger) -> dict[str, float]:
    return {
        "outcome.forecast_mae_c": ledger.mean_forecast_error_c(),
        "outcome.hotspot_server_intervals": float(
            sum(record.measured_hotspots for record in ledger.records)
        ),
    }


def _ledger_digest(ledger) -> str:
    return _digest(
        [
            (r.time_s, r.measured_hotspot_names, r.predicted_hotspot_names,
             r.moves_issued, r.forecast_error_c, r.it_power_w)
            for r in ledger.records
        ]
    )


# -- manage_cooling -----------------------------------------------------------


def setup_manage_cooling(seed: int, size: dict) -> dict:
    scenario = scenarios.cooling_failure_scenario(
        n_servers=size["servers"],
        duration_s=size["duration_s"],
        failure_time_s=size["failure_s"],
        seed=1000 * seed + 93,
    )
    profile = training.profile_fleet(scenario)
    report = training.train_fleet_registry(profile, _training_config(size))
    return {"scenario": scenario, "registry": report.registry}


def run_manage_cooling(state: dict):
    return control.run_closed_loop(
        state["scenario"],
        state["registry"],
        policy=control.ProactiveForecastPolicy(),
        config=control.ControlPlaneConfig(interval_s=INTERVAL_S),
        key_fn=_class_key,
    )


def check_manage_cooling(state: dict, result) -> Outcome:
    ledger = result.ledger
    problems: list[str] = []
    budget = result.plane.config.max_moves_per_interval
    failed = _check_intervals(ledger, budget, problems)
    return Outcome(
        attempted=ledger.n_intervals,
        failed=failed,
        metrics=_loop_metrics(ledger),
        digest=_ledger_digest(ledger),
        problems=problems,
    )


# -- drift_lifecycle ----------------------------------------------------------


def setup_drift_lifecycle(seed: int, size: dict) -> dict:
    # model_drift_scenario reproduces the class-balanced fleet at the same
    # seed, so the registry's class keys match the drifting fleet.
    fleet_seed = 1000 * seed + 92
    campaign = scenarios.class_balanced_fleet_scenario(
        n_classes=size["classes"],
        servers_per_class=size["per_class"],
        seed=fleet_seed,
        duration_s=size["train_s"],
    )
    profile = training.profile_fleet(campaign)
    report = training.train_fleet_registry(profile, _training_config(size))
    scenario = scenarios.model_drift_scenario(
        n_classes=size["classes"],
        servers_per_class=size["per_class"],
        seed=fleet_seed,
        duration_s=size["duration_s"],
    )
    manager = lifecycle.ModelLifecycle(
        report.registry,
        lifecycle.LifecycleConfig(
            planner=lifecycle.RetrainPlannerConfig(min_class_records=3)
        ),
    )
    return {"scenario": scenario, "registry": report.registry, "lifecycle": manager}


def run_drift_lifecycle(state: dict):
    return control.run_closed_loop(
        state["scenario"],
        state["registry"],
        policy=None,
        config=control.ControlPlaneConfig(interval_s=INTERVAL_S),
        key_fn=_class_key,
        lifecycle=state["lifecycle"],
    )


def check_drift_lifecycle(state: dict, result) -> Outcome:
    ledger = result.ledger
    manager = state["lifecycle"]
    problems: list[str] = []
    failed = _check_intervals(ledger, 0, problems)
    margin = manager.retrainer.config.publish_margin
    published = attempted = 0
    for round_ in manager.rounds:
        held = {key for key, _ in round_.held}
        attempted += len(round_.outcomes) + len(round_.held)
        for outcome in round_.outcomes:
            published += 1
            gate_ok = math.isnan(outcome.cv_mse) or outcome.cv_mse <= margin * outcome.deployed_mse
            if outcome.key in held or not gate_ok:
                failed += 1
                problems.append(
                    f"t={round_.time_s:g}s: {outcome.key} published with CV MSE "
                    f"{outcome.cv_mse} against deployed {outcome.deployed_mse}"
                )
    return Outcome(
        attempted=ledger.n_intervals + attempted,
        failed=failed,
        metrics=_loop_metrics(ledger),
        counts={
            "lifecycle.published": float(published),
            "lifecycle.attempted": float(attempted),
            "lifecycle.publish_ratio": published / attempted if attempted else 0.0,
        },
        digest=_digest(
            _ledger_digest(ledger),
            [(r.time_s, r.keys, r.held) for r in manager.rounds],
        ),
        problems=problems,
    )


# -- serve_frontend -----------------------------------------------------------


def setup_serve_frontend(seed: int, size: dict) -> dict:
    campaign = scenarios.class_balanced_fleet_scenario(
        n_classes=size["classes"],
        servers_per_class=size["per_class"],
        seed=1000 * seed + 92,
        duration_s=size["train_s"],
    )
    profile = training.profile_fleet(campaign)
    report = training.train_fleet_registry(profile, _training_config(size))
    trace = serving.trace_from_scenario(
        campaign,
        size["requests"],
        duration_s=size["requests"] / size["rate_per_s"],
        arrival="poisson",
        seed=1000 * seed + 1,
        key_fn=training.server_class_key,
    )
    return {"registry": report.registry, "trace": trace, "seed": seed}


def run_serve_frontend(state: dict):
    frontend = serving.PredictionFrontend(
        state["registry"],
        serving.FrontendConfig(max_batch=64, max_wait_s=0.02, cache_enabled=True),
    )
    return frontend, serving.serve_trace(frontend, state["trace"])


def check_serve_frontend(state: dict, result) -> Outcome:
    frontend, tickets = result
    requests = state["trace"].requests
    registry = state["registry"]
    problems: list[str] = []
    bad: set[int] = set()
    if len(tickets) != len(requests):
        problems.append(f"{len(tickets)} tickets for {len(requests)} requests")
        bad.update(range(len(tickets), len(requests)))
    psi = np.full(len(tickets), np.nan)
    for index, ticket in enumerate(tickets):
        if ticket.request_id != index or not ticket.done:
            bad.add(index)
            continue
        psi[index] = ticket.psi_stable_c
        if not math.isfinite(psi[index]):
            bad.add(index)
    ledger = frontend.ledger
    answers = Counter(row.request_id for row in ledger.requests)
    not_once = [i for i in range(len(requests)) if answers[i] != 1]
    if not_once:
        bad.update(not_once)
        problems.append(f"{len(not_once)} requests not answered exactly once in the ledger")
    ledger_faults = 0
    if len(answers) != len(requests) or sum(b.size for b in ledger.batches) != len(requests):
        ledger_faults += 1
        problems.append("ledger holds unknown requests or batch sizes miscount them")
    sample = random.Random(state["seed"]).sample(
        range(len(tickets)), min(SERVE_SAMPLE, len(tickets))
    )
    for index in sample:
        ticket = tickets[index]
        direct = registry.resolve(ticket.key).predict_records([ticket.record])[0]
        if index not in bad and float(direct) != psi[index]:
            bad.add(index)
            problems.append(f"request {index}: served {psi[index]!r}, direct {float(direct)!r}")
    summary = ledger.summary()
    return Outcome(
        attempted=len(requests),
        failed=len(bad) + ledger_faults,
        metrics={
            "outcome.p50_latency_ms": summary["p50_latency_s"] * 1e3,
            "outcome.p99_latency_ms": summary["p99_latency_s"] * 1e3,
        },
        counts={
            "serving.frontend.batches": summary["n_batches"],
            "serving.frontend.mean_batch": summary["mean_batch_size"],
            "serving.frontend.unique_computed": summary["unique_computed"],
            "serving.frontend.cache_hit_rate": summary["cache_hit_rate"],
        },
        digest=_digest(psi.tobytes(), ledger.latencies_s().tobytes()),
        problems=problems,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, dict], dict]
    run: Callable[[dict], object]
    check: Callable[[dict, object], Outcome]
    #: Input sizes; ``tiny`` keeps the layer mix at test scale.
    sizes: dict


WORKLOADS = {
    "manage_cooling": Workload(
        "manage_cooling",
        setup_manage_cooling,
        run_manage_cooling,
        check_manage_cooling,
        {
            "full": {"servers": 128, "duration_s": 1200.0, "failure_s": 300.0, "grid": "point"},
            "tiny": {"servers": 16, "duration_s": 900.0, "failure_s": 300.0, "grid": "quick"},
        },
    ),
    "drift_lifecycle": Workload(
        "drift_lifecycle",
        setup_drift_lifecycle,
        run_drift_lifecycle,
        check_drift_lifecycle,
        {
            "full": {"classes": 4, "per_class": 64, "train_s": 900.0, "duration_s": 4200.0,
                     "grid": "point"},
            "tiny": {"classes": 2, "per_class": 4, "train_s": 900.0, "duration_s": 1800.0,
                     "grid": "quick"},
        },
    ),
    "serve_frontend": Workload(
        "serve_frontend",
        setup_serve_frontend,
        run_serve_frontend,
        check_serve_frontend,
        {
            "full": {"classes": 8, "per_class": 16, "train_s": 3600.0,
                     "requests": 200_000, "rate_per_s": 400.0, "grid": "full"},
            "tiny": {"classes": 2, "per_class": 3, "train_s": 900.0,
                     "requests": 500, "rate_per_s": 400.0, "grid": "quick"},
        },
    ),
}
