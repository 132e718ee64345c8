"""Command-line interface: regenerate the paper's figures from a shell.

Usage (module form)::

    python -m repro.cli fig1a [--quick] [--seed N]
    python -m repro.cli fig1b [--quick] [--seed N]
    python -m repro.cli fig1c [--quick] [--seed N]
    python -m repro.cli dataset --n 50 --out records.json
    python -m repro.cli fleet-predict [--servers N] [--duration S] [--quick]
    python -m repro.cli fleet-train [--classes K] [--servers-per-class M] [--quick]
    python -m repro.cli fleet-manage [--scenario cooling-failure] [--quick]
    python -m repro.cli fleet-lifecycle [--classes K] [--quick]
    python -m repro.cli fleet-serve [--requests N] [--quick]
    python -m repro.cli fleet-scenario validate SPEC.json
    python -m repro.cli fleet-scenario compile SPEC.json
    python -m repro.cli fleet-scenario fuzz [--seed N] [--count N] [--strict]

``--quick`` shrinks training sizes and CV folds so each figure completes
in well under a minute (with looser accuracy); omit it for the
full-scale numbers recorded in EXPERIMENTS.md. ``fleet-predict`` runs
the online prediction service (:mod:`repro.serving`) against a diurnal
fleet co-simulation and reports fleet-wide forecast accuracy.
``fleet-train`` profiles a class-balanced fleet, trains one stable model
per server class in a single batched pass (:mod:`repro.training`), and
serves the resulting registry against the same fleet end to end.
``fleet-manage`` closes the loop: train, serve, and run the thermal
control plane (:mod:`repro.control`) against a stress scenario, printing
the managed-vs-baseline hotspot and energy/PUE ledger. ``fleet-lifecycle``
closes the *model* loop: train a per-class registry, run the
``model-drift`` scenario (seasonal ambient ramp + VM-flavor shift) once
with the frozen registry and once under a drift-aware
:class:`~repro.lifecycle.manager.ModelLifecycle` (detect → retrain →
hot-swap), and print the retrained-vs-frozen scorecard. ``fleet-serve``
stands the micro-batching request front-end (:mod:`repro.serving.
frontend`) up over a trained per-class registry, replays a
scenario-derived request trace through both the naive per-request path
and the batched path, and prints the p50/p99 latency scorecard.
``fleet-scenario`` is the declarative scenario path
(:mod:`repro.scenarios`): ``validate``/``compile`` check a JSON spec
document against the catalog and grammar, and ``fuzz`` runs seeded
random-but-valid scenarios end to end under the invariant harness.
"""

from __future__ import annotations

# reprolint: file-waive R001 -- time.time() here only times CLI progress
# prints ("elapsed ...s"); no wall-clock value feeds simulation or model
# state, which is always driven by simulated time_s.
import argparse
import math
import sys
import time
from pathlib import Path

from repro.experiments.dataset import RecordDataset
from repro.experiments.figures import (
    build_fig1a,
    build_fig1b,
    build_fig1c,
    train_default_stable_model,
)
from repro.experiments.reporting import (
    format_fig1a,
    format_fig1b,
    format_fig1c,
    format_grid_search,
)
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import random_scenarios


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=7, help="root seed (default 7)")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced scale: fewer experiments, smaller CV",
    )


def _cmd_fig1a(args: argparse.Namespace) -> int:
    started = time.time()
    if args.quick:
        result = build_fig1a(n_train=60, n_test=10, n_folds=5, seed=args.seed,
                             duration_s=1200.0)
    else:
        result = build_fig1a(seed=args.seed)
    print(format_fig1a(result))
    print(f"\nelapsed {time.time() - started:.1f}s")
    return 0


def _trained_model(args: argparse.Namespace):
    n_train = 60 if args.quick else 120
    return train_default_stable_model(n_train=n_train, seed=args.seed, n_folds=5)


def _cmd_fig1b(args: argparse.Namespace) -> int:
    started = time.time()
    report = _trained_model(args)
    print(f"stable model: {report.grid.summary()}\n")
    result = build_fig1b(report.predictor, seed=args.seed * 6)
    print(format_fig1b(result))
    print(f"\nelapsed {time.time() - started:.1f}s")
    return 0


def _cmd_fig1c(args: argparse.Namespace) -> int:
    started = time.time()
    report = _trained_model(args)
    print(f"stable model: {report.grid.summary()}\n")
    result = build_fig1c(report.predictor, seed=args.seed * 6)
    print(format_fig1c(result))
    print(f"\nelapsed {time.time() - started:.1f}s")
    return 0


def _cmd_dataset(args: argparse.Namespace) -> int:
    scenarios = random_scenarios(
        args.n, base_seed=args.seed * 10_000, n_vms_range=(2, 12)
    )
    dataset = RecordDataset()
    for index, scenario in enumerate(scenarios):
        dataset.append(run_experiment(scenario).record)
        if (index + 1) % 10 == 0:
            print(f"  {index + 1}/{args.n} experiments done", file=sys.stderr)
    dataset.save_json(args.out)
    print(f"wrote {len(dataset)} records to {args.out}")
    summary = dataset.summary()
    print(
        f"ψ_stable range [{summary['psi_min']:.1f}, {summary['psi_max']:.1f}] °C, "
        f"{summary['vms_min']:.0f}-{summary['vms_max']:.0f} VMs per case"
    )
    return 0


def _class_key(server) -> str:
    """A server's hardware-class registry key (the per-class ``key_fn``)."""
    from repro.training import server_class_key

    return server_class_key(server.spec)


def _serve_fleet(registry, scenario, duration: float, threshold: float,
                 key_fn=None) -> None:
    """Serve one fleet scenario with ``registry`` and print the scorecard.

    The shared back half of ``fleet-predict`` and ``fleet-train``: build
    the co-simulation, attach the prediction service (``key_fn`` picks
    each server's registry model), run, and report fleet-wide forecast
    accuracy plus predicted hotspots.
    """
    import numpy as np

    from repro.experiments.scenarios import build_fleet_simulation
    from repro.management.hotspot import HotspotDetector
    from repro.serving import (
        FleetPredictionProbe,
        PredictionFleet,
        predicted_vs_actual,
    )

    sim = build_fleet_simulation(scenario)
    fleet = PredictionFleet(registry)
    probe = FleetPredictionProbe(fleet, key_fn=key_fn)
    probe.attach(sim)
    run_started = time.time()
    sim.run(duration)
    run_elapsed = time.time() - run_started

    per_server = []
    for name in fleet.names:
        _, predicted, actual = predicted_vs_actual(sim.telemetry, name)
        if predicted.size:
            per_server.append((name, float(np.mean((predicted - actual) ** 2))))
    hotspots = fleet.predicted_hotspots(HotspotDetector(threshold))

    print(f"servers tracked      {fleet.n_servers}")
    print(f"forecasts scored     {len(per_server)} servers")
    if per_server:
        mses = np.array([mse for _, mse in per_server])
        print(f"fleet MSE            mean {mses.mean():.3f}, median "
              f"{np.median(mses):.3f}, max {mses.max():.3f} degC^2")
        worst = sorted(per_server, key=lambda pair: -pair[1])[:5]
        for name, mse in worst:
            print(f"  worst: {name:<12} MSE {mse:.3f}")
    else:
        print("fleet MSE            n/a (no forecast matured; run longer)")
    print(f"predicted hotspots   {len(hotspots)} above {threshold:.0f} degC")
    for spot in hotspots[:5]:
        print(f"  {spot.server_name:<12} {spot.temperature_c:.1f} degC "
              f"(+{spot.severity_c:.1f})")
    print(f"simulated {duration:.0f}s in {run_elapsed:.1f}s wall "
          f"({duration / run_elapsed:,.0f}x realtime)")


def _cmd_fleet_predict(args: argparse.Namespace) -> int:
    from repro.experiments.scenarios import diurnal_fleet_scenario
    from repro.serving import ModelRegistry

    n_servers = args.servers if args.servers else (32 if args.quick else 128)
    duration = args.duration if args.duration else (900.0 if args.quick else 3600.0)
    n_train = args.n_train if args.n_train else (30 if args.quick else 120)

    started = time.time()
    print(f"== training the stable model ({n_train} records) ==", file=sys.stderr)
    report = train_default_stable_model(
        n_train=n_train, seed=args.seed, n_folds=3 if args.quick else 5
    )
    registry = ModelRegistry()
    registry.register("default", report.predictor)
    print(f"  {report.grid.summary()}", file=sys.stderr)

    print(
        f"== serving a {n_servers}-server diurnal fleet for {duration:.0f}s ==",
        file=sys.stderr,
    )
    scenario = diurnal_fleet_scenario(n_servers=n_servers, seed=args.seed * 1000)
    _serve_fleet(registry, scenario, duration, args.threshold)
    print(f"\nelapsed {time.time() - started:.1f}s")
    return 0


def _profile_and_train_registry(args: argparse.Namespace, n_classes: int,
                                per_class: int, duration: float):
    """Profile a class-balanced fleet and train its per-class registry.

    The shared front half of ``fleet-train`` and ``fleet-lifecycle``
    (same scenario seed, same quick-mode grids), so the two commands
    cannot drift apart. Returns ``(scenario, report)``.
    """
    from repro.experiments.scenarios import class_balanced_fleet_scenario
    from repro.training import (
        FleetTrainingConfig,
        profile_fleet,
        train_fleet_registry,
    )

    scenario = class_balanced_fleet_scenario(
        n_classes=n_classes,
        servers_per_class=per_class,
        seed=args.seed * 1000,
        duration_s=duration,
    )
    print(
        f"== profiling {scenario.n_servers} servers "
        f"({n_classes} classes) for {duration:.0f}s ==",
        file=sys.stderr,
    )
    profile = profile_fleet(scenario)
    config = FleetTrainingConfig(
        n_splits=3 if args.quick else 5,
        c_grid=(8.0, 64.0) if args.quick else FleetTrainingConfig.c_grid,
        gamma_grid=(0.03125, 0.125) if args.quick else FleetTrainingConfig.gamma_grid,
        epsilon_grid=(0.125,) if args.quick else FleetTrainingConfig.epsilon_grid,
        min_class_records=min(3, per_class),
    )
    print("== training the per-class registry ==", file=sys.stderr)
    return scenario, train_fleet_registry(profile, config)


def _cmd_fleet_train(args: argparse.Namespace) -> int:
    n_classes = args.classes if args.classes else (4 if args.quick else 16)
    per_class = args.servers_per_class if args.servers_per_class else (
        3 if args.quick else 8
    )
    duration = args.duration if args.duration else (900.0 if args.quick else 3600.0)
    serve_s = args.serve_duration if args.serve_duration is not None else (
        600.0 if args.quick else 1800.0
    )

    started = time.time()
    scenario, report = _profile_and_train_registry(
        args, n_classes, per_class, duration
    )
    print(report.summary())
    print("\nbest trials:")
    print(format_grid_search(report.grid, top=5))

    if serve_s > 0:
        print(
            f"\n== serving the fleet with per-class models for "
            f"{serve_s:.0f}s ==",
            file=sys.stderr,
        )
        _serve_fleet(
            report.registry,
            scenario,
            serve_s,
            args.threshold,
            key_fn=_class_key,
        )
    print(f"\nelapsed {time.time() - started:.1f}s")
    return 0


#: fleet-manage scenario names accepted by --scenario (see _manage_scenario).
_MANAGE_SCENARIOS = ("cooling-failure", "flash-crowd", "thermal-cascade")


def _manage_scenario(name: str, n_servers: int, duration_s: float):
    """Build a stress scenario sized to the requested run.

    The disturbance (CRAC step / flash crowd) lands a quarter into the
    run, capped at the builders' 600 s default, so short ``--duration``
    runs stay valid instead of tripping the builders' in-run checks.
    """
    import repro.experiments.scenarios as scenarios

    event_time_s = min(600.0, 0.25 * duration_s)
    if name == "cooling-failure":
        return scenarios.cooling_failure_scenario(
            n_servers=n_servers, duration_s=duration_s,
            failure_time_s=event_time_s,
        )
    if name == "flash-crowd":
        return scenarios.flash_crowd_scenario(
            n_servers=n_servers, duration_s=duration_s,
            spike_time_s=event_time_s,
        )
    return scenarios.thermal_cascade_scenario(
        n_servers=n_servers, duration_s=duration_s
    )

#: fleet-manage policy names accepted by --policy (see _manage_policy).
_MANAGE_POLICIES = ("proactive", "reactive", "consolidate")


def _manage_policy(name: str, margin: float):
    from repro.control import (
        EnergyAwareConsolidationPolicy,
        ProactiveForecastPolicy,
        ReactiveEvictionPolicy,
    )

    if name == "proactive":
        return ProactiveForecastPolicy(margin_c=margin)
    if name == "reactive":
        return ReactiveEvictionPolicy()
    return EnergyAwareConsolidationPolicy()


def _cmd_fleet_manage(args: argparse.Namespace) -> int:
    from repro.control import ControlPlaneConfig, run_closed_loop
    from repro.errors import ConfigurationError
    from repro.experiments.reporting import ascii_table
    from repro.management.hotspot import HotspotDetector
    from repro.serving import ModelRegistry

    n_servers = args.servers if args.servers else (16 if args.quick else 32)
    duration = args.duration if args.duration else (2400.0 if args.quick else 3600.0)
    n_train = args.n_train if args.n_train else (30 if args.quick else 120)
    try:
        scenario = _manage_scenario(args.scenario, n_servers, duration)
    except ConfigurationError as exc:
        print(f"fleet-manage: invalid scenario parameters: {exc}", file=sys.stderr)
        return 2

    started = time.time()
    print(f"== training the stable model ({n_train} records) ==", file=sys.stderr)
    report = train_default_stable_model(
        n_train=n_train, seed=args.seed, n_folds=3 if args.quick else 5
    )
    registry = ModelRegistry()
    registry.register("default", report.predictor)
    print(f"  {report.grid.summary()}", file=sys.stderr)

    detector = HotspotDetector(threshold_c=args.threshold)
    config = ControlPlaneConfig(
        interval_s=args.interval, max_moves_per_interval=args.budget
    )
    policy = None if args.no_control else _manage_policy(args.policy, args.margin)

    runs = [("no control", None)]
    if policy is not None:
        runs.append((args.policy, policy))
    outcomes = []
    for label, run_policy in runs:
        print(
            f"== running {scenario.name} for {duration:.0f}s ({label}) ==",
            file=sys.stderr,
        )
        result = run_closed_loop(
            scenario, registry, policy=run_policy, config=config,
            detector=detector,
        )
        outcomes.append((label, result))

    rows = []
    for label, result in outcomes:
        summary = result.ledger.summary()
        rows.append(
            (
                label,
                int(summary["peak_measured_hotspots"]),
                int(summary["final_measured_hotspots"]),
                int(summary["sustained_hotspots"]),
                int(summary["moves_issued"]),
                summary["mean_forecast_error_c"],
                summary["it_energy_kwh"] + summary["cooling_energy_kwh"],
                summary["pue"],
            )
        )
    print(
        ascii_table(
            ["run", "peak hs", "final hs", "sustained", "moves",
             "fc err degC", "energy kWh", "PUE"],
            rows,
        )
    )
    managed = outcomes[-1][1]
    sustained = managed.ledger.sustained_hotspots()
    if sustained:
        print(f"\nsustained hotspots remain: {', '.join(sustained)}")
    else:
        print("\nno sustained hotspots at end of run")
    for record in managed.ledger.records:
        if record.moves_issued:
            print(
                f"  t={record.time_s:6.0f}s  predicted={record.predicted_hotspots}"
                f"  measured={record.measured_hotspots}"
                f"  issued={record.moves_issued}/{record.moves_planned}"
            )
    print(f"\nelapsed {time.time() - started:.1f}s")
    if args.no_control:
        return 0  # baseline-only runs report, they don't fail
    return 0 if not sustained else 1


def _cmd_fleet_lifecycle(args: argparse.Namespace) -> int:
    import copy

    from repro.control import ControlPlaneConfig, run_closed_loop
    from repro.experiments.reporting import ascii_table
    from repro.experiments.scenarios import model_drift_scenario
    from repro.lifecycle import (
        DriftMonitorConfig,
        LifecycleConfig,
        ModelLifecycle,
        RetrainPlannerConfig,
    )
    from repro.management.hotspot import HotspotDetector

    if args.mae_window < 1:
        print(
            f"fleet-lifecycle: --mae-window must be >= 1, got {args.mae_window}",
            file=sys.stderr,
        )
        return 2
    n_classes = args.classes if args.classes else (3 if args.quick else 4)
    per_class = args.servers_per_class if args.servers_per_class else (
        6 if args.quick else 8
    )
    duration = args.duration if args.duration else (5400.0 if args.quick else 7200.0)
    train_s = args.train_duration if args.train_duration else (
        1800.0 if args.quick else 3600.0
    )
    started = time.time()
    _, report = _profile_and_train_registry(args, n_classes, per_class, train_s)
    print(f"  {report.grid.summary()}", file=sys.stderr)

    scenario = model_drift_scenario(
        n_classes=n_classes, servers_per_class=per_class,
        seed=args.seed * 1000, duration_s=duration,
    )
    detector = HotspotDetector(threshold_c=args.threshold)
    config = ControlPlaneConfig(interval_s=args.interval)
    lifecycle_config = LifecycleConfig(
        drift=DriftMonitorConfig(gamma_threshold_c=args.gamma_threshold),
        planner=RetrainPlannerConfig(
            window_s=args.window,
            # Clamped to the planner's floor (2): per_class may be 1.
            min_class_records=max(2, min(3, per_class)),
        ),
    )

    print(
        f"== running {scenario.name} for {duration:.0f}s (frozen registry) ==",
        file=sys.stderr,
    )
    frozen = run_closed_loop(
        scenario, report.registry, policy=None, config=config,
        detector=detector, key_fn=_class_key,
    )
    # The lifecycle arm mutates its registry (swaps publish new
    # versions), so it runs against a deep copy of the trained one.
    live_registry = copy.deepcopy(report.registry)
    lifecycle = ModelLifecycle(live_registry, lifecycle_config)
    print(
        f"== running {scenario.name} for {duration:.0f}s (drift-aware "
        f"lifecycle) ==",
        file=sys.stderr,
    )
    managed = run_closed_loop(
        scenario, live_registry, policy=None, config=config,
        detector=detector, key_fn=_class_key, lifecycle=lifecycle,
    )

    window = args.mae_window
    frozen_mae = frozen.ledger.windowed_forecast_error_c(window)
    managed_mae = managed.ledger.windowed_forecast_error_c(window)
    life_summary = lifecycle.summary()
    rows = []
    for label, result, windowed_mae, swapped in (
        ("frozen", frozen, frozen_mae, 0),
        ("lifecycle", managed, managed_mae,
         int(life_summary["models_published"])),
    ):
        summary = result.ledger.summary()
        rows.append(
            (
                label,
                f"{windowed_mae:.3f}",
                f"{summary['mean_forecast_error_c']:.3f}",
                int(summary["sustained_hotspots"]),
                swapped,
                f"{summary['it_energy_kwh'] + summary['cooling_energy_kwh']:.1f}",
            )
        )
    print(
        ascii_table(
            ["run", f"MAE last {window} (degC)", "MAE all (degC)",
             "sustained hs", "models swapped", "energy kWh"],
            rows,
        )
    )
    print(
        f"\nlifecycle: {life_summary['rounds']:.0f} retrain rounds, "
        f"{life_summary['models_published']:.0f} models published over "
        f"{life_summary['classes_retrained']:.0f}/{n_classes} classes, "
        f"{life_summary['retrain_seconds_total']:.2f}s retraining"
    )
    for round_ in lifecycle.rounds:
        for outcome in round_.outcomes:
            print(
                f"  t={round_.time_s:6.0f}s  {outcome.action} {outcome.key} "
                f"-> v{outcome.version} ({outcome.n_records} records, "
                f"train MSE {outcome.train_mse:.3f})"
            )
    # Rounds that published nothing are diagnosable too: aggregate the
    # publish-gate holds and planner skips with their reasons.
    rejections: dict[tuple[str, str], int] = {}
    for round_ in lifecycle.rounds:
        for key, reason in (*round_.held, *round_.skipped):
            rejections[(key, reason)] = rejections.get((key, reason), 0) + 1
    if rejections:
        print("retrains held or skipped:")
        for (key, reason), count in sorted(rejections.items()):
            times = f" (x{count})" if count > 1 else ""
            print(f"  {key}: {reason}{times}")
    print(f"\nelapsed {time.time() - started:.1f}s")
    if math.isnan(frozen_mae) or math.isnan(managed_mae):
        # Nothing matured in the window on one side — not comparable,
        # and certainly not evidence of a lifecycle regression.
        print("note: windowed MAE not comparable (no matured forecasts)")
        return 0
    return 0 if managed_mae <= frozen_mae else 1


def _cmd_fleet_serve(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.experiments.reporting import ascii_table
    from repro.serving import (
        FrontendConfig,
        PredictionFrontend,
        serve_naive,
        serve_trace,
        trace_from_scenario,
    )
    from repro.training import server_class_key

    if args.requests < 0:
        print(
            f"fleet-serve: --requests must be >= 0, got {args.requests}",
            file=sys.stderr,
        )
        return 2
    if args.rate <= 0:
        print(f"fleet-serve: --rate must be > 0, got {args.rate}", file=sys.stderr)
        return 2
    n_classes = args.classes if args.classes else (3 if args.quick else 8)
    per_class = args.servers_per_class if args.servers_per_class else (
        2 if args.quick else 16
    )
    train_s = args.train_duration if args.train_duration else (
        900.0 if args.quick else 3600.0
    )
    n_requests = args.requests if args.requests else (
        2_000 if args.quick else 20_000
    )

    started = time.time()
    scenario, report = _profile_and_train_registry(
        args, n_classes, per_class, train_s
    )
    print(f"  {report.grid.summary()}", file=sys.stderr)

    trace = trace_from_scenario(
        scenario,
        n_requests,
        duration_s=n_requests / args.rate,
        arrival=args.arrival,
        seed=args.seed * 1000 + 1,
        key_fn=server_class_key,
    )
    config = FrontendConfig(
        max_batch=args.max_batch,
        max_wait_s=args.max_wait_ms / 1000.0,
        cache_enabled=not args.no_cache,
    )
    print(
        f"== serving {trace.n_requests} requests over {scenario.n_servers} "
        f"servers ({args.arrival} arrivals at {args.rate:.0f}/s, "
        f"max_batch {config.max_batch}, budget {args.max_wait_ms:.0f} ms"
        f"{', cache off' if args.no_cache else ''}) ==",
        file=sys.stderr,
    )
    frontend = PredictionFrontend(report.registry, config)
    naive_start = time.perf_counter()
    psi_naive, naive_ledger = serve_naive(report.registry, trace)
    naive_s = time.perf_counter() - naive_start
    frontend_start = time.perf_counter()
    tickets = serve_trace(frontend, trace)
    frontend_s = time.perf_counter() - frontend_start
    psi_frontend = np.array([t.psi_stable_c for t in tickets])
    if not np.array_equal(psi_frontend, psi_naive):
        print("fleet-serve: batched answers diverged from the per-request "
              "path — parity violation", file=sys.stderr)
        return 1

    summary = frontend.ledger.summary()
    naive_summary = naive_ledger.summary()
    rows = [
        (
            "per-request",
            f"{naive_summary['p50_latency_s'] * 1e3:.2f}",
            f"{naive_summary['p99_latency_s'] * 1e3:.2f}",
            f"{naive_summary['mean_batch_size']:.1f}",
            "-",
            f"{naive_s:.2f}",
        ),
        (
            "micro-batched",
            f"{summary['p50_latency_s'] * 1e3:.2f}",
            f"{summary['p99_latency_s'] * 1e3:.2f}",
            f"{summary['mean_batch_size']:.1f}",
            f"{summary['cache_hit_rate'] * 100:.1f}%",
            f"{frontend_s:.2f}",
        ),
    ]
    print(
        ascii_table(
            ["serving path", "p50 (ms)", "p99 (ms)", "mean batch",
             "cache hits", "walltime (s)"],
            rows,
        )
    )
    print(
        f"\nanswers bit-identical across paths; "
        f"{summary['n_batches']:.0f} batches, "
        f"{summary['unique_computed']:.0f} unique computes for "
        f"{summary['n_requests']:.0f} requests, "
        f"throughput x{naive_s / frontend_s:.1f} vs per-request serving"
    )
    print(f"\nelapsed {time.time() - started:.1f}s")
    return 0


def _compile_spec_file(path: str):
    """Read and compile one JSON scenario document from ``path``.

    Returns the compiled FleetScenario, or None after reporting why the
    file could not be read or compiled (the caller exits with 2).
    """
    import json

    from repro.errors import ConfigurationError
    from repro.scenarios import compile_spec

    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        if not isinstance(doc, dict):
            raise ValueError(
                f"{path} must hold one JSON object, got {type(doc).__name__}"
            )
        return compile_spec(doc)
    except (OSError, ValueError, ConfigurationError) as exc:
        print(f"fleet-scenario: {path}: {exc}", file=sys.stderr)
        return None


def _scenario_lines(scenario) -> list[str]:
    """A short human-readable summary of a compiled FleetScenario."""
    env = type(scenario.environment).__name__
    return [
        f"name            {scenario.name}",
        f"seed            {scenario.seed}",
        f"servers         {scenario.n_servers} "
        f"({scenario.servers_per_rack} per rack)",
        f"initial VMs     {scenario.n_vms}",
        f"arrivals        {len(scenario.arrivals)}",
        f"migrations      {len(scenario.migrations)}",
        f"environment     {env}",
        f"duration        {scenario.duration_s:.0f} s",
    ]


def _cmd_scenario_validate(args: argparse.Namespace) -> int:
    scenario = _compile_spec_file(args.spec)
    if scenario is None:
        return 2
    print(f"{args.spec}: ok")
    for line in _scenario_lines(scenario):
        print(f"  {line}")
    return 0


def _cmd_scenario_compile(args: argparse.Namespace) -> int:
    scenario = _compile_spec_file(args.spec)
    if scenario is None:
        return 2
    for line in _scenario_lines(scenario):
        print(line)
    for spec, placed in zip(scenario.server_specs, scenario.vm_specs):
        print(
            f"  {spec.name:<14} {spec.capacity.cpu_cores}c @ "
            f"{spec.capacity.ghz_per_core:.1f} GHz, "
            f"{spec.capacity.memory_gb:.0f} GiB, {len(placed)} VMs"
        )
    for time_s, server_name, vm in scenario.arrivals:
        print(f"  t={time_s:7.1f}s  arrival  {vm.name} -> {server_name}")
    for time_s, vm_name, destination in scenario.migrations:
        print(f"  t={time_s:7.1f}s  migrate  {vm_name} -> {destination}")
    return 0


def _cmd_scenario_fuzz(args: argparse.Namespace) -> int:
    from repro.errors import InvariantViolationError
    from repro.scenarios import ScenarioFuzzer, run_with_invariants

    if args.count < 1:
        print(f"fleet-scenario: --count must be >= 1, got {args.count}",
              file=sys.stderr)
        return 2
    started = time.time()
    fuzzer = ScenarioFuzzer()
    failures = 0
    checks = 0
    for i in range(args.count):
        seed = args.seed + i
        scenario = fuzzer.scenario(seed)
        if args.compile_only:
            continue
        try:
            report = run_with_invariants(
                scenario,
                check_interval_s=args.check_interval,
                strict=args.strict,
            )
        except InvariantViolationError as exc:
            print(f"seed {seed}: {exc}", file=sys.stderr)
            return 1
        checks += report.checks
        if not report.ok:
            failures += 1
            for violation in report.violations:
                print(f"seed {seed}: {violation}", file=sys.stderr)
        if (i + 1) % 25 == 0:
            print(
                f"  {i + 1}/{args.count} scenarios, {failures} with "
                f"violations ({time.time() - started:.1f}s)",
                file=sys.stderr,
            )
    mode = "compiled" if args.compile_only else "ran"
    print(
        f"{mode} {args.count} fuzzed scenarios from seed {args.seed}: "
        f"{failures} with violations, {checks} invariant checks, "
        f"{time.time() - started:.1f}s"
    )
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="VM-level temperature profiling & prediction (ICDCS'16 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    fig1a = commands.add_parser("fig1a", help="regenerate Fig. 1(a): stable prediction")
    _add_common(fig1a)
    fig1a.set_defaults(handler=_cmd_fig1a)

    fig1b = commands.add_parser("fig1b", help="regenerate Fig. 1(b): dynamic case study")
    _add_common(fig1b)
    fig1b.set_defaults(handler=_cmd_fig1b)

    fig1c = commands.add_parser("fig1c", help="regenerate Fig. 1(c): gap×update sweep")
    _add_common(fig1c)
    fig1c.set_defaults(handler=_cmd_fig1c)

    dataset = commands.add_parser("dataset", help="simulate a profiling campaign → JSON")
    dataset.add_argument("--n", type=int, default=50, help="number of experiments")
    dataset.add_argument("--out", type=str, default="records.json", help="output path")
    dataset.add_argument("--seed", type=int, default=7)
    dataset.set_defaults(handler=_cmd_dataset)

    fleet = commands.add_parser(
        "fleet-predict",
        help="run the online prediction service against a diurnal fleet",
    )
    _add_common(fleet)
    fleet.add_argument(
        "--servers", type=int, default=0,
        help="fleet size (default: 128, or 32 with --quick)",
    )
    fleet.add_argument(
        "--duration", type=float, default=0.0,
        help="simulated seconds (default: 3600, or 900 with --quick)",
    )
    fleet.add_argument(
        "--n-train", type=int, default=0,
        help="stable-model training records (default: 120, or 30 with --quick)",
    )
    fleet.add_argument(
        "--threshold", type=float, default=75.0,
        help="hotspot threshold in degC (default 75)",
    )
    fleet.set_defaults(handler=_cmd_fleet_predict)

    train = commands.add_parser(
        "fleet-train",
        help="train one stable model per server class and serve the registry",
    )
    _add_common(train)
    train.add_argument(
        "--classes", type=int, default=0,
        help="hardware classes in the fleet (default: 16, or 4 with --quick)",
    )
    train.add_argument(
        "--servers-per-class", type=int, default=0,
        help="servers per class (default: 8, or 3 with --quick)",
    )
    train.add_argument(
        "--duration", type=float, default=0.0,
        help="profiling simulation seconds (default: 3600, or 900 with --quick)",
    )
    train.add_argument(
        "--serve-duration", type=float, default=None,
        help="serving-phase seconds; 0 skips serving "
             "(default: 1800, or 600 with --quick)",
    )
    train.add_argument(
        "--threshold", type=float, default=75.0,
        help="hotspot threshold in degC (default 75)",
    )
    train.set_defaults(handler=_cmd_fleet_train)

    manage = commands.add_parser(
        "fleet-manage",
        help="run the closed-loop thermal control plane on a stress scenario",
    )
    _add_common(manage)
    manage.add_argument(
        "--scenario", choices=sorted(_MANAGE_SCENARIOS), default="cooling-failure",
        help="stress scenario to manage (default cooling-failure)",
    )
    manage.add_argument(
        "--policy", choices=_MANAGE_POLICIES, default="proactive",
        help="mitigation policy (default proactive)",
    )
    manage.add_argument(
        "--servers", type=int, default=0,
        help="fleet size (default: 32, or 16 with --quick)",
    )
    manage.add_argument(
        "--duration", type=float, default=0.0,
        help="simulated seconds (default: 3600, or 2400 with --quick)",
    )
    manage.add_argument(
        "--n-train", type=int, default=0,
        help="stable-model training records (default: 120, or 30 with --quick)",
    )
    manage.add_argument(
        "--threshold", type=float, default=75.0,
        help="hotspot threshold in degC (default 75)",
    )
    manage.add_argument(
        "--margin", type=float, default=2.0,
        help="proactive safety margin in degC (default 2)",
    )
    manage.add_argument(
        "--interval", type=float, default=60.0,
        help="control interval in seconds (default 60)",
    )
    manage.add_argument(
        "--budget", type=int, default=4,
        help="max migrations per control interval (default 4)",
    )
    manage.add_argument(
        "--no-control",
        action="store_true",
        help="run only the no-control baseline",
    )
    manage.set_defaults(handler=_cmd_fleet_manage)

    lifecycle = commands.add_parser(
        "fleet-lifecycle",
        help="run drift detection -> retrain -> hot-swap on the "
             "model-drift scenario (retrained-vs-frozen scorecard)",
    )
    _add_common(lifecycle)
    lifecycle.add_argument(
        "--classes", type=int, default=0,
        help="hardware classes in the fleet (default: 4, or 3 with --quick)",
    )
    lifecycle.add_argument(
        "--servers-per-class", type=int, default=0,
        help="servers per class (default: 8, or 6 with --quick)",
    )
    lifecycle.add_argument(
        "--duration", type=float, default=0.0,
        help="drift-run seconds (default: 7200, or 5400 with --quick)",
    )
    lifecycle.add_argument(
        "--train-duration", type=float, default=0.0,
        help="profiling-campaign seconds (default: 3600, or 1800 with --quick)",
    )
    lifecycle.add_argument(
        "--threshold", type=float, default=75.0,
        help="hotspot threshold in degC (default 75)",
    )
    lifecycle.add_argument(
        "--interval", type=float, default=60.0,
        help="control/lifecycle interval in seconds (default 60)",
    )
    lifecycle.add_argument(
        "--gamma-threshold", type=float, default=2.0,
        help="per-class mean |gamma| that flags drift, degC (default 2)",
    )
    lifecycle.add_argument(
        "--window", type=float, default=1800.0,
        help="sliding telemetry window per retrain record, seconds "
             "(default 1800)",
    )
    lifecycle.add_argument(
        "--mae-window", type=int, default=20,
        help="trailing control intervals scored in the headline MAE "
             "(default 20)",
    )
    lifecycle.set_defaults(handler=_cmd_fleet_lifecycle)

    serve = commands.add_parser(
        "fleet-serve",
        help="stand the micro-batching request front-end up over a "
             "trained registry and print the p50/p99 latency scorecard",
    )
    _add_common(serve)
    serve.add_argument(
        "--classes", type=int, default=0,
        help="hardware classes in the fleet (default: 8, or 3 with --quick)",
    )
    serve.add_argument(
        "--servers-per-class", type=int, default=0,
        help="servers per class (default: 16, or 2 with --quick)",
    )
    serve.add_argument(
        "--train-duration", type=float, default=0.0,
        help="profiling-campaign seconds (default: 3600, or 900 with --quick)",
    )
    serve.add_argument(
        "--requests", type=int, default=0,
        help="requests to replay (default: 20000, or 2000 with --quick)",
    )
    serve.add_argument(
        "--arrival", choices=("uniform", "poisson", "bursts"),
        default="poisson",
        help="request arrival process (default poisson)",
    )
    serve.add_argument(
        "--rate", type=float, default=400.0,
        help="mean virtual arrival rate, requests/s (default 400)",
    )
    serve.add_argument(
        "--max-batch", type=int, default=64,
        help="micro-batch size cap (default 64)",
    )
    serve.add_argument(
        "--max-wait-ms", type=float, default=20.0,
        help="queue latency budget in milliseconds (default 20)",
    )
    serve.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the signature-keyed result cache",
    )
    serve.set_defaults(handler=_cmd_fleet_serve)

    scenario = commands.add_parser(
        "fleet-scenario",
        help="validate/compile declarative scenario specs and fuzz the "
             "scenario grammar under the invariant harness",
    )
    actions = scenario.add_subparsers(dest="action", required=True)

    validate = actions.add_parser(
        "validate", help="check a JSON spec document compiles cleanly"
    )
    validate.add_argument("spec", type=str, help="path to a JSON spec document")
    validate.set_defaults(handler=_cmd_scenario_validate)

    compile_ = actions.add_parser(
        "compile", help="compile a JSON spec and print the resulting fleet"
    )
    compile_.add_argument("spec", type=str, help="path to a JSON spec document")
    compile_.set_defaults(handler=_cmd_scenario_compile)

    fuzz = actions.add_parser(
        "fuzz",
        help="run seeded random-but-valid scenarios under the invariant "
             "harness (exit 0 only on zero violations)",
    )
    fuzz.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    fuzz.add_argument(
        "--count", type=int, default=20,
        help="scenarios at consecutive seeds (default 20)",
    )
    fuzz.add_argument(
        "--strict",
        action="store_true",
        help="stop at the first violating scenario with the full report",
    )
    fuzz.add_argument(
        "--compile-only",
        action="store_true",
        help="only sample and compile the specs; skip the simulations",
    )
    fuzz.add_argument(
        "--check-interval", type=float, default=60.0,
        help="invariant probe interval in simulated seconds (default 60)",
    )
    fuzz.set_defaults(handler=_cmd_scenario_fuzz)

    lint = commands.add_parser(
        "fleet-lint",
        help="run the reprolint invariant checks (determinism, "
             "snapshot-aliasing, unit suffixes, parity-pair coverage)",
        add_help=False,
    )
    lint.add_argument(
        "args", nargs=argparse.REMAINDER,
        help="arguments forwarded to tools.reprolint "
             "(try: fleet-lint rules, fleet-lint --strict src tests)",
    )
    lint.set_defaults(handler=_cmd_fleet_lint)
    return parser


def _forward_fleet_lint(lint_args: list[str]) -> int:
    """Forward to ``tools.reprolint`` (lives beside src/, not inside it)."""
    repo_root = str(Path(__file__).resolve().parents[2])
    if repo_root not in sys.path:
        sys.path.insert(0, repo_root)
    try:
        from tools.reprolint.cli import main as reprolint_main
    except ImportError:
        print(
            "fleet-lint needs the repo checkout (tools/reprolint/ next to "
            "src/); run it from the repository root",
            file=sys.stderr,
        )
        return 2
    return reprolint_main(lint_args)


def _cmd_fleet_lint(args: argparse.Namespace) -> int:
    return _forward_fleet_lint(args.args)


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    # argparse.REMAINDER refuses to swallow leading --flags, so route
    # fleet-lint's argument vector around the parser untouched.
    if argv and argv[0] == "fleet-lint":
        return _forward_fleet_lint(list(argv[1:]))
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
