"""The layers the traced run wraps, and which end-to-end metric each moves.

Every span is recorded from outside the program: :func:`install`
replaces the public functions and methods of the ``repro`` modules
listed in :data:`SPANS` — class methods, and the names that consuming
modules bound by import — and wraps each probe callable handed to
``DatacenterSimulation.add_probe``. :meth:`spans.Patches.restore` puts
every original back.

``moves`` records, before any optimisation is measured, which
end-to-end metric a change to the layer should move, on which workload.
"""

from __future__ import annotations

from dataclasses import dataclass

from spans import LayerTotals, Patches, Tracer, resolve


@dataclass(frozen=True)
class Layer:
    """One span name, the bindings it wraps, and what it should move."""

    name: str
    targets: tuple[tuple[str, str], ...]
    moves: str


def _rows(args: tuple, kwargs: dict) -> float:
    return len(args[1] if len(args) > 1 else kwargs["records"])


def _moves(args: tuple, kwargs: dict) -> float:
    return len(args[2] if len(args) > 2 else kwargs["moves"])


def _problems(args: tuple, kwargs: dict) -> float:
    return len(args[0] if args else kwargs["kernel_matrices"])


SPANS: tuple[Layer, ...] = (
    Layer("datacenter.run", (("repro.datacenter.simulation", "DatacenterSimulation.run"),),
          "drift_lifecycle/run_s; a small share of manage_cooling/run_s; setup_s via profile_fleet"),
    Layer("datacenter.load_gather", (("repro.datacenter.fleet_load", "FleetLoadView.utilizations"),),
          "drift_lifecycle/run_s; setup_s via profile_fleet"),
    Layer("datacenter.telemetry", (
        ("repro.datacenter.telemetry", "TelemetryCollector.record_fleet_step"),
        ("repro.datacenter.telemetry", "TelemetryCollector.record_fleet_cpu_samples"),
    ), "drift_lifecycle/run_s and drift_lifecycle/peak_rss_mb (telemetry buffers)"),
    Layer("thermal.rc_step", (("repro.thermal.fleet", "FleetThermalEngine.step"),),
          "drift_lifecycle/run_s; setup_s via profile_fleet"),
    Layer("thermal.sensor_sample", (("repro.thermal.sensors", "SensorBank.sample_due"),),
          "drift_lifecycle/run_s; setup_s via profile_fleet"),
    # serving.fleet.probe and control.tick are the probe callables; see
    # PROBES below.
    Layer("serving.fleet.observe", (("repro.serving.fleet", "PredictionFleet.observe"),),
          "drift_lifecycle/run_s"),
    Layer("serving.fleet.predict_ahead", (("repro.serving.fleet", "PredictionFleet.predict_ahead"),),
          "drift_lifecycle/run_s"),
    Layer("serving.fleet.retarget", (("repro.serving.fleet", "PredictionFleet.retarget"),),
          "drift_lifecycle/run_s"),
    Layer("control.plan", (
        ("repro.control.policies", "ReactiveEvictionPolicy.plan"),
        ("repro.control.policies", "ProactiveForecastPolicy.plan"),
        ("repro.control.policies", "EnergyAwareConsolidationPolicy.plan"),
    ), "manage_cooling/run_s"),
    Layer("control.account", (("repro.control.plane", "forecast_error_at"),),
          "drift_lifecycle/run_s"),
    Layer("management.score_moves", (("repro.management.whatif", "WhatIfScorer.score_moves"),),
          "manage_cooling/run_s only; no change on drift_lifecycle or serve_frontend"),
    Layer("management.enumerate", (("repro.control.policies", "enumerate_evictions"),),
          "manage_cooling/run_s only"),
    Layer("management.detect", (
        ("repro.management.hotspot", "HotspotDetector.detect"),
        ("repro.management.hotspot", "HotspotDetector.detect_fleet"),
    ), "manage_cooling/run_s and drift_lifecycle/run_s (once per control tick)"),
    Layer("serving.batch.predict_batch", (
        ("repro.serving.batch", "predict_batch"),
        ("repro.serving.fleet", "predict_batch"),
    ), "run_s of manage_cooling (what-if batches) and drift_lifecycle (retargets)"),
    Layer("serving.registry.predict_records", (("repro.serving.registry", "ModelEntry.predict_records"),),
          "run_s of all three workloads at different batch shapes"),
    Layer("core.features.matrix", (("repro.core.features", "FeatureExtractor.matrix"),),
          "run_s of all three workloads at different batch shapes"),
    Layer("lifecycle.step", (("repro.lifecycle.manager", "ModelLifecycle.step"),),
          "drift_lifecycle/run_s"),
    Layer("lifecycle.drift", (("repro.lifecycle.drift", "DriftMonitor.observe_fleet"),),
          "drift_lifecycle/run_s"),
    Layer("lifecycle.plan", (("repro.lifecycle.planner", "RetrainPlanner.plan"),),
          "drift_lifecycle/run_s"),
    Layer("lifecycle.retrain", (("repro.lifecycle.retrainer", "Retrainer.retrain"),),
          "drift_lifecycle/run_s"),
    Layer("serving.registry.swap", (
        ("repro.serving.registry", "ModelRegistry.swap_model"),
        ("repro.serving.registry", "ModelRegistry.promote"),
    ), "drift_lifecycle/run_s"),
    Layer("serving.frontend.submit", (("repro.serving.frontend", "PredictionFrontend.submit"),),
          "serve_frontend/run_s and p99_latency_ms"),
    Layer("serving.frontend.poll", (("repro.serving.frontend", "PredictionFrontend.poll"),),
          "serve_frontend/run_s and p99_latency_ms"),
    Layer("serving.frontend.flush", (("repro.serving.frontend", "PredictionFrontend.flush"),),
          "serve_frontend/run_s"),
)

#: Probe callables handed to ``add_probe``, named by the object they are
#: bound to; any other probe is recorded as ``datacenter.probe``.
PROBES = {
    "FleetPredictionProbe": "serving.fleet.probe",
    "ControlPlane": "control.tick",
}
PROBE_MOVES = {
    "serving.fleet.probe": "drift_lifecycle/run_s",
    "control.tick": "manage_cooling/run_s via plan; drift_lifecycle/run_s via account and lifecycle",
}

#: Every caller of the batched SMO solver binds it by import; each
#: binding is its own span so the solver's time splits by caller.
SMO_CALLERS = (
    ("retrain", "repro.lifecycle.retrainer"),
    ("grid", "repro.svm.grid"),
    ("refit", "repro.training.fleet_trainer"),
)
SMO_MOVES = "drift_lifecycle/run_s (retrain); setup_s on every workload (grid, refit)"

#: Set-up layers: their busy time is part of setup_s.
SETUP_SPANS = (
    Layer("training.profile_fleet", (
        ("repro.training", "profile_fleet"),
        ("repro.training.fleet_trainer", "profile_fleet"),
    ), "setup_s"),
    Layer("training.train_fleet_registry", (
        ("repro.training", "train_fleet_registry"),
        ("repro.training.fleet_trainer", "train_fleet_registry"),
    ), "setup_s"),
    Layer("serving.traces.trace_from_scenario", (
        ("repro.serving", "trace_from_scenario"),
        ("repro.serving.traces", "trace_from_scenario"),
    ), "serve_frontend/setup_s"),
)

#: Amount of work recorded per call, where a layer has one.
WORK = {
    "serving.registry.predict_records": _rows,
    "management.score_moves": _moves,
    **{f"svm.smo_batch.{caller}": _problems for caller, _ in SMO_CALLERS},
}

#: Names of every span a run-phase table can show, in report order.
RUN_LAYERS: tuple[str, ...] = (
    "datacenter.run",
    "datacenter.load_gather",
    "datacenter.telemetry",
    "thermal.rc_step",
    "thermal.sensor_sample",
    "serving.fleet.probe",
    "serving.fleet.observe",
    "serving.fleet.predict_ahead",
    "serving.fleet.retarget",
    "control.tick",
    "control.plan",
    "control.account",
    "management.score_moves",
    "management.enumerate",
    "management.detect",
    "serving.batch.predict_batch",
    "serving.registry.predict_records",
    "core.features.matrix",
    "lifecycle.step",
    "lifecycle.drift",
    "lifecycle.plan",
    "lifecycle.retrain",
    "serving.registry.swap",
    "serving.frontend.submit",
    "serving.frontend.poll",
    "serving.frontend.flush",
)


def moves_table() -> list[tuple[str, str]]:
    """(layer, end-to-end metric it should move) for every traced layer."""
    by_name = {layer.name: layer.moves for layer in SPANS + SETUP_SPANS}
    by_name.update(PROBE_MOVES)
    rows = [(name, by_name[name]) for name in RUN_LAYERS]
    rows += [(f"svm.smo_batch.{caller}", SMO_MOVES) for caller, _ in SMO_CALLERS]
    rows += [(layer.name, layer.moves) for layer in SETUP_SPANS]
    return rows


def install(tracer: Tracer) -> Patches:
    """Wrap every layer boundary so calls record spans on ``tracer``."""
    patches = Patches()

    def wrapping(name: str):
        return lambda fn: tracer.wrap(name, fn, WORK.get(name))

    for layer in SPANS + SETUP_SPANS:
        for module, qualname in layer.targets:
            patches.replace(*resolve(module, qualname), wrapping(layer.name))
    for caller, module in SMO_CALLERS:
        patches.replace(*resolve(module, "solve_svr_dual_batch"), wrapping(f"svm.smo_batch.{caller}"))

    def probes(add_probe):
        def traced_add_probe(sim, probe, interval_s=None):
            owner = type(getattr(probe, "__self__", None)).__name__
            name = PROBES.get(owner, "datacenter.probe")
            return add_probe(sim, tracer.wrap(name, probe), interval_s)

        return traced_add_probe

    patches.replace(*resolve("repro.datacenter.simulation", "DatacenterSimulation.add_probe"), probes)
    return patches


#: Counts and model outcomes read from the program's own ledgers, or
#: derived from span work, with their unit and which direction is better.
#: The outcomes repeat exactly at one seed; they are here (and not
#: end-to-end metrics) because each exists on only some workloads.
COUNTS: tuple[tuple[str, str, str], ...] = (
    ("management.candidates", "count", "lower"),
    ("management.unique_rows", "count", "lower"),
    ("management.dedup_ratio", "ratio", "lower"),
    ("serving.registry.predict_records.rows_per_call", "rows", "higher"),
    ("lifecycle.published", "count", "higher"),
    ("lifecycle.attempted", "count", "lower"),
    ("lifecycle.publish_ratio", "ratio", "higher"),
    ("serving.frontend.batches", "count", "lower"),
    ("serving.frontend.mean_batch", "rows", "higher"),
    ("serving.frontend.unique_computed", "count", "lower"),
    ("serving.frontend.cache_hit_rate", "ratio", "higher"),
    ("outcome.forecast_mae_c", "C", "lower"),
    ("outcome.hotspot_server_intervals", "count", "lower"),
    ("outcome.p50_latency_ms", "ms", "lower"),
    ("outcome.p99_latency_ms", "ms", "lower"),
    ("trace.run_s", "s", "lower"),
    ("trace.other_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def per_layer_catalog() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for name in RUN_LAYERS:
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.busy_s", "s", "lower"),
                (f"{name}.self_s", "s", "lower")]
    for caller, _ in SMO_CALLERS:
        out += [(f"svm.smo_batch.{caller}.calls", "count", "lower"),
                (f"svm.smo_batch.{caller}.busy_s", "s", "lower"),
                (f"svm.smo_batch.{caller}.problems", "count", "lower")]
    out += [(f"{layer.name}.busy_s", "s", "lower") for layer in SETUP_SPANS]
    return out + list(COUNTS)


def layer_metrics(tracer: Tracer, run: dict[str, LayerTotals], first: int, last: int,
                  run_s: float, known: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced run whose timed phase is spans ``[first, last)``.

    ``run`` is ``tracer.totals(first, last)``; ``known`` holds the counts
    and outcomes the workload read from the program's ledgers. Layer
    metrics cover the timed phase, set-up layers the spans before it,
    and the SMO solver both, split by caller. Every name of
    :func:`per_layer_catalog` but ``trace.overhead_s`` (which needs the
    untraced runs) is present, at 0 where a layer did not run.
    """
    setup = tracer.totals(0, first)
    both = tracer.totals(0, last)
    out: dict[str, float] = {}
    for name in RUN_LAYERS:
        totals = run.get(name)
        out[f"{name}.calls"] = float(totals.calls) if totals else 0.0
        out[f"{name}.busy_s"] = totals.busy_s if totals else 0.0
        out[f"{name}.self_s"] = totals.self_s if totals else 0.0
    for caller, _ in SMO_CALLERS:
        totals = both.get(f"svm.smo_batch.{caller}")
        out[f"svm.smo_batch.{caller}.calls"] = float(totals.calls) if totals else 0.0
        out[f"svm.smo_batch.{caller}.busy_s"] = totals.busy_s if totals else 0.0
        out[f"svm.smo_batch.{caller}.problems"] = totals.work if totals else 0.0
    for layer in SETUP_SPANS:
        totals = setup.get(layer.name)
        out[f"{layer.name}.busy_s"] = totals.busy_s if totals else 0.0

    scored = run.get("management.score_moves")
    candidates = scored.work if scored else 0.0
    unique_rows = tracer.work_under(
        "serving.registry.predict_records", "management.score_moves", first, last
    )
    out["management.candidates"] = candidates
    out["management.unique_rows"] = unique_rows
    # Each candidate move needs two records: its source without the VM
    # and its destination with it.
    out["management.dedup_ratio"] = unique_rows / (2.0 * candidates) if candidates else 0.0
    predicted = run.get("serving.registry.predict_records")
    out["serving.registry.predict_records.rows_per_call"] = (
        predicted.work / predicted.calls if predicted and predicted.calls else 0.0
    )
    for name, _, _ in COUNTS:
        if name.startswith(("lifecycle.", "serving.frontend.", "outcome.")):
            out[name] = float(known.get(name, 0.0))
    out["trace.run_s"] = run_s
    out["trace.other_s"] = run_s - sum(totals.self_s for totals in run.values())
    return out


def report(run: dict[str, LayerTotals], run_s: float) -> str:
    """Per-layer table of a traced run: self times plus ``other`` add up to run_s."""
    moves = dict(moves_table())
    lines = [f"{'layer':<34}{'calls':>9}{'busy_s':>9}{'self_s':>9}{'self%':>7}  should move"]
    for name, totals in sorted(run.items(), key=lambda item: -item[1].self_s):
        lines.append(
            f"{name:<34}{totals.calls:>9}{totals.busy_s:>9.3f}{totals.self_s:>9.3f}"
            f"{100 * totals.self_s / run_s:>6.1f}%  {moves.get(name, '')}"
        )
    other = run_s - sum(totals.self_s for totals in run.values())
    lines.append(f"{'other':<34}{'':>18}{other:>9.3f}{100 * other / run_s:>6.1f}%")
    lines.append(f"{'total = traced run_s':<34}{'':>18}{run_s:>9.3f}")
    return "\n".join(lines)
