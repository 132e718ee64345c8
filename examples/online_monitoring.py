#!/usr/bin/env python
"""Online temperature monitoring of a live cluster.

Deploys the paper's method as a service: a :class:`TemperatureMonitor`
attaches to a running simulation, consumes sensor samples online,
maintains a calibrated dynamic predictor per server, retargets whenever
a VM set changes (here: a migration), and raises predicted-hotspot
warnings *before* the temperature arrives — the proactive stance the
paper's introduction argues for. When a hotspot is predicted, every
(VM, destination) move off the hot server is scored in one batched
what-if call and the move with the lowest predicted peak is proposed.

Run:  python examples/online_monitoring.py
"""

from repro.core.monitor import TemperatureMonitor
from repro.datacenter.cluster import Cluster
from repro.datacenter.migration import migrate_vm
from repro.datacenter.resources import ResourceCapacity
from repro.datacenter.server import Server, ServerSpec
from repro.datacenter.simulation import DatacenterSimulation
from repro.datacenter.vm import Vm, VmSpec
from repro.datacenter.workload import ConstantTask
from repro.experiments.figures import train_default_stable_model
from repro.management.whatif import WhatIfScorer, enumerate_evictions
from repro.rng import RngFactory
from repro.thermal.environment import ConstantEnvironment


def make_server_spec(name: str) -> ServerSpec:
    return ServerSpec(
        name=name,
        capacity=ResourceCapacity(cpu_cores=16, ghz_per_core=2.4, memory_gb=64.0),
        fan_count=4,
        fan_speed=0.7,
    )


def busy_vm(name: str, level: float, vcpus: int = 4) -> Vm:
    return Vm(
        VmSpec(
            name=name,
            vcpus=vcpus,
            memory_gb=4.0,
            tasks=tuple(ConstantTask(level=level) for _ in range(vcpus)),
        )
    )


def main() -> None:
    print("== training the stable model ==")
    report = train_default_stable_model(n_train=80, seed=7, n_folds=5)
    predictor = report.predictor
    print(f"  {report.grid.summary()}\n")

    print("== bringing up a 3-server cluster ==")
    cluster = Cluster("live")
    for i in range(3):
        cluster.add_server(Server(make_server_spec(name=f"s{i}")))
    sim = DatacenterSimulation(
        cluster=cluster, environment=ConstantEnvironment(22.0), rng=RngFactory(31)
    )
    sim.equalize_temperatures()
    for i in range(3):
        cluster.server("s0").host_vm(busy_vm(f"web-{i}", level=0.85))
    cluster.server("s1").host_vm(busy_vm("batch-0", level=0.5))

    monitor = TemperatureMonitor(predictor)
    monitor.attach(sim)

    # A migration lands mid-run: s1 picks up another busy VM.
    cluster.server("s0").host_vm(busy_vm("wanderer", level=0.9))
    migrate_vm(sim, "wanderer", "s1", start_time_s=600.0)

    print("== running; monitor snapshots every 5 simulated minutes ==")
    for window in range(6):
        sim.run(300.0)
        forecasts = monitor.forecast_all()
        line = ", ".join(f"{k}→{v:5.1f}°C" for k, v in sorted(forecasts.items()))
        print(f"  t={sim.time_s:6.0f}s  forecast(+60s): {line}")

    print("\n== audit: realized forecast error per server ==")
    for name in sorted(monitor.logs):
        log = monitor.logs[name]
        print(
            f"  {name}: {len(log.forecasts)} forecasts, "
            f"{len(log.retargets)} retargets, realized MSE "
            f"{log.realized_mse():.3f}"
        )

    hot = monitor.predicted_hotspots(threshold_c=70.0)
    if hot:
        print(f"\n== predicted hotspots: {hot} — scoring moves off {hot[0]} ==")
        moves = enumerate_evictions(cluster, [hot[0]])
        scores = WhatIfScorer(predictor).score_moves(cluster, moves, environment_c=22.0)
        if not scores:
            print(f"  no feasible destination for any VM on {hot[0]}")
            return
        best = min(scores, key=lambda score: score.predicted_peak_c)
        verdict = "clears" if best.predicted_source_c <= 75.0 else "does not clear"
        print(
            f"  best of {len(scores)} moves: {best.move.vm_name} from "
            f"{best.move.source} to {best.move.destination}: predicted "
            f"{best.predicted_source_c:.1f} °C / "
            f"{best.predicted_destination_c:.1f} °C after the move "
            f"({verdict} 75 °C)"
        )
    else:
        print("\nno predicted hotspots at 70 °C.")


if __name__ == "__main__":
    main()
