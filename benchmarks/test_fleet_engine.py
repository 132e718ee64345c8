"""Fleet thermal engine benchmarks.

Documents the headline claim of the vectorized co-simulation path: at
128 servers the fleet engine advances the whole cluster ≥10× faster than
the seed per-server loop, with bit-identical thermal trajectories. Also
records raw plant-step throughput (engine vs. scalar plants) and the
large-scale scenario walltimes through the shared reporting hook
(``benchmarks/conftest.py``).
"""

import statistics
import time

import numpy as np

from benchmarks.conftest import record_table
from repro.datacenter.cluster import Cluster
from repro.datacenter.server import Server
from repro.datacenter.simulation import DatacenterSimulation
from repro.experiments.scenarios import (
    build_fleet_simulation,
    diurnal_fleet_scenario,
    migration_storm_scenario,
)
from repro.rng import RngFactory
from repro.thermal.fleet import FleetThermalEngine
from tests.conftest import make_server_spec, make_vm

N_SERVERS = 128
DURATION_S = 60.0
#: Each arm's time is the median of this many alternating repeats, so
#: one stall on a shared host cannot decide the speedup floor.
REPEATS = 5


def build_cosim(use_fleet: bool, n_servers: int = N_SERVERS) -> DatacenterSimulation:
    cluster = Cluster("bench")
    for i in range(n_servers):
        server = Server(make_server_spec(name=f"s{i}"))
        for j in range(4):
            server.host_vm(make_vm(f"vm-{i}-{j}", vcpus=2, level=0.6))
        cluster.add_server(server)
    return DatacenterSimulation(
        cluster=cluster, rng=RngFactory(1), use_fleet_engine=use_fleet
    )


def _timed_run(use_fleet: bool) -> tuple[float, DatacenterSimulation]:
    sim = build_cosim(use_fleet)
    start = time.perf_counter()
    sim.run(DURATION_S)
    return time.perf_counter() - start, sim


def test_fleet_engine_speedup_128_servers():
    """Acceptance: ≥10× co-simulation step throughput at 128 servers, with
    matching trajectories."""
    seed_times, fleet_times = [], []
    for _ in range(REPEATS):
        elapsed, seed_sim = _timed_run(False)
        seed_times.append(elapsed)
        elapsed, fleet_sim = _timed_run(True)
        fleet_times.append(elapsed)
    seed_elapsed = statistics.median(seed_times)
    fleet_elapsed = statistics.median(fleet_times)
    speedup = seed_elapsed / fleet_elapsed

    seed_temps = np.array(
        [s.thermal.cpu_temperature_c for s in seed_sim.cluster.servers]
    )
    fleet_temps = np.array(
        [s.thermal.cpu_temperature_c for s in fleet_sim.cluster.servers]
    )
    max_divergence = float(np.max(np.abs(seed_temps - fleet_temps)))

    steps = int(DURATION_S)
    rows = [
        f"{'path':<22}{'walltime':>12}{'server-steps/s':>18}",
        f"{'per-server loop':<22}{seed_elapsed * 1e3:>10.1f}ms"
        f"{N_SERVERS * steps / seed_elapsed:>18,.0f}",
        f"{'fleet engine':<22}{fleet_elapsed * 1e3:>10.1f}ms"
        f"{N_SERVERS * steps / fleet_elapsed:>18,.0f}",
        "",
        f"speedup: {speedup:.1f}x (acceptance: >= 10x, medians of {REPEATS} repeats)",
        f"max trajectory divergence: {max_divergence:.3g} degC (tolerance 1e-9)",
    ]
    record_table(
        f"fleet engine: co-simulation throughput ({N_SERVERS} servers)",
        "\n".join(rows),
    )

    assert max_divergence <= 1e-9
    assert speedup >= 10.0, f"fleet engine speedup {speedup:.1f}x below 10x"


def test_fleet_step_rate_128_servers(benchmark):
    """pytest-benchmark record of the fleet path (1 simulated minute)."""

    def run_minute():
        sim = build_cosim(True)
        sim.run(DURATION_S)
        return sim

    sim = benchmark(run_minute)
    assert sim.time_s == DURATION_S


def test_raw_engine_step_throughput(benchmark):
    """Plant-only: one vectorized step for 128 servers vs 128 scalar steps."""
    cluster = Cluster("plant")
    for i in range(N_SERVERS):
        cluster.add_server(Server(make_server_spec(name=f"s{i}")))
    engine = FleetThermalEngine(cluster.fleet_state)
    utilization = np.full(N_SERVERS, 0.7)

    def thousand_steps():
        for _ in range(1000):
            engine.step(1.0, utilization, 22.0)

    benchmark(thousand_steps)
    assert float(engine.cpu_temperatures()[0]) > 22.0


def test_scenario_walltimes_recorded():
    """Large-scale scenarios run end to end; walltimes are recorded."""
    diurnal = build_fleet_simulation(
        diurnal_fleet_scenario(n_servers=N_SERVERS, seed=90_000)
    )
    start = time.perf_counter()
    diurnal.run(600.0)
    diurnal_elapsed = time.perf_counter() - start

    storm = build_fleet_simulation(
        migration_storm_scenario(n_servers=64, seed=91_000)
    )
    start = time.perf_counter()
    storm.run(1200.0)
    storm_elapsed = time.perf_counter() - start

    migrated = sum(
        1
        for i in range(32)
        if f"migrant-{i:03d}" in storm.cluster.server(f"server-{i + 32:03d}").vms
    )
    rows = [
        f"{'scenario':<34}{'sim time':>10}{'walltime':>12}",
        f"{'diurnal fleet (128 servers)':<34}{'600 s':>10}"
        f"{diurnal_elapsed * 1e3:>10.0f}ms",
        f"{'migration storm (64 servers)':<34}{'1200 s':>10}"
        f"{storm_elapsed * 1e3:>10.0f}ms",
        "",
        f"storm migrations completed: {migrated}/32",
    ]
    record_table("fleet engine: large-scale scenario walltimes", "\n".join(rows))
    assert diurnal.time_s == 600.0
    assert migrated == 32
