"""Extension benchmark: prediction-driven thermal-aware placement.

The paper's introduction motivates temperature prediction as the basis of
proactive thermal management — "minimizing temperature distribution
disparity ... to reduce the probability of hotspot occurrence". This
benchmark closes that loop: place an arrival stream of VMs with (a)
first-fit packing, (b) load-spreading worst-fit, and (c) our
prediction-driven scheduler, then compare peak temperature, spread,
hotspots, and estimated cooling power.
"""

from repro.datacenter.cluster import Cluster
from repro.datacenter.scheduler import FirstFitScheduler, WorstFitScheduler
from repro.datacenter.server import Server
from repro.datacenter.simulation import DatacenterSimulation
from repro.experiments.reporting import ascii_table
from repro.management.energy import CoolingModel
from repro.management.hotspot import HotspotDetector
from repro.management.thermal_aware import ThermalAwareScheduler
from repro.rng import RngFactory
from repro.thermal.environment import ConstantEnvironment
from tests.conftest import make_server_spec, make_vm

from benchmarks.reporting import record_table

N_SERVERS = 8
N_VMS = 28


def arrival_stream():
    vms = []
    for i in range(N_VMS):
        level = 0.55 + 0.4 * ((i * 7) % 10) / 10.0
        vms.append(make_vm(f"vm-{i}", vcpus=4, memory_gb=4.0, level=level, n_tasks=4))
    return vms


def run_policy(scheduler):
    cluster = Cluster("ext")
    for i in range(N_SERVERS):
        cluster.add_server(Server(make_server_spec(name=f"s{i}")))
    sim = DatacenterSimulation(
        cluster=cluster, environment=ConstantEnvironment(22.0), rng=RngFactory(2)
    )
    sim.equalize_temperatures()
    for vm in arrival_stream():
        scheduler.place(vm, cluster).host_vm(vm)
    sim.run(1500.0)
    temps = {s.name: s.thermal.cpu_temperature_c for s in cluster.servers}
    it_power = sum(
        s.thermal.power_model.power(
            sim.telemetry.for_server(s.name).utilization.mean()
        )
        for s in cluster.servers
    )
    cooling = CoolingModel().cooling_power_w(it_power, supply_temperature_c=15.0)
    return {
        "peak": max(temps.values()),
        "spread": max(temps.values()) - min(temps.values()),
        "hotspots": len(HotspotDetector(threshold_c=75.0).detect(temps)),
        "cooling_w": cooling,
    }


def test_extension_thermal_aware_placement(benchmark, stable_model):
    def run():
        return {
            "first-fit (packing)": run_policy(FirstFitScheduler()),
            "worst-fit (spreading)": run_policy(WorstFitScheduler()),
            "thermal-aware (ours)": run_policy(
                ThermalAwareScheduler(
                    stable_model,
                    environment_c=22.0,
                    detector=HotspotDetector(threshold_c=75.0),
                )
            ),
        }

    outcomes = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [
        (name, o["peak"], o["spread"], o["hotspots"], o["cooling_w"])
        for name, o in outcomes.items()
    ]
    record_table(
        "Extension: thermal-aware placement (8 servers, 28 VMs)",
        ascii_table(["policy", "peak °C", "spread °C", "hotspots", "cooling W"], rows),
    )

    aware = outcomes["thermal-aware (ours)"]
    packed = outcomes["first-fit (packing)"]
    # The prediction-driven policy must beat naive packing on every
    # thermal axis.
    assert aware["peak"] < packed["peak"] - 3.0
    assert aware["spread"] < packed["spread"]
    assert aware["hotspots"] <= packed["hotspots"]
    # And be at least competitive with blind spreading on peak.
    spread_policy = outcomes["worst-fit (spreading)"]
    assert aware["peak"] <= spread_policy["peak"] + 1.0
