"""Bit-identity pins for the per-server thermal plant.

``ServerThermalModel`` is the reference the fleet engine is checked
against, and the stable temperatures it reports are the ground truth the
paper's ψ_stable estimates. These tests pin its exact floating-point
output (``float.hex`` of every value, hashed) so any rewrite of the
plant's arithmetic must reproduce the same bits, not merely close values:

* ``steady_state_cpu_temperature`` over every catalog SKU × utilization
  × ambient × fan bank;
* a 2000-step trajectory of an unbound plant with a mid-run fan change;
* a 2000-step trajectory of plants bound to a cluster's ``FleetState``
  on the per-server reference body, with a mid-run fan retune.
"""

import hashlib

from repro.datacenter.cluster import Cluster
from repro.datacenter.events import FunctionEvent
from repro.datacenter.server import Server
from repro.datacenter.simulation import DatacenterSimulation
from repro.datacenter.vm import Vm, VmSpec
from repro.datacenter.workload import ConstantTask, RampTask
from repro.rng import RngFactory
from repro.scenarios.catalog import default_catalog
from repro.thermal.fan import FanBank

UTILIZATIONS = (0.0, 0.3, 0.7, 1.0)
AMBIENTS_C = (18.0, 22.0, 27.5)
FAN_BANKS = (FanBank(count=2, speed=0.5), FanBank(count=8, speed=1.0))
N_STEPS = 2000


def _digest(values) -> str:
    text = "\n".join(float(v).hex() for v in values)
    return hashlib.sha256(text.encode()).hexdigest()


def _catalog_server(sku: str, name: str, fans: FanBank | None = None) -> Server:
    hw = default_catalog().hardware_type(sku)
    if fans is None:
        return Server(hw.server_spec(name))
    return Server(hw.server_spec(name, fan_count=fans.count, fan_speed=fans.speed))


def test_steady_state_pinned():
    values = []
    for hw in default_catalog().hardware:
        for fans in FAN_BANKS:
            plant = _catalog_server(hw.name, "pin", fans).thermal
            for u in UTILIZATIONS:
                for ambient in AMBIENTS_C:
                    values.append(plant.steady_state_cpu_temperature(u, ambient))
    assert len(values) == 5 * 2 * 4 * 3
    assert _digest(values) == (
        "a083543ee586e08d04e318ee127eba43e67e501e9b973c8e471651cb5203e795"
    )


def test_unbound_trajectory_pinned():
    plant = _catalog_server("stress", "pin").thermal
    assert plant._fs is None
    values = []
    for k in range(N_STEPS):
        if k == N_STEPS // 2:
            plant.set_fans(FanBank(count=6, speed=0.9))
        # Utilization sweeps past 1.0 so the power model's clamp is hit.
        utilization = ((k * 37) % 120) / 100.0
        ambient = 20.0 + (k % 50) * 0.1
        plant.step(1.0, utilization, ambient)
        values.append(plant.cpu_temperature_c)
        values.append(plant.case_temperature_c)
    values.append(plant.time_s)
    assert _digest(values) == (
        "fb07241073efb219bc70812d5316a319c0c875c391eb2eac431a2d150216e927"
    )


def test_bound_reference_trajectory_pinned():
    cluster = Cluster("pin")
    skus = ("stress", "commodity-8", "commodity-32")
    for i, sku in enumerate(skus):
        server = _catalog_server(sku, f"s{i}")
        server.host_vm(
            Vm(VmSpec(name=f"c{i}", vcpus=4, memory_gb=8.0,
                      tasks=(ConstantTask(level=0.6),)))
        )
        server.host_vm(
            Vm(VmSpec(name=f"r{i}", vcpus=4, memory_gb=8.0,
                      tasks=(RampTask(start_level=0.1, end_level=0.9,
                                      ramp_s=900.0),)))
        )
        cluster.add_server(server)
    sim = DatacenterSimulation(
        cluster=cluster, rng=RngFactory(7).fork("sim"), use_fleet_engine=False
    )
    for server in cluster.servers:
        assert server.thermal._fs is cluster.fleet_state
    sim.schedule(
        FunctionEvent(1000.0, lambda s: s.cluster.server("s0").set_fan_speed(1.0))
    )
    sim.schedule(
        FunctionEvent(1400.0, lambda s: s.cluster.server("s1").set_fan_count(5))
    )
    values = []

    def probe(s, _t):
        for server in s.cluster.servers:
            values.append(server.thermal.cpu_temperature_c)
            values.append(server.thermal.case_temperature_c)

    sim.add_probe(probe)
    sim.run(float(N_STEPS))
    assert len(values) == N_STEPS * 2 * len(skus)
    values.extend(server.thermal.time_s for server in cluster.servers)
    assert _digest(values) == (
        "a81859e83e666c069cbe525b74363a4aba78c3198fa8e740d0efe9c9a148c741"
    )
