"""Hardware and VM-type catalog for the declarative scenario layer.

Real clouds buy servers in SKU generations and sell VMs in named flavor
families; a scenario document should be able to say ``"type": "c5.xlarge"``
instead of re-listing vCPUs and memory. The catalog carries:

* **hardware types** — server SKUs (capacity + fan bank + overcommit),
  including the ``stress`` SKU of the library's control-plane stress
  scenarios;
* **VM types** — EC2-like flavors: compute-optimized ``c5.*``,
  memory-optimized ``r5.*``, and burstable ``t3.*`` sizes.

Lookups fail with a :class:`~repro.errors.ScenarioSpecError` that lists
the known keys, so a typo in a spec is a one-line fix rather than a
downstream crash.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datacenter.resources import ResourceCapacity
from repro.datacenter.server import ServerSpec
from repro.datacenter.vm import VmSpec
from repro.datacenter.workload import Task
from repro.errors import ScenarioSpecError


@dataclass(frozen=True)
class HardwareType:
    """One server SKU: capacity plus the fan bank it ships with."""

    name: str
    cpu_cores: int
    ghz_per_core: float
    memory_gb: float
    fan_count: int = 4
    fan_speed: float = 0.7
    cpu_overcommit: float = 2.0

    def server_spec(
        self,
        name: str,
        fan_count: int | None = None,
        fan_speed: float | None = None,
        cpu_overcommit: float | None = None,
    ) -> ServerSpec:
        """Materialize a :class:`ServerSpec` of this SKU (fields overridable)."""
        return ServerSpec(
            name=name,
            capacity=ResourceCapacity(
                cpu_cores=self.cpu_cores,
                ghz_per_core=self.ghz_per_core,
                memory_gb=self.memory_gb,
            ),
            fan_count=self.fan_count if fan_count is None else fan_count,
            fan_speed=self.fan_speed if fan_speed is None else fan_speed,
            cpu_overcommit=(
                self.cpu_overcommit if cpu_overcommit is None else cpu_overcommit
            ),
        )


@dataclass(frozen=True)
class VmType:
    """One VM flavor (vCPUs + memory); its tasks come from the spec."""

    name: str
    vcpus: int
    memory_gb: float

    def vm_spec(self, name: str, tasks: tuple[Task, ...] = ()) -> VmSpec:
        """Materialize a :class:`VmSpec` of this flavor."""
        return VmSpec(
            name=name, vcpus=self.vcpus, memory_gb=self.memory_gb, tasks=tasks
        )


@dataclass(frozen=True)
class Catalog:
    """Named hardware SKUs and VM flavors a scenario document can reference."""

    hardware: tuple[HardwareType, ...]
    vm_types: tuple[VmType, ...]

    def hardware_type(self, key: str) -> HardwareType:
        """Look up a server SKU by name."""
        for hw in self.hardware:
            if hw.name == key:
                return hw
        raise ScenarioSpecError(
            f"unknown catalog hardware type {key!r}; known types: "
            f"{', '.join(self.hardware_names())}"
        )

    def vm_type(self, key: str) -> VmType:
        """Look up a VM flavor by name."""
        for vm in self.vm_types:
            if vm.name == key:
                return vm
        raise ScenarioSpecError(
            f"unknown catalog VM type {key!r}; known types: "
            f"{', '.join(self.vm_type_names())}"
        )

    def hardware_names(self) -> list[str]:
        """All server SKU names, in declaration order."""
        return [hw.name for hw in self.hardware]

    def vm_type_names(self) -> list[str]:
        """All VM flavor names, in declaration order."""
        return [vm.name for vm in self.vm_types]


#: The ``stress`` SKU is the one commodity box (4 fans at 0.7) of the
#: library's control-plane stress scenarios (cooling failure, thermal
#: cascade, flash crowd). The ``commodity-*`` SKUs span the same discrete
#: option sets the randomized generators draw from.
_HARDWARE = (
    HardwareType("stress", cpu_cores=16, ghz_per_core=2.4, memory_gb=64.0,
                 fan_count=4, fan_speed=0.7),
    HardwareType("commodity-8", cpu_cores=8, ghz_per_core=2.0, memory_gb=64.0,
                 fan_count=2),
    HardwareType("commodity-16", cpu_cores=16, ghz_per_core=2.6,
                 memory_gb=128.0, fan_count=4),
    HardwareType("commodity-24", cpu_cores=24, ghz_per_core=2.6,
                 memory_gb=128.0, fan_count=6),
    HardwareType("commodity-32", cpu_cores=32, ghz_per_core=3.0,
                 memory_gb=256.0, fan_count=8),
)

#: EC2-like flavors: c5 compute (2 GiB/vCPU), r5 memory (8 GiB/vCPU),
#: t3 burstable small sizes.
_VM_TYPES = (
    VmType("c5.large", vcpus=2, memory_gb=4.0),
    VmType("c5.xlarge", vcpus=4, memory_gb=8.0),
    VmType("c5.2xlarge", vcpus=8, memory_gb=16.0),
    VmType("r5.large", vcpus=2, memory_gb=16.0),
    VmType("r5.xlarge", vcpus=4, memory_gb=32.0),
    VmType("r5.2xlarge", vcpus=8, memory_gb=64.0),
    VmType("t3.micro", vcpus=2, memory_gb=1.0),
    VmType("t3.small", vcpus=2, memory_gb=2.0),
    VmType("t3.medium", vcpus=2, memory_gb=4.0),
    VmType("t3.large", vcpus=2, memory_gb=8.0),
    VmType("t3.xlarge", vcpus=4, memory_gb=16.0),
)


def default_catalog() -> Catalog:
    """The built-in catalog (stress + commodity SKUs, c5/r5/t3 flavors)."""
    return Catalog(hardware=_HARDWARE, vm_types=_VM_TYPES)
