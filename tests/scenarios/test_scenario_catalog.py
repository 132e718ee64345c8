"""Unit tests for the hardware/VM-type catalog."""

import pytest

from repro.errors import ScenarioSpecError
from repro.scenarios import default_catalog
from repro.scenarios.catalog import Catalog, HardwareType, VmType


class TestHardwareType:
    def test_server_spec_materializes_all_fields(self):
        hw = default_catalog().hardware_type("stress")
        spec = hw.server_spec("server-007")
        assert spec.name == "server-007"
        assert spec.capacity.cpu_cores == 16
        assert spec.capacity.ghz_per_core == 2.4
        assert spec.capacity.memory_gb == 64.0
        assert spec.fan_count == 4
        assert spec.fan_speed == 0.7
        assert spec.cpu_overcommit == 2.0

    def test_stress_sku_matches_hand_coded_stress_servers(self):
        # The stress fleets' servers are exactly the catalog SKU.
        from repro.experiments.scenarios import cooling_failure_scenario

        hand = cooling_failure_scenario(n_servers=2).server_specs[0]
        sku = default_catalog().hardware_type("stress").server_spec(hand.name)
        assert sku == hand

    def test_field_overrides(self):
        hw = default_catalog().hardware_type("commodity-8")
        spec = hw.server_spec("x", fan_count=6, fan_speed=0.5, cpu_overcommit=1.0)
        assert (spec.fan_count, spec.fan_speed, spec.cpu_overcommit) == (6, 0.5, 1.0)

    def test_vcpu_limit_honors_overcommit(self):
        spec = default_catalog().hardware_type("commodity-8").server_spec("x")
        assert spec.vcpu_limit == 8 * 2.0


class TestVmType:
    def test_flavor_families_present(self):
        names = default_catalog().vm_type_names()
        for flavor in ("c5.large", "c5.2xlarge", "r5.xlarge", "t3.micro"):
            assert flavor in names

    def test_vm_spec_materializes(self):
        flavor = default_catalog().vm_type("r5.large")
        vm = flavor.vm_spec("tenant-0")
        assert (vm.name, vm.vcpus, vm.memory_gb) == ("tenant-0", 2, 16.0)
        assert vm.tasks == ()


class TestLookupErrors:
    def test_unknown_hardware_lists_known_types(self):
        with pytest.raises(ScenarioSpecError) as err:
            default_catalog().hardware_type("m5.gonzo")
        assert "unknown catalog hardware type 'm5.gonzo'" in str(err.value)
        assert "stress" in str(err.value)

    def test_unknown_vm_type_lists_known_types(self):
        with pytest.raises(ScenarioSpecError) as err:
            default_catalog().vm_type("z9.huge")
        assert "unknown catalog VM type 'z9.huge'" in str(err.value)
        assert "c5.large" in str(err.value)

    def test_custom_catalog_lookup(self):
        catalog = Catalog(
            hardware=(HardwareType("lab", cpu_cores=4, ghz_per_core=2.0,
                                   memory_gb=16.0),),
            vm_types=(VmType("nano", vcpus=1, memory_gb=0.5),),
        )
        assert catalog.hardware_type("lab").cpu_cores == 4
        assert catalog.vm_type("nano").memory_gb == 0.5
        with pytest.raises(ScenarioSpecError):
            catalog.hardware_type("stress")
