"""Cluster: a named collection of servers (optionally grouped in racks)."""

from __future__ import annotations

from repro.datacenter.fleetstate import FleetState
from repro.datacenter.server import Server
from repro.datacenter.vm import Vm
from repro.errors import ConfigurationError, SimulationError


class Cluster:
    """A set of servers managed together.

    Rack membership is tracked so thermal-management policies can reason
    about spatial locality (e.g. avoiding rack-level hotspots).

    The cluster owns a :class:`~repro.datacenter.fleetstate.FleetState`:
    every server added is registered into it (slot order = insertion
    order), turning the server/VM objects into views over contiguous
    arrays. A server belongs to at most one cluster: adding a server
    already bound to another cluster's state is an error.
    """

    def __init__(self, name: str = "cluster") -> None:
        if not name:
            raise ConfigurationError("cluster name must be non-empty")
        self.name = name
        self._servers: dict[str, Server] = {}
        self._racks: dict[str, list[str]] = {}
        self.fleet_state = FleetState()

    # -- membership ----------------------------------------------------------

    def add_server(self, server: Server, rack: str = "rack-0") -> None:
        """Add a server to the cluster under the given rack."""
        if server.name in self._servers:
            raise SimulationError(f"duplicate server name {server.name!r}")
        if server._fs is not None:
            raise SimulationError(
                f"server {server.name!r} already belongs to another cluster"
            )
        self._servers[server.name] = server
        self._racks.setdefault(rack, []).append(server.name)
        self.fleet_state.register_server(server)

    def server(self, name: str) -> Server:
        """Look up a server by name."""
        try:
            return self._servers[name]
        except KeyError:
            raise SimulationError(f"unknown server {name!r}") from None

    @property
    def servers(self) -> list[Server]:
        """All servers, in insertion order."""
        return list(self._servers.values())

    def racks(self) -> dict[str, list[str]]:
        """Rack name → server names."""
        return {rack: list(names) for rack, names in self._racks.items()}

    def rack_of(self, server_name: str) -> str:
        """Rack containing the given server."""
        for rack, names in self._racks.items():
            if server_name in names:
                return rack
        raise SimulationError(f"server {server_name!r} is not in any rack")

    # -- VM lookup ------------------------------------------------------------

    def find_vm(self, vm_name: str) -> tuple[Vm, Server]:
        """Locate a VM and its current host.

        O(1) through the fleet-state ownership index when VM names are
        unique; otherwise falls back to the insertion-order scan (same
        result by construction — names are unique within a server dict).
        """
        fs = self.fleet_state
        if fs.vm_names_unique:
            slot = fs.vm_index.get(vm_name)
            if slot is not None:
                server_slot = int(fs.vm_server[slot])
                if server_slot >= 0:
                    return fs.vm_objects[slot], fs.server_objects[server_slot]
            raise SimulationError(
                f"VM {vm_name!r} not found in cluster {self.name!r}"
            )
        for server in self._servers.values():
            if vm_name in server.vms:
                return server.vms[vm_name], server
        raise SimulationError(f"VM {vm_name!r} not found in cluster {self.name!r}")

    def all_vms(self) -> list[Vm]:
        """Every VM hosted anywhere in the cluster."""
        return [vm for server in self._servers.values() for vm in server.vms.values()]

    # -- aggregate statistics ---------------------------------------------------

    def total_memory_gb(self) -> float:
        """Aggregate installed memory."""
        return sum(s.spec.capacity.memory_gb for s in self._servers.values())

    def total_cores(self) -> int:
        """Aggregate physical cores."""
        return sum(s.spec.capacity.cpu_cores for s in self._servers.values())

    def peak_cpu_temperature_c(self) -> float:
        """Hottest true CPU temperature across servers."""
        if not self._servers:
            raise SimulationError("cluster has no servers")
        return max(s.thermal.cpu_temperature_c for s in self._servers.values())

    def temperature_spread_c(self) -> float:
        """Max − min CPU temperature — the disparity thermal management
        tries to minimize (paper §I)."""
        temps = [s.thermal.cpu_temperature_c for s in self._servers.values()]
        if not temps:
            raise SimulationError("cluster has no servers")
        return max(temps) - min(temps)

    def __len__(self) -> int:
        return len(self._servers)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Cluster(name={self.name!r}, servers={len(self._servers)})"
