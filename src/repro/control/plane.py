"""The closed-loop fleet thermal control plane.

:class:`ControlPlane` runs the five-stage loop inside a
:class:`~repro.datacenter.simulation.DatacenterSimulation` on a control
interval (an interval probe, so the loop pays nothing on ordinary
steps):

1. **predict** — snapshot the whole cluster's Δ_gap-ahead forecasts from
   the :class:`~repro.serving.fleet.PredictionFleet`, and read the
   step's measured columns (utilization and true CPU temperature per
   fleet-state slot, :class:`~repro.datacenter.simulation.StepColumns`);
2. **detect** — :meth:`~repro.management.hotspot.HotspotDetector.detect_fleet`
   over the forecast array (and over the measured temperature column,
   for the ledger's ground truth); names are built only for hotspots;
3. **plan** — the configured
   :class:`~repro.control.policies.MitigationPolicy` proposes ranked
   moves, scoring every candidate in one batched what-if call;
4. **act** — admissible moves become
   :class:`~repro.datacenter.migration.MigrationStartEvent`/
   ``MigrationCompleteEvent`` pairs in the simulation's event queue,
   subject to a per-interval budget, per-server and per-VM cooldowns,
   and capacity reservations for migrations still in flight — the
   anti-thrash guards;
5. **account** — one matured-error pass
   (:func:`~repro.control.ledger.matured_forecast_errors`) over every
   tracked server; the :class:`~repro.control.ledger.ControlLedger`
   gets one row (hotspot counts, moves, the pass's act-time forecast
   error) and the interval's IT power (from the utilization column) and
   cooling energy through the CRAC COP model;
6. **lifecycle** (optional) — a
   :class:`~repro.lifecycle.manager.ModelLifecycle` watches per-class
   calibration drift and, when a class's γ saturates for long enough,
   retrains it from live telemetry and atomically swaps the new model
   version into the registry; its drift monitor aggregates the same
   matured-error pass per class. Constructed without one (the default),
   this stage does not exist and the loop is byte-for-byte the
   five-stage loop.

Run with ``policy=None`` the plane is a pure observer — the *no-control
baseline* every mitigation run is compared against, with an identical
ledger.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.control.ledger import ControlLedger
# The account pass is bound under this name so per-layer profiles
# (``perfbench/layers.py``: ``control.account``) keep timing it.
from repro.control.ledger import matured_forecast_errors as forecast_error_at
from repro.control.policies import ControlView, MitigationPolicy
from repro.datacenter.migration import migrate_vm
from repro.datacenter.vm import VmState
from repro.errors import ConfigurationError, SimulationError
from repro.management.energy import CoolingModel
from repro.management.hotspot import HotspotDetector
from repro.management.whatif import MoveScore, WhatIfScorer
from repro.serving.fleet import PredictionFleet


@dataclass(frozen=True)
class ControlPlaneConfig:
    """Knobs of the closed loop's act stage."""

    #: Seconds between control-loop evaluations.
    interval_s: float = 60.0
    #: Maximum migrations issued per interval (actuation budget).
    max_moves_per_interval: int = 4
    #: Seconds a server (source or destination) rests after a move is issued.
    server_cooldown_s: float = 180.0
    #: Seconds a migrated VM rests before it may be moved again.
    vm_cooldown_s: float = 600.0
    #: Migration link model handed to the pre-copy planner.
    bandwidth_gbps: float = 10.0
    dirty_rate_gbps: float = 1.0
    #: CRAC supply temperature for the energy account's COP.
    supply_temperature_c: float = 15.0

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise ConfigurationError(
                f"interval_s must be > 0, got {self.interval_s}"
            )
        if self.max_moves_per_interval < 0:
            raise ConfigurationError(
                "max_moves_per_interval must be >= 0, got "
                f"{self.max_moves_per_interval}"
            )
        if self.server_cooldown_s < 0 or self.vm_cooldown_s < 0:
            raise ConfigurationError("cooldowns must be >= 0")


class ControlPlane:
    """Predict → detect → plan → act → account, once per control interval.

    Parameters
    ----------
    fleet:
        The online prediction service tracking the cluster.
    policy:
        The mitigation policy; ``None`` observes and accounts without
        ever acting (the no-control baseline).
    detector:
        Hotspot threshold shared by detection and the ledger.
    scorer:
        Batched what-if scorer for the policy (required with a policy).
    config:
        Act-stage knobs (interval, budget, cooldowns, link model).
    cooling:
        CRAC cooling model for the energy account.
    lifecycle:
        Optional :class:`~repro.lifecycle.manager.ModelLifecycle` run as
        the sixth stage each interval; ``None`` keeps the historical
        five-stage loop.
    """

    def __init__(
        self,
        fleet: PredictionFleet,
        policy: MitigationPolicy | None = None,
        detector: HotspotDetector | None = None,
        scorer: WhatIfScorer | None = None,
        config: ControlPlaneConfig | None = None,
        cooling: CoolingModel | None = None,
        lifecycle=None,
    ) -> None:
        if policy is not None and scorer is None:
            raise ConfigurationError(
                "a ControlPlane with a policy needs a WhatIfScorer"
            )
        self.fleet = fleet
        self.policy = policy
        self.detector = detector or HotspotDetector()
        self.scorer = scorer
        self.lifecycle = lifecycle
        self.config = config or ControlPlaneConfig()
        self.ledger = ControlLedger(
            interval_s=self.config.interval_s,
            cooling=cooling,
            supply_temperature_c=self.config.supply_temperature_c,
        )
        #: vm_name → (destination, memory_gb, vcpus, release_time_s) for
        #: issued moves whose completion has not yet been observed.
        self._in_flight: dict[str, tuple[str, float, int, float]] = {}
        self._server_rest_until: dict[str, float] = {}
        self._vm_rest_until: dict[str, float] = {}

    # -- wiring --------------------------------------------------------------

    def attach(self, sim) -> None:
        """Register the loop as an interval probe on a simulation.

        Attach *after* the :class:`~repro.serving.fleet.FleetPredictionProbe`
        so each control tick sees forecasts that include the current
        step's sensor samples.
        """
        sim.add_probe(self._on_step, interval_s=self.config.interval_s)

    # -- the loop ------------------------------------------------------------

    def _on_step(self, sim, time_s: float) -> None:
        if not sim.recording:
            return  # warm-up: no telemetry, no forecasts, nothing to do
        cluster = sim.cluster
        # Completion can only have happened if the *simulation* clock
        # passed the move's expected finish; the probe time is the same
        # in live runs but may lead it in manual ticks.
        self._purge_in_flight(cluster, sim.time_s)

        # 1. predict — one consistent snapshot of the fleet's forecasts,
        # and the step's measured columns in fleet-state slot order.
        snapshot = self.fleet.forecast_snapshot()
        utilization, measured_c = _step_columns(sim, time_s)
        names = cluster.fleet_state.server_names

        # 2. detect — forecast hotspots drive planning, measured ones
        # are the ledger's ground truth. NaN (unforecast) never flags.
        predicted_spots = self.detector.detect_fleet(
            snapshot.names, snapshot.predicted_c
        )
        measured_spots = self.detector.detect_fleet(names, measured_c)

        # 3. plan.
        planned: list[MoveScore] = []
        if self.policy is not None:
            view = ControlView(
                time_s=time_s,
                cluster=cluster,
                snapshot=snapshot,
                measured_c=dict(zip(names, measured_c.tolist())),
                detector=self.detector,
                scorer=self.scorer,
                environment_c=sim.environment.temperature(time_s),
                resting_servers=frozenset(
                    name
                    for name, until in self._server_rest_until.items()
                    if time_s < until
                ),
                resting_vms=frozenset(
                    name
                    for name, until in self._vm_rest_until.items()
                    if time_s < until
                )
                | frozenset(self._in_flight),
            )
            planned = self.policy.plan(view)

        # 4. act — budget, cooldowns, and capacity reservations.
        issued = 0
        for score in planned:
            if issued >= self.config.max_moves_per_interval:
                break
            if self._try_issue(sim, score, time_s):
                issued += 1

        # 5. account — one matured-error pass feeds the ledger row and
        # the lifecycle's drift monitor.
        errors = forecast_error_at(sim.telemetry, snapshot.names, time_s)
        error_c, scored = errors.mean()
        it_power_w = sum(
            server.thermal.power_model.power(u)
            for server, u in zip(cluster.servers, utilization.tolist())
        )
        self.ledger.record_interval(
            time_s=time_s,
            n_tracked=snapshot.n_servers,
            predicted_hotspot_names=[s.server_name for s in predicted_spots],
            measured_hotspot_names=[s.server_name for s in measured_spots],
            moves_planned=len(planned),
            moves_issued=issued,
            moves_deferred=len(planned) - issued,
            forecast_error_c=error_c,
            forecasts_scored=scored,
            it_power_w=it_power_w,
        )
        if issued:
            sim.log(
                time_s,
                f"control: {len(predicted_spots)} predicted hotspots, "
                f"{issued}/{len(planned)} mitigations issued",
            )

        # 6. lifecycle (optional) — drift detection and, when warranted,
        # a retrain → atomic-swap round. Runs last so retraining sees
        # this interval's accounting and never delays actuation.
        if self.lifecycle is not None:
            round_ = self.lifecycle.step(sim, time_s, self.fleet, errors)
            if round_ is not None and round_.n_retrained:
                sim.log(
                    time_s,
                    "lifecycle: retrained "
                    f"{round_.n_retrained} class models "
                    f"({', '.join(round_.keys)})",
                )

    # -- act-stage guards ----------------------------------------------------

    def _purge_in_flight(self, cluster, now_s: float) -> None:
        """Drop reservations for migrations that have completed.

        A reservation is held while its VM is MIGRATING *or* until the
        move's expected completion time — an issued `MigrationStartEvent`
        that has not fired yet leaves the VM RUNNING, but its capacity
        claim on the destination is already real.
        """
        done = []
        for vm_name, (_, _, _, release_s) in self._in_flight.items():
            try:
                vm, _ = cluster.find_vm(vm_name)
            except SimulationError:  # VM left the cluster entirely
                done.append(vm_name)
                continue
            if vm.state is not VmState.MIGRATING and now_s + 1e-9 >= release_s:
                done.append(vm_name)
        for vm_name in done:
            del self._in_flight[vm_name]

    def _reserved(self, destination: str) -> tuple[float, int]:
        """(memory_gb, vcpus) already committed to in-flight arrivals."""
        memory = 0.0
        vcpus = 0
        for dest, mem, vc, _ in self._in_flight.values():
            if dest == destination:
                memory += mem
                vcpus += vc
        return memory, vcpus

    def _destination_can_accept(self, destination, vm) -> bool:
        """``can_host`` with in-flight arrivals counted against capacity."""
        reserved_mem, reserved_vcpus = self._reserved(destination.name)
        return destination.can_host(
            vm, reserved_memory_gb=reserved_mem, reserved_vcpus=reserved_vcpus
        )

    def _try_issue(self, sim, score: MoveScore, time_s: float) -> bool:
        move = score.move
        source = sim.cluster.server(move.source)
        vm = source.vms.get(move.vm_name)
        if vm is None or vm.state is not VmState.RUNNING:
            return False
        if time_s < self._vm_rest_until.get(move.vm_name, 0.0):
            return False
        if time_s < self._server_rest_until.get(move.source, 0.0):
            return False
        if time_s < self._server_rest_until.get(move.destination, 0.0):
            return False
        destination = sim.cluster.server(move.destination)
        if not self._destination_can_accept(destination, vm):
            return False
        plan = migrate_vm(
            sim,
            vm_name=move.vm_name,
            destination=move.destination,
            start_time_s=time_s,
            bandwidth_gbps=self.config.bandwidth_gbps,
            dirty_rate_gbps=self.config.dirty_rate_gbps,
        )
        self._in_flight[move.vm_name] = (
            move.destination,
            vm.spec.memory_gb,
            vm.spec.vcpus,
            time_s + plan.duration_s,
        )
        rest = time_s + self.config.server_cooldown_s
        self._server_rest_until[move.source] = rest
        self._server_rest_until[move.destination] = rest
        self._vm_rest_until[move.vm_name] = time_s + self.config.vm_cooldown_s
        return True


def _step_columns(sim, time_s: float):
    """(utilization, true CPU temperature) per fleet-state slot.

    The columns the simulation published for its latest step; a tick
    outside a run (before the first step) derives them from the server
    objects at ``time_s``.
    """
    columns = sim.step_columns
    if columns is not None:
        return columns.utilization, columns.cpu_c
    servers = sim.cluster.servers
    return (
        np.array([server.current_load(time_s).utilization for server in servers]),
        np.array([server.thermal.cpu_temperature_c for server in servers]),
    )
