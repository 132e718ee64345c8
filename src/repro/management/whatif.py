"""Shared batched what-if scoring for migration and placement policies.

Every prediction-driven management decision asks the stable model the
same two questions: *"how hot would this host be without VM x?"* and
*"how hot would this host be with VM x added?"*. The
:class:`~repro.management.thermal_aware.ThermalAwareScheduler` and the
closed-loop control plane in :mod:`repro.control` both ask them here:

* :func:`record_for_host` — the reference hypothetical-record builder
  (current VM set, optionally minus ``without_vm`` and/or plus
  ``extra_vm``), the Eq. (2) input the paper's model reads;
* :class:`CandidateMove` / :class:`MoveScore` — one (VM, source,
  destination) candidate and its scored outcome;
* :func:`enumerate_evictions` — all feasible moves off a set of
  source servers;
* :class:`WhatIfScorer` — scores *all* candidate moves in one batched
  SVR call. The candidates never become records: the scorer dedups
  them into (server slot, removed VM slot, added VM slot) triples —
  "source without VM x" is shared by every destination considered for
  x, "destination with VM x" by every VM of x's Eq. (2) flavor — and
  :func:`repro.core.features.feature_rows` builds their feature rows
  straight from the cluster's
  :class:`~repro.datacenter.fleetstate.FleetState` columns. The matrix
  goes through ``predict_features`` — of the one shared predictor, or
  of each host's :class:`~repro.serving.registry.ModelEntry`, resolved
  once per host.

Each array row is bitwise equal to ``FeatureExtractor.extract`` of the
matching :func:`record_for_host` record, and ``EpsilonSVR.predict`` is
bitwise batch-composition independent (see ``docs/architecture.md``),
so the batched scores are **bit-identical** to looping
``predict``/``predict_many`` over records per candidate — the parity
contract tested in ``tests/management/test_whatif.py`` and benchmarked
(≥5× at 128 servers) in ``benchmarks/test_control_plane.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from repro.core.features import feature_rows
from repro.core.records import ExperimentRecord, VmRecord
from repro.datacenter.cluster import Cluster
from repro.datacenter.fleetstate import FleetState
from repro.datacenter.server import Server
from repro.datacenter.vm import Vm
from repro.errors import ConfigurationError, SchedulingError
from repro.serving.signatures import vm_record_from_spec


def record_for_host(
    server: Server,
    environment_c: float,
    extra_vm: Vm | None = None,
    without_vm: str | None = None,
) -> ExperimentRecord:
    """Eq. (2) input record for a host's current or hypothetical VM set.

    ``extra_vm`` appends a VM that is not (yet) on the host — placement
    and migration-destination what-ifs; ``without_vm`` drops a hosted VM
    by name — migration-source what-ifs. Both may be combined (swap
    what-ifs).
    """
    if without_vm is not None and without_vm not in server.vms:
        raise SchedulingError(
            f"cannot remove VM {without_vm!r}: not hosted on {server.name!r}"
        )
    vm_records = tuple(
        _vm_record(vm)
        for name, vm in server.vms.items()
        if name != without_vm
    ) + ((_vm_record(extra_vm),) if extra_vm is not None else ())
    capacity = server.spec.capacity
    metadata: dict = {"server": server.name}
    if extra_vm is not None:
        metadata["hypothetical"] = True
    if without_vm is not None:
        metadata["hypothetical_removal"] = without_vm
    return ExperimentRecord(
        theta_cpu_cores=capacity.cpu_cores,
        theta_cpu_ghz=capacity.total_ghz,
        theta_memory_gb=capacity.memory_gb,
        theta_fan_count=server.fans.count,
        theta_fan_speed=server.fans.speed,
        delta_env_c=environment_c,
        vms=vm_records,
        metadata=metadata,
    )


def _vm_record(vm: Vm) -> VmRecord:
    return vm_record_from_spec(vm.spec)


def _require_finite(environment_c: float) -> None:
    if not math.isfinite(environment_c):
        raise ConfigurationError(
            f"environment_c must be finite, got {environment_c!r}"
        )


@dataclass(frozen=True)
class CandidateMove:
    """One candidate live migration: move ``vm_name`` source → destination."""

    vm_name: str
    source: str
    destination: str

    def __post_init__(self) -> None:
        if self.source == self.destination:
            raise ConfigurationError(
                f"move of {self.vm_name!r}: source and destination are both "
                f"{self.source!r}"
            )


@dataclass(frozen=True)
class MoveScore:
    """A candidate move with its predicted post-move host temperatures."""

    move: CandidateMove
    predicted_source_c: float
    predicted_destination_c: float

    @property
    def predicted_peak_c(self) -> float:
        """Peak of the two affected hosts after the move."""
        return max(self.predicted_source_c, self.predicted_destination_c)


def enumerate_evictions(
    cluster: Cluster,
    sources: Iterable[str],
    destinations: Iterable[str] | None = None,
) -> list[CandidateMove]:
    """Every feasible (VM, destination) move off each source server.

    ``destinations`` restricts the candidate hosts (default: every other
    cluster member); feasibility is the destination's
    :meth:`~repro.datacenter.server.Server.can_host` admission check.
    Moves come back in deterministic order: sources as given, VMs in
    hosting order, destinations in cluster order.
    """
    source_names = list(sources)
    if destinations is None:
        candidates = cluster.servers
    else:
        candidates = [cluster.server(name) for name in destinations]
    moves: list[CandidateMove] = []
    for source_name in source_names:
        source = cluster.server(source_name)
        for vm_name, vm in source.vms.items():
            for destination in candidates:
                if destination.name == source_name or not destination.can_host(vm):
                    continue
                moves.append(
                    CandidateMove(
                        vm_name=vm_name,
                        source=source_name,
                        destination=destination.name,
                    )
                )
    return moves


#: Maps a server to its model registry key (per-class model selection).
KeyFn = Callable[[Server], str]


class WhatIfScorer:
    """Batched what-if evaluation of candidate moves against ψ_stable.

    Exactly one model source must be supplied:

    ``predictor``
        Anything with ``predict_features(x) -> array`` over
        :class:`~repro.core.features.FeatureExtractor` rows (a trained
        :class:`~repro.core.stable.StableTemperaturePredictor`) — one
        shared model for the whole cluster.
    ``registry`` (+ optional ``key_fn``)
        A :class:`~repro.serving.registry.ModelRegistry`; each
        hypothetical row is scored by the model serving the host it
        describes (``key_fn(server)``, default the registry's
        ``"default"`` entry), resolved once per host per call.
    """

    def __init__(
        self,
        predictor=None,
        *,
        registry=None,
        key_fn: KeyFn | None = None,
    ) -> None:
        if (predictor is None) == (registry is None):
            raise ConfigurationError(
                "WhatIfScorer needs exactly one of predictor / registry"
            )
        # reprolint: waive R002 -- live view by contract: the scorer
        # must see registry hot-swaps immediately (control plane reads
        # the *current* version each interval); snapshotting here would
        # reintroduce stale-model serving.
        self.predictor = predictor
        self.registry = registry
        self.key_fn = key_fn

    def _predict(
        self, x: np.ndarray, server_slots: np.ndarray, state: FleetState
    ) -> np.ndarray:
        if self.predictor is not None:
            return np.atleast_1d(
                np.asarray(self.predictor.predict_features(x), dtype=float)
            )
        from repro.serving.registry import DEFAULT_KEY

        key_fn = self.key_fn or (lambda server: DEFAULT_KEY)
        # Resolve every host before any model runs, so an unknown key
        # raises without partial work.
        hosts, host_of_row = np.unique(server_slots, return_inverse=True)
        entries = {}
        entry_of_host = []
        for slot in hosts.tolist():
            entry = self.registry.resolve(key_fn(state.server_objects[slot]))
            entries[id(entry)] = entry
            entry_of_host.append(id(entry))
        entry_of_row = np.array(entry_of_host)[host_of_row]
        out = np.empty(x.shape[0], dtype=float)
        for entry_id, entry in entries.items():
            rows = np.flatnonzero(entry_of_row == entry_id)
            out[rows] = entry.predict_features(x[rows])
        return out

    def score_moves(
        self,
        cluster: Cluster,
        moves: list[CandidateMove],
        environment_c: float,
    ) -> list[MoveScore]:
        """Score every candidate move in one batched ψ_stable call.

        Builds each *unique* hypothetical feature row once and evaluates
        the whole batch through a single kernel pass. "Source minus VM"
        is shared across that VM's destinations, and "destination plus
        VM" is keyed by the moved VM's Eq. (2) contributions (vCPUs,
        memory, nominal utilization, task-kind histogram) rather than its
        name — fleets run many identical VM flavors, and identical rows
        are identical predictions, so the dedup cannot change a single
        bit. Scores come back indexed like ``moves``. A non-finite
        ``environment_c`` raises :class:`~repro.errors.ConfigurationError`.
        """
        _require_finite(environment_c)
        if not moves:
            return []
        state = cluster.fleet_state
        sources: list[int] = []
        destinations: list[int] = []
        moved_vms: list[int] = []
        for move in moves:
            source_server = cluster.server(move.source)
            vm = source_server.vms.get(move.vm_name)
            if vm is None:
                raise SchedulingError(
                    f"VM {move.vm_name!r} not on source {move.source!r}"
                )
            sources.append(source_server._slot)
            destinations.append(cluster.server(move.destination)._slot)
            moved_vms.append(vm._slot)
        source = np.array(sources, dtype=np.intp)
        destination = np.array(destinations, dtype=np.intp)
        moved = np.array(moved_vms, dtype=np.intp)

        # Moved VMs with equal Eq. (2) contributions share a flavor id.
        distinct, vm_of_move = np.unique(moved, return_inverse=True)
        _, flavor_of_vm = np.unique(
            np.column_stack([
                state.vm_vcpus_f[distinct],
                state.vm_memory_gb[distinct],
                state.vm_nominal_util[distinct],
                state.vm_unknown_kind[distinct],
                state.vm_task_kinds[distinct],
            ]),
            axis=0,
            return_inverse=True,
        )
        _, without_first, without_of_move = np.unique(
            source * state.n_vms + moved, return_index=True, return_inverse=True
        )
        _, with_first, with_of_move = np.unique(
            destination * distinct.shape[0] + flavor_of_vm[vm_of_move],
            return_index=True,
            return_inverse=True,
        )
        n_without = without_first.shape[0]
        n_with = with_first.shape[0]
        server_slots = np.concatenate(
            [source[without_first], destination[with_first]]
        )
        removed = np.concatenate(
            [moved[without_first], np.full(n_with, -1, dtype=np.intp)]
        )
        added = np.concatenate(
            [np.full(n_without, -1, dtype=np.intp), moved[with_first]]
        )
        x = feature_rows(state, server_slots, removed, added, environment_c)
        predicted = self._predict(x, server_slots, state)
        source_c = predicted[without_of_move].tolist()
        destination_c = predicted[n_without + with_of_move].tolist()
        return [
            MoveScore(
                move=move,
                predicted_source_c=source_c[i],
                predicted_destination_c=destination_c[i],
            )
            for i, move in enumerate(moves)
        ]

    def score_placements(
        self,
        servers: list[Server],
        vm: Vm,
        environment_c: float,
    ) -> np.ndarray:
        """Predicted ψ_stable of each host with ``vm`` hypothetically added.

        One batched call over all candidate hosts — the scheduler's
        placement question, shared with consolidation policies. The
        hosts must belong to one cluster; ``vm`` need not. A non-finite
        ``environment_c`` raises :class:`~repro.errors.ConfigurationError`.
        """
        _require_finite(environment_c)
        if not servers:
            return np.empty(0, dtype=float)
        state = servers[0]._fs
        if state is None or any(server._fs is not state for server in servers):
            raise ConfigurationError(
                "score_placements needs hosts registered in one cluster"
            )
        slots = np.array([server._slot for server in servers], dtype=np.intp)
        x = feature_rows(
            state,
            slots,
            np.full(slots.shape[0], -1, dtype=np.intp),
            np.full(slots.shape[0], state.n_vms, dtype=np.intp),
            environment_c,
            guests=(vm.spec,),
        )
        return self._predict(x, slots, state)
