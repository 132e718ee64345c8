"""Mitigation policies — the *plan* stage of the control loop.

A policy looks at one :class:`ControlView` (the cluster, the fleet's
Δ_gap-ahead forecast snapshot, the measured temperatures, and the shared
batched what-if scorer) and proposes a ranked list of
:class:`~repro.management.whatif.MoveScore` migrations. Policies only
*propose*: budgets, cooldowns, and capacity reservations are enforced by
the :class:`~repro.control.plane.ControlPlane` act stage, so policies
stay pure functions of the view and are trivially testable.

Three built-in policies cover the classic trade-off triangle:

* :class:`ReactiveEvictionPolicy` — threshold eviction on *measured*
  temperatures: the no-prediction baseline (acts only after a server is
  already hot).
* :class:`ProactiveForecastPolicy` — the paper's payoff: act on the
  Δ_gap-ahead *forecast*, with a safety margin, before the sensor ever
  crosses the limit.
* :class:`EnergyAwareConsolidationPolicy` — during thermal calm, drain
  nearly-empty hosts onto warm-but-safe ones so the freed machines can
  be parked (cooling follows the COP curve: fewer, warmer hosts beat
  many cold ones).

Every policy plans on slot arrays of the cluster's
:class:`~repro.datacenter.fleetstate.FleetState`: candidates come from
:func:`~repro.management.whatif.eviction_slots` as (source, VM,
destination) arrays, the cooldown / in-flight / ``RUNNING`` vetoes are
masks over them, all of them are scored in **one** batched
:meth:`~repro.management.whatif.WhatIfScorer.score_slots` call per
interval, and :meth:`MitigationPolicy._greedy_assign` picks with one
``lexsort`` and a claim walk per source. A
:class:`~repro.management.whatif.MoveScore` is built only for each move
a plan returns.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.datacenter.cluster import Cluster
from repro.datacenter.fleetstate import FleetState
from repro.datacenter.vm import STATE_CODES, VmState
from repro.errors import ConfigurationError
from repro.management.hotspot import HotspotDetector
from repro.management.whatif import (
    CandidateMove,
    MoveScore,
    WhatIfScorer,
    eviction_slots,
)
# Planning no longer calls the named enumeration; the name stays bound
# here because per-layer profiles (``perfbench/layers.py``:
# ``management.enumerate``) wrap it in this module.
from repro.management.whatif import enumerate_evictions  # noqa: F401
from repro.serving.fleet import ForecastSnapshot

#: Only a VM exactly RUNNING may be moved (not one already MIGRATING).
_RUNNING = STATE_CODES[VmState.RUNNING]

#: (source slot, VM slot, destination slot) arrays of candidate moves.
Candidates = tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class ControlView:
    """Everything a mitigation policy may look at for one interval.

    ``resting_servers``/``resting_vms`` surface the act stage's cooldown
    and in-flight state so policies don't propose moves the actuator
    would immediately veto — planning around a blocked first choice
    beats planning it and idling the interval.
    """

    time_s: float
    cluster: Cluster
    snapshot: ForecastSnapshot
    measured_c: dict[str, float]
    detector: HotspotDetector
    scorer: WhatIfScorer
    environment_c: float
    resting_servers: frozenset[str] = frozenset()
    resting_vms: frozenset[str] = frozenset()

    def movable_sources(self, names: list[str]) -> list[str]:
        """Offenders that are not resting and host at least one movable VM."""
        movable = []
        for name in names:
            if name in self.resting_servers:
                continue
            server = self.cluster.server(name)
            if any(
                vm.state is VmState.RUNNING and vm.name not in self.resting_vms
                for vm in server.vms.values()
            ):
                movable.append(name)
        return movable


def _resting_servers(view: ControlView) -> np.ndarray:
    """Per fleet-state slot: is the server resting (no move may touch
    it this interval)?"""
    names = view.cluster.fleet_state.server_names
    resting = view.resting_servers
    return np.fromiter((name in resting for name in names), bool, len(names))


def _movable(view: ControlView, candidates: Candidates) -> Candidates:
    """The candidates whose VM is exactly RUNNING and not resting."""
    source, vm, destination = candidates
    state = view.cluster.fleet_state
    keep = state.vm_state_code[vm] == _RUNNING
    if view.resting_vms:
        distinct, inverse = np.unique(vm, return_inverse=True)
        resting = np.fromiter(
            (
                state.vm_objects[slot].name in view.resting_vms
                for slot in distinct.tolist()
            ),
            bool,
            distinct.shape[0],
        )
        keep &= ~resting[inverse]
    return source[keep], vm[keep], destination[keep]


def _str_ranks(names: list[str]) -> np.ndarray:
    """Each name's position in Python ``str`` order (``"vm10" < "vm9"``)."""
    ranks = np.empty(len(names), dtype=np.intp)
    ranks[sorted(range(len(names)), key=names.__getitem__)] = np.arange(len(names))
    return ranks


def _slots(cluster: Cluster, names: list[str]) -> np.ndarray:
    return np.array([cluster.server(name)._slot for name in names], dtype=np.intp)


class MitigationPolicy(ABC):
    """Ranks candidate migrations for one control interval."""

    @abstractmethod
    def plan(self, view: ControlView) -> list[MoveScore]:
        """Proposed moves, most urgent first (the act stage trims to budget)."""

    # -- shared planning machinery ------------------------------------------

    @staticmethod
    def _greedy_assign(
        state: FleetState,
        sources: np.ndarray,
        candidates: Candidates,
        scores: tuple[np.ndarray, np.ndarray],
        destination_limit_c: float,
        preference: np.ndarray,
        exclusive_sources: bool = False,
    ) -> list[MoveScore]:
        """One move per source, greedily, with destination claiming.

        ``candidates`` are scored (``scores``: predicted source and
        destination temperatures). Keeps those whose destination is not
        at or above ``destination_limit_c`` (so a NaN prediction stays
        admissible); each source slot (in the given urgency order) takes
        its lowest-``preference`` option — ties broken by VM name, then
        destination name, in ``str`` order — among destinations no
        earlier source claimed this interval, so one attractive server
        doesn't soak up every plan only to be cooldown-blocked after the
        first. ``exclusive_sources`` additionally bars a server from
        acting as both drain and receiver in one plan. One ``lexsort``
        orders every source's options; the walk per source only skips
        claimed destinations.
        """
        source, vm, destination = candidates
        source_c, destination_c = scores
        kept = np.flatnonzero(~(destination_c >= destination_limit_c))
        urgency = np.empty(state.n_servers, dtype=np.intp)
        urgency[sources] = np.arange(sources.shape[0])
        distinct, vm_of = np.unique(vm[kept], return_inverse=True)
        vm_rank = _str_ranks(
            [state.vm_objects[slot].name for slot in distinct.tolist()]
        )
        server_rank = _str_ranks(state.server_names)
        order = kept[
            np.lexsort((
                server_rank[destination[kept]],
                vm_rank[vm_of],
                preference[kept],
                urgency[source[kept]],
            ))
        ]
        bounds = np.searchsorted(
            urgency[source[order]], np.arange(sources.shape[0] + 1)
        ).tolist()
        claimed = np.zeros(state.n_servers, dtype=bool)
        planned = []
        for rank, slot in enumerate(sources.tolist()):
            if exclusive_sources and claimed[slot]:
                continue
            options = order[bounds[rank] : bounds[rank + 1]]
            free = np.flatnonzero(~claimed[destination[options]])
            if free.shape[0] == 0:
                continue
            chosen = int(options[free[0]])
            claimed[destination[chosen]] = True
            if exclusive_sources:
                claimed[slot] = True
            planned.append(chosen)
        names = state.server_names
        return [
            MoveScore(
                move=CandidateMove(
                    vm_name=state.vm_objects[vm[k]].name,
                    source=names[source[k]],
                    destination=names[destination[k]],
                ),
                predicted_source_c=float(source_c[k]),
                predicted_destination_c=float(destination_c[k]),
            )
            for k in planned
        ]

    @staticmethod
    def _best_eviction_per_source(
        view: ControlView,
        sources: list[str],
        destination_limit_c: float,
    ) -> list[MoveScore]:
        """One best admissible eviction per source, batched scoring.

        Enumerates every (VM, destination) candidate off every source —
        destinations restricted to non-source servers — scores the whole
        set in one batched SVR call, and keeps, per source (in the given
        urgency order), the move with the lowest predicted post-move
        peak whose destination stays below ``destination_limit_c``.
        Evicting one VM per hot server per interval and re-planning next
        interval beats a single big bang: each later plan sees the fleet
        the earlier moves actually produced.
        """
        sources = view.movable_sources(sources)
        if not sources:
            return []
        state = view.cluster.fleet_state
        source_slots = _slots(view.cluster, sources)
        receivers = ~_resting_servers(view)
        receivers[source_slots] = False
        candidates = _movable(
            view, eviction_slots(state, source_slots, np.flatnonzero(receivers))
        )
        source_c, destination_c = view.scorer.score_slots(
            state, *candidates, view.environment_c
        )
        # Lowest predicted post-move peak wins (ties: VM, destination);
        # the peak is Python's max(source, destination), which keeps the
        # source's value when the destination's is NaN.
        peak = np.where(destination_c > source_c, destination_c, source_c)
        return MitigationPolicy._greedy_assign(
            state,
            source_slots,
            candidates,
            (source_c, destination_c),
            destination_limit_c,
            preference=peak,
        )


class ReactiveEvictionPolicy(MitigationPolicy):
    """Threshold eviction on measured temperatures (no prediction).

    The baseline every forecast-driven policy is judged against: once a
    sensor reads above the detector threshold, evict the best VM. By
    construction it can only act *after* the SLA is already violated.
    """

    def __init__(self, margin_c: float = 0.0) -> None:
        if margin_c < 0:
            raise ConfigurationError(f"margin_c must be >= 0, got {margin_c}")
        self.margin_c = margin_c

    def plan(self, view: ControlView) -> list[MoveScore]:
        hotspots = view.detector.detect(view.measured_c)
        sources = [spot.server_name for spot in hotspots]
        limit = view.detector.threshold_c - self.margin_c
        return self._best_eviction_per_source(view, sources, limit)


class ProactiveForecastPolicy(MitigationPolicy):
    """Forecast-driven eviction: act Δ_gap ahead of the threshold.

    Flags servers whose latest Δ_gap-ahead forecast exceeds
    ``threshold − margin_c`` (the margin absorbs model error and buys
    actuation lead time) and plans the best eviction for each, hottest
    forecast first. Destinations must stay below the same margined
    limit, so mitigation never manufactures the next hotspot.
    """

    def __init__(self, margin_c: float = 2.0) -> None:
        if margin_c < 0:
            raise ConfigurationError(f"margin_c must be >= 0, got {margin_c}")
        self.margin_c = margin_c

    def plan(self, view: ControlView) -> list[MoveScore]:
        names, predicted = view.snapshot.forecasts()
        limit = view.detector.threshold_c - self.margin_c
        offenders = [
            (float(temp), name)
            for name, temp in zip(names, predicted.tolist())
            if temp > limit
        ]
        offenders.sort(key=lambda pair: (-pair[0], pair[1]))
        sources = [name for _, name in offenders]
        return self._best_eviction_per_source(view, sources, limit)


class EnergyAwareConsolidationPolicy(MitigationPolicy):
    """Drain nearly-empty hosts onto warm-but-safe ones.

    The COP curve rewards concentrating heat: the same IT load on fewer
    (warmer) hosts lets the freed machines idle or park. Sources are
    servers hosting at most ``max_source_vms`` VMs and measuring below
    ``threshold − margin_c``; each source's VMs are proposed onto the
    destination whose predicted post-move temperature is *highest while
    still safe* (pack the warm host), never onto another drain source.
    Only plans while the fleet is thermally calm — any measured or
    forecast hotspot defers consolidation to the mitigation policies.
    """

    def __init__(self, max_source_vms: int = 1, margin_c: float = 5.0) -> None:
        if max_source_vms < 1:
            raise ConfigurationError(
                f"max_source_vms must be >= 1, got {max_source_vms}"
            )
        if margin_c < 0:
            raise ConfigurationError(f"margin_c must be >= 0, got {margin_c}")
        self.max_source_vms = max_source_vms
        self.margin_c = margin_c

    def plan(self, view: ControlView) -> list[MoveScore]:
        limit = view.detector.threshold_c - self.margin_c
        if view.detector.detect(view.measured_c):
            return []
        _, predicted = view.snapshot.forecasts()
        if any(temp > limit for temp in predicted.tolist()):
            return []
        cluster = view.cluster
        state = cluster.fleet_state
        n = state.n_servers
        counts = np.fromiter(map(len, state.server_vm_slots), np.intp, n)
        measured = np.array(
            [view.measured_c.get(name, 0.0) for name in state.server_names]
        )

        # Strict drain order — emptier, cooler, then name — so load only
        # ever flows "uphill" toward fuller/warmer hosts: no A→B while
        # B→A cycles, and ties (a uniform one-VM fleet) still drain.
        hosting = np.flatnonzero(counts)
        drain = hosting[
            np.lexsort((
                _str_ranks(state.server_names)[hosting],
                measured[hosting],
                counts[hosting],
            ))
        ]
        position = np.empty(n, dtype=np.intp)
        position[drain] = np.arange(drain.shape[0])
        sources = view.movable_sources([
            state.server_names[slot]
            for slot in drain[counts[drain] <= self.max_source_vms].tolist()
        ])
        source_slots = _slots(cluster, sources)
        source, vm, destination = eviction_slots(
            state, source_slots, hosting[~_resting_servers(view)[hosting]]
        )
        uphill = position[destination] > position[source]
        candidates = _movable(
            view, (source[uphill], vm[uphill], destination[uphill])
        )
        source_c, destination_c = view.scorer.score_slots(
            state, *candidates, view.environment_c
        )
        # Pack the warm host: highest still-safe destination wins (ties:
        # VM, name); exclusive sources keep a server from acting as both
        # drain and receiver in one plan.
        return self._greedy_assign(
            state,
            source_slots,
            candidates,
            (source_c, destination_c),
            limit,
            preference=-destination_c,
            exclusive_sources=True,
        )
