"""Prediction-driven thermal-aware VM placement.

For each candidate host the scheduler builds the hypothetical Eq. (2)
input "this host with the new VM added" (via the shared what-if
scorer in :mod:`repro.management.whatif`), asks the stable model for
the resulting ψ_stable in one batched call, and places the VM on the
host with the lowest predicted temperature (skipping hosts predicted to
overheat). This is exactly the proactive decision-making the paper's
introduction motivates.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.stable import StableTemperaturePredictor
from repro.datacenter.cluster import Cluster
from repro.datacenter.scheduler import PlacementScheduler
from repro.datacenter.server import Server
from repro.datacenter.vm import Vm
from repro.errors import SchedulingError
from repro.management.hotspot import HotspotDetector
from repro.management.whatif import WhatIfScorer, record_for_host

__all__ = ["PlacementDecision", "ThermalAwareScheduler", "record_for_host"]


@dataclass(frozen=True)
class PlacementDecision:
    """One logged placement outcome.

    ``degraded`` is True when every feasible host was predicted to
    overheat and the scheduler fell back to the coolest of them instead
    of failing the placement — callers watching the decision log can
    treat those placements as capacity warnings.
    """

    vm_name: str
    server_name: str
    predicted_c: float
    degraded: bool = False


class ThermalAwareScheduler(PlacementScheduler):
    """Places each VM where the predicted post-placement ψ_stable is lowest.

    Parameters
    ----------
    predictor:
        A trained stable-temperature model.
    environment_c:
        Environment temperature assumed for predictions.
    detector:
        Optional hotspot detector; hosts predicted above its threshold
        are rejected outright (unless *every* host would overheat, in
        which case the coolest is chosen and the decision is flagged
        ``degraded`` — degrading loudly beats failing the placement).
    """

    def __init__(
        self,
        predictor: StableTemperaturePredictor,
        environment_c: float = 22.0,
        detector: HotspotDetector | None = None,
    ) -> None:
        # reprolint: waive R002 -- live view by contract: the scheduler
        # ranks placements with the caller's current model; it never
        # publishes fitted state (registry snapshots cover serving).
        self.predictor = predictor
        self.environment_c = environment_c
        self.detector = detector
        self._scorer = WhatIfScorer(predictor)
        self.decision_log: list[PlacementDecision] = []

    @property
    def last_decision(self) -> PlacementDecision:
        """The most recent placement decision (raises before any)."""
        if not self.decision_log:
            raise SchedulingError("no placement decided yet")
        return self.decision_log[-1]

    def place(self, vm: Vm, cluster: Cluster) -> Server:
        """Predict ψ_stable for all feasible hosts in one batch; pick the coolest.

        All hypothetical "host + new VM" feature rows go through a single
        batched SVR call (one kernel evaluation for the whole candidate
        set) instead of one point call per host — same predictions, one
        pass over the support vectors.
        """
        candidates = self._feasible(vm, cluster)
        predicted: list[tuple[float, Server]] = []
        if candidates:
            temperatures = self._scorer.score_placements(
                candidates, vm, self.environment_c
            )
            predicted = [
                (float(temp), server)
                for temp, server in zip(temperatures, candidates)
            ]
        predicted.sort(key=lambda pair: (pair[0], pair[1].name))

        degraded = False
        if self.detector is not None and predicted:
            acceptable = [
                (temp, server)
                for temp, server in predicted
                if not self.detector.would_overheat(temp)
            ]
            if acceptable:
                predicted = acceptable
            else:
                degraded = True
        if not predicted:
            raise SchedulingError(f"no feasible host for VM {vm.name!r}")

        temperature, chosen = predicted[0]
        self.decision_log.append(
            PlacementDecision(
                vm_name=vm.name,
                server_name=chosen.name,
                predicted_c=temperature,
                degraded=degraded,
            )
        )
        return chosen
