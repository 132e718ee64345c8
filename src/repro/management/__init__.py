"""Thermal management built on top of the predictions.

The paper motivates temperature prediction as the enabler of proactive
thermal management: minimizing temperature disparity, avoiding hotspots,
and cutting cooling power (§I). This subpackage closes that loop:

* :mod:`repro.management.hotspot` — hotspot detection over (predicted)
  server temperatures;
* :mod:`repro.management.thermal_aware` — a placement policy that asks
  the stable model "how hot would this host get with the VM added?" and
  picks the coolest predicted outcome;
* :mod:`repro.management.whatif` — the shared batched what-if path: one
  hypothetical-record builder and one batched candidate scorer that the
  scheduler and the closed-loop control plane (:mod:`repro.control`)
  both drive;
* :mod:`repro.management.energy` — CRAC cooling-power model (COP curve)
  and energy accounting, so policies can be compared in watts.
"""

from repro.management.energy import CoolingModel, EnergyAccount
from repro.management.hotspot import Hotspot, HotspotDetector
from repro.management.thermal_aware import PlacementDecision, ThermalAwareScheduler
from repro.management.whatif import (
    CandidateMove,
    MoveScore,
    WhatIfScorer,
    enumerate_evictions,
    record_for_host,
)

__all__ = [
    "CandidateMove",
    "CoolingModel",
    "EnergyAccount",
    "Hotspot",
    "HotspotDetector",
    "MoveScore",
    "PlacementDecision",
    "ThermalAwareScheduler",
    "WhatIfScorer",
    "enumerate_evictions",
    "record_for_host",
]
