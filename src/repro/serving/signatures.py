"""Shared Eq. (2) dedup signatures for serving caches and request traces.

Fleets run many *identical* VM flavors and re-ask the stable model the
same questions — "destination plus one m4.large-shaped VM", "this
host's current placement" — over and over. Identical Eq. (2) inputs are
identical predictions, so the serving front-end's result cache
(:mod:`repro.serving.frontend`) and the scenario-derived request
traces (:mod:`repro.serving.traces`) dedup work by *value signature*
rather than by object identity or VM name. This module is the single
implementation of those signatures, so the two can never disagree
about what "the same request" means. (The what-if scorer builds no
records; it dedups its array rows by the same per-VM values, read from
``FleetState`` columns.)

Two invariants make the signatures safe as dedup/cache keys:

* **Only model inputs participate.** A signature covers exactly the
  fields :class:`~repro.core.features.FeatureExtractor` reads — the θ
  hardware axes, δ_env, and the ξ_VM tuple. ``metadata`` (an unhashable
  provenance dict the extractor ignores) is excluded, so two records
  that predict identically share a signature even when their provenance
  differs.
* **VM order is preserved, not sorted.** Feature extraction sums float
  per-VM quantities in tuple order, and float addition is not
  associative — reordering could change the features by an ulp. Keeping
  the tuple order in the signature means equal signatures imply
  *bitwise* equal feature rows, which is what lets a cache hit stand in
  for a cold compute without breaking the repo's parity contracts.
"""

from __future__ import annotations

from repro.core.records import ExperimentRecord, VmRecord
from repro.datacenter.vm import VmSpec


def vm_signature(spec: VmSpec) -> tuple:
    """The Eq. (2) value identity of one VM flavor.

    Everything ξ_VM feeds the feature extractor per VM — vCPUs, memory,
    the ordered task-kind tuple, and nominal utilization — and nothing
    else (the VM's *name* is deliberately absent: fleets run many
    identical flavors, and identical flavors must dedup together).
    """
    return (
        spec.vcpus,
        spec.memory_gb,
        tuple(task.kind for task in spec.tasks),
        spec.nominal_utilization(),
    )


def record_signature(record: ExperimentRecord) -> tuple:
    """Hashable value identity of one Eq. (2) input record.

    Covers exactly the model inputs — θ hardware axes, δ_env, and the
    *ordered* ξ_VM tuple (see the module docstring for why order is
    load-bearing) — and excludes ``psi_stable_c``/``metadata``, which
    the feature extractor never reads. Equal signatures therefore imply
    bitwise-equal feature rows and bitwise-equal predictions under any
    fixed model snapshot.
    """
    return (
        record.theta_cpu_cores,
        record.theta_cpu_ghz,
        record.theta_memory_gb,
        record.theta_fan_count,
        record.theta_fan_speed,
        record.delta_env_c,
        record.vms,
    )


def vm_record_from_spec(spec: VmSpec) -> VmRecord:
    """The ξ_VM slice of Eq. (2) for one VM flavor.

    The same projection :func:`repro.management.whatif.record_for_host`
    applies to hosted VMs, exposed here for callers that build records
    straight from specs (e.g. the scenario-derived request traces).
    """
    return VmRecord(
        vcpus=spec.vcpus,
        memory_gb=spec.memory_gb,
        task_kinds=tuple(task.kind for task in spec.tasks),
        nominal_utilization=spec.nominal_utilization(),
    )
