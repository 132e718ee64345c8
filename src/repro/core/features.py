"""Feature extraction: Eq. (2) records → fixed-length numeric vectors.

``ξ_VM`` is variable-length (2–12 VMs in the paper's experiments), so the
extractor aggregates per-VM attributes into order-invariant statistics
(count, totals, means, max) plus a task-kind histogram. The resulting
vector is what the SVR consumes after svm-scale-style scaling.

Two builders produce the same rows:

* :meth:`FeatureExtractor.extract` walks one :class:`ExperimentRecord`
  VM by VM — the reference that mirrors the paper, used for training,
  probes and serving requests;
* :func:`feature_rows` builds many hypothetical-host rows at once from
  the per-VM contribution columns of a
  :class:`~repro.datacenter.fleetstate.FleetState` — the what-if
  scorer's path, with no records in between. Its totals fold in slot
  order like ``extract``'s loops, so the rows are bitwise equal
  (``tests/core/test_feature_rows.py``).
"""

from __future__ import annotations

import numpy as np

from repro.core.records import ExperimentRecord
from repro.datacenter.fleetstate import FleetState, vm_contributions
from repro.datacenter.vm import VmSpec
from repro.datacenter.workload import TASK_KINDS
from repro.errors import FeatureError


#: Assumed per-VM hypervisor CPU overhead (core-units) used by the derived
#: utilization estimate. This is *published hypervisor knowledge* (the same
#: constant a VMM vendor documents), not simulator state.
VMM_OVERHEAD_CORES_PER_VM = 0.03

#: Exponent of the generic convective-cooling correlation R ∝ airflow^(−k).
#: Textbook forced-convection scaling; used only to pre-compute an
#: interaction feature, the learner still fits its own mapping.
COOLING_EXPONENT = 0.8


class FeatureExtractor:
    """Maps :class:`ExperimentRecord` inputs to numeric feature vectors.

    Besides the raw Eq. (2) inputs and ξ_VM aggregations, the extractor
    derives four physics-informed interaction features (estimated host
    utilization, capacity-weighted load, cooling-resistance proxy, and
    their product). These are ordinary feature engineering over the
    *public* inputs — the kind a practitioner profiles from hypervisor
    documentation — and flatten the multiplicative structure the RBF
    kernel would otherwise need many more records to discover.

    The feature set is fixed and named; ``feature_names`` aligns 1:1 with
    the columns of :meth:`matrix`.
    """

    def __init__(self) -> None:
        self._names = [
            "theta_cpu_cores",
            "theta_cpu_ghz",
            "theta_memory_gb",
            "fan_count",
            "fan_speed",
            "fan_airflow",
            "delta_env_c",
            "n_vms",
            "total_vcpus",
            "total_vm_memory_gb",
            "nominal_demand_vcpus",
            "demand_per_core",
            "mean_vm_utilization",
            "max_vm_vcpus",
            "util_estimate",
            "ghz_used",
            "cooling_resistance_proxy",
            "overtemp_proxy",
        ] + [f"tasks_{kind}" for kind in TASK_KINDS]

    @property
    def feature_names(self) -> list[str]:
        """Column names of the produced vectors."""
        return list(self._names)

    @property
    def n_features(self) -> int:
        """Dimensionality of the produced vectors."""
        return len(self._names)

    def extract(self, record: ExperimentRecord) -> np.ndarray:
        """Feature vector for one record (1-D array)."""
        return np.array(self._values(record), dtype=float)

    def matrix(self, records: list[ExperimentRecord]) -> np.ndarray:
        """Feature matrix for many records, shape (n_records, n_features)."""
        if not records:
            raise FeatureError("cannot build a feature matrix from zero records")
        out = np.empty((len(records), len(self._names)))
        for i, record in enumerate(records):
            out[i] = self._values(record)
        return out

    def _values(self, record: ExperimentRecord) -> list[float]:
        """One record's features, in :attr:`feature_names` order."""
        vms = record.vms
        n_vms = len(vms)
        total_vcpus = sum(vm.vcpus for vm in vms)
        # Explicit left folds, not builtin sum(): from Python 3.12 sum()
        # compensates float rounding, which would move these totals off
        # the fold order feature_rows and the pinned digests rely on.
        total_memory = 0.0
        demand = 0.0
        total_util = 0.0
        for vm in vms:
            total_memory += vm.memory_gb
            demand += vm.vcpus * vm.nominal_utilization
            total_util += vm.nominal_utilization
        mean_util = total_util / n_vms if n_vms else 0.0
        max_vcpus = max((vm.vcpus for vm in vms), default=0)
        kind_counts = {kind: 0 for kind in TASK_KINDS}
        for vm in vms:
            for kind in vm.task_kinds:
                if kind not in kind_counts:
                    raise _unknown_kind(kind)
                kind_counts[kind] += 1

        cores = float(record.theta_cpu_cores)
        overhead = VMM_OVERHEAD_CORES_PER_VM * n_vms
        granted = min(demand, max(cores - overhead, 0.0))
        util_estimate = min(1.0, (granted + overhead) / cores)
        ghz_used = record.theta_cpu_ghz * util_estimate
        airflow = record.theta_fan_count * record.theta_fan_speed
        cooling_proxy = airflow ** (-COOLING_EXPONENT)

        return [
            cores,
            record.theta_cpu_ghz,
            record.theta_memory_gb,
            float(record.theta_fan_count),
            record.theta_fan_speed,
            airflow,
            record.delta_env_c,
            float(n_vms),
            float(total_vcpus),
            total_memory,
            demand,
            demand / cores,
            mean_util,
            float(max_vcpus),
            util_estimate,
            ghz_used,
            cooling_proxy,
            ghz_used * cooling_proxy,
        ] + [float(kind_counts[kind]) for kind in TASK_KINDS]

    def targets(self, records: list[ExperimentRecord]) -> np.ndarray:
        """ψ_stable vector for records that carry outputs."""
        return np.array([r.require_output() for r in records], dtype=float)


def _unknown_kind(kind: str) -> FeatureError:
    return FeatureError(f"unknown task kind {kind!r}; known kinds: {TASK_KINDS}")


def feature_rows(
    state: FleetState,
    server_slots,
    removed_slots,
    added_slots,
    environment_c: float,
    guests: tuple[VmSpec, ...] = (),
) -> np.ndarray:
    """Eq. (2) feature rows of hypothetical host VM sets, from fleet columns.

    Row ``i`` describes server ``server_slots[i]`` hosting its current
    VMs in slot order, without VM slot ``removed_slots[i]`` and with VM
    slot ``added_slots[i]`` appended last (``-1``: none). An added slot
    ``state.n_vms + j`` is ``guests[j]``, a VM the state does not hold
    (a placement what-if's incoming VM). Columns follow
    :attr:`FeatureExtractor.feature_names`.

    Each row is bitwise equal to :meth:`FeatureExtractor.extract` of
    the matching ``record_for_host`` record: totals are left folds in
    slot order, padded with ``0.0`` (which leaves a fold unchanged), so
    removing a VM never subtracts from a total, and the cooling proxy
    is one Python float power per host.

    Parity: repro.core.features.FeatureExtractor.extract
    """
    servers = np.asarray(server_slots, dtype=np.intp)
    removed = np.asarray(removed_slots, dtype=np.intp)
    added = np.asarray(added_slots, dtype=np.intp)
    n_rows = servers.shape[0]

    # Per-VM columns: registered slots, then guests, then one zero row
    # that slot -1 gathers, so padding and "none" contribute nothing.
    n = state.n_vms
    size = n + len(guests) + 1

    def vm_column(column: np.ndarray, guest_values: list) -> np.ndarray:
        out = np.zeros((size,) + column.shape[1:], dtype=column.dtype)
        out[:n] = column[:n]
        if guest_values:
            out[n : size - 1] = guest_values
        return out

    extra = [vm_contributions(spec) for spec in guests]
    vcpus = vm_column(state.vm_vcpus_f, [float(spec.vcpus) for spec in guests])
    memory = vm_column(state.vm_memory_gb, [spec.memory_gb for spec in guests])
    utilization = vm_column(state.vm_nominal_util, [e[0] for e in extra])
    demand = vm_column(state.vm_demand_vcpus, [e[1] for e in extra])
    kinds = vm_column(state.vm_task_kinds, [e[2] for e in extra])
    unknown = vm_column(state.vm_unknown_kind, [e[3] for e in extra])

    # Hosted slots of each distinct server, padded with -1; the removed
    # VM's cell becomes padding too.
    hosts, host_of_row = np.unique(servers, return_inverse=True)
    slot_lists = [state.server_vm_slots[s] for s in hosts.tolist()]
    width = max(map(len, slot_lists), default=0)
    hosted = np.full((hosts.shape[0], width), -1, dtype=np.intp)
    for i, slots in enumerate(slot_lists):
        hosted[i, : len(slots)] = slots
    members = hosted[host_of_row]
    members[members == removed[:, None]] = -1

    flagged = unknown[members].any(axis=1) | unknown[added]
    if flagged.any():
        row = int(np.argmax(flagged))
        slot = next(s for s in [*members[row], added[row]] if s >= 0 and unknown[s])
        spec = state.vm_objects[slot].spec if slot < n else guests[slot - n]
        raise _unknown_kind(next(t.kind for t in spec.tasks if t.kind not in TASK_KINDS))

    def fold(column: np.ndarray) -> np.ndarray:
        gathered = column[members]
        total = np.zeros(n_rows)
        for k in range(width):
            total += gathered[:, k]
        total += column[added]
        return total

    n_vms = ((members >= 0).sum(axis=1) + (added >= 0)).astype(float)
    total_demand = fold(demand)
    max_vcpus = np.maximum(np.max(vcpus[members], axis=1, initial=0.0), vcpus[added])

    cores = state.cores[servers]
    ghz = state.total_ghz[servers]
    fan_count = state.fan_count[servers]
    fan_speed = state.fan_speed[servers]
    airflow = fan_count * fan_speed
    host_airflow = state.fan_count[hosts] * state.fan_speed[hosts]
    cooling_proxy = np.array(
        [a ** (-COOLING_EXPONENT) for a in host_airflow.tolist()]
    )[host_of_row]
    overhead = VMM_OVERHEAD_CORES_PER_VM * n_vms
    granted = np.minimum(total_demand, np.maximum(cores - overhead, 0.0))
    util_estimate = np.minimum(1.0, (granted + overhead) / cores)
    ghz_used = ghz * util_estimate

    columns = [
        cores,
        ghz,
        state.memory_capacity_gb[servers],
        fan_count,
        fan_speed,
        airflow,
        np.full(n_rows, float(environment_c)),
        n_vms,
        fold(vcpus),
        fold(memory),
        total_demand,
        total_demand / cores,
        np.where(n_vms > 0, fold(utilization) / np.maximum(n_vms, 1.0), 0.0),
        max_vcpus,
        util_estimate,
        ghz_used,
        cooling_proxy,
        ghz_used * cooling_proxy,
    ]
    kind_counts = kinds[members].sum(axis=1) + kinds[added]
    return np.column_stack(columns + [kind_counts])
