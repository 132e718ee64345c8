"""Control-plane benchmarks.

Documents the management-layer headline claim: scoring every candidate
(VM, destination) mitigation move for a 128-server cluster through the
slot path the policies run (:func:`~repro.management.whatif.eviction_slots`
then one :meth:`~repro.management.whatif.WhatIfScorer.score_slots` call) is ≥5×
faster than the scalar per-candidate loop the advisor/scheduler used to
run — with **bit-identical** scores, because ``EpsilonSVR.predict`` is
batch-composition independent (each hypothetical record sees the same
feature extraction, scaling, and kernel arithmetic whether it is scored
alone or in a 7000-row matrix).

``CONTROL_BENCH_SMOKE=1`` shrinks the cluster to a CI smoke (fewer
sources/destinations leave proportionally more Python fixed cost in the
batched path, so the floor relaxes to 3×).
"""

import os
import statistics
import time

import numpy as np

from benchmarks.reporting import record_table
from repro.core.stable import StableTemperaturePredictor
from repro.datacenter.cluster import Cluster
from repro.datacenter.server import Server
from repro.management.whatif import WhatIfScorer, eviction_slots, record_for_host
from tests.conftest import make_record, make_server_spec, make_vm

SMOKE = bool(os.environ.get("CONTROL_BENCH_SMOKE"))
N_SERVERS = 32 if SMOKE else 128
N_HOT = 4 if SMOKE else 16
VMS_PER_HOT = 4
SPEEDUP_FLOOR = 3.0 if SMOKE else 5.0
#: Each path's time is the median of this many alternating (scalar,
#: batched) pairs, so one stall on a shared host cannot decide the floor.
PAIRS = 3
ENVIRONMENT_C = 24.0


def _stable_model() -> StableTemperaturePredictor:
    """A compact trained stable model (synthetic records, no simulation)."""
    records = [
        make_record(
            psi=38.0 + 0.35 * i + 2.0 * (i % 7),
            n_vms=2 + i % 10,
            util=0.2 + 0.006 * i,
            env=18.0 + i % 9,
            fan_count=2 + 2 * (i % 4),
        )
        for i in range(90)
    ]
    return StableTemperaturePredictor(c=64.0, gamma=0.125, epsilon=0.125).fit(records)


def _build_cluster() -> tuple[Cluster, list[str]]:
    """A fleet with ``N_HOT`` loaded servers and cool spares with headroom."""
    cluster = Cluster("bench")
    hot_names = []
    for i in range(N_SERVERS):
        name = f"s{i:03d}"
        cluster.add_server(Server(make_server_spec(name=name)))
        server = cluster.server(name)
        if i < N_HOT:
            hot_names.append(name)
            for j in range(VMS_PER_HOT):
                server.host_vm(
                    make_vm(
                        f"{name}-vm{j}",
                        vcpus=2 + (i + j) % 3,
                        memory_gb=4.0 + (j % 2),
                        level=0.55 + 0.08 * (j % 4),
                        n_tasks=1 + (i + j) % 3,
                    )
                )
        else:
            server.host_vm(
                make_vm(f"{name}-bg", vcpus=1, memory_gb=2.0, level=0.2)
            )
    return cluster, hot_names


def _scalar_candidate_loop(predictor, cluster, hot_names):
    """The seed advisor structure: one ψ_stable point call per hypothetical
    record — "source without VM" once per VM, "destination with VM" per
    candidate pair — each through ``predict_many`` on a single record."""
    source_out = []
    dest_out = []
    for source_name in hot_names:
        source = cluster.server(source_name)
        for vm_name, vm in source.vms.items():
            without = predictor.predict_many(
                [record_for_host(source, ENVIRONMENT_C, without_vm=vm_name)]
            )[0]
            for destination in cluster.servers:
                if destination.name == source_name or not destination.can_host(vm):
                    continue
                with_vm = predictor.predict_many(
                    [record_for_host(destination, ENVIRONMENT_C, extra_vm=vm)]
                )[0]
                source_out.append(without)
                dest_out.append(with_vm)
    return np.array(source_out), np.array(dest_out)


def _batched_candidate_scores(scorer, cluster, hot_names):
    """The policies' path: every admissible move off the hot servers as
    slot arrays (:func:`eviction_slots`), scored in one
    :meth:`WhatIfScorer.score_slots` call."""
    state = cluster.fleet_state
    candidates = eviction_slots(
        state,
        [cluster.server(name)._slot for name in hot_names],
        [server._slot for server in cluster.servers],
    )
    return scorer.score_slots(state, *candidates, ENVIRONMENT_C)


def test_batched_candidate_scoring_speedup():
    """Acceptance: ≥5× candidate-scoring throughput at 128 servers,
    bit-identical to the per-host scalar path."""
    predictor = _stable_model()
    cluster, hot_names = _build_cluster()
    scorer = WhatIfScorer(predictor)

    scalar_times, batch_times = [], []
    for _ in range(PAIRS):
        start = time.perf_counter()
        scalar_source, scalar_dest = _scalar_candidate_loop(
            predictor, cluster, hot_names
        )
        scalar_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        batched_source, batched_dest = _batched_candidate_scores(
            scorer, cluster, hot_names
        )
        batch_times.append(time.perf_counter() - start)
    scalar_elapsed = statistics.median(scalar_times)
    batch_elapsed = statistics.median(batch_times)

    n_moves = len(scalar_source)
    identical = np.array_equal(scalar_source, batched_source) and np.array_equal(
        scalar_dest, batched_dest
    )
    speedup = scalar_elapsed / batch_elapsed

    rows = [
        f"{'path':<30}{'walltime':>12}{'moves/s':>14}",
        f"{'per-candidate point calls':<30}{scalar_elapsed * 1e3:>10.1f}ms"
        f"{n_moves / scalar_elapsed:>14,.0f}",
        f"{'batched what-if scorer':<30}{batch_elapsed * 1e3:>10.1f}ms"
        f"{n_moves / batch_elapsed:>14,.0f}",
        "",
        f"candidate moves scored: {n_moves} "
        f"({N_HOT} hot servers x {VMS_PER_HOT} VMs x spare destinations)",
        f"speedup: {speedup:.1f}x (acceptance: >= {SPEEDUP_FLOOR:.0f}x"
        f"{', smoke scale' if SMOKE else ''}, medians of {PAIRS} alternating pairs)",
        f"bit-identical scores: {identical}",
    ]
    record_table(
        f"control plane: batched candidate scoring ({N_SERVERS} servers)",
        "\n".join(rows),
    )
    assert identical, "batched what-if scores diverge from the scalar path"
    assert speedup >= SPEEDUP_FLOOR, (
        f"batched candidate scoring speedup {speedup:.1f}x below "
        f"{SPEEDUP_FLOOR:.0f}x"
    )
