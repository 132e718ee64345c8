"""Plan parity: every policy's ``plan()`` against the object pipeline.

The oracle below is the plan stage written over Python objects, one
candidate at a time: ``enumerate_evictions``'s ``can_host`` loop, the
per-move cooldown / in-flight / ``VmState.RUNNING`` veto, per-record
what-if scoring (``record_for_host`` → ``FeatureExtractor.extract`` →
``predict_features``), and the sort-key greedy assignment with
destination claiming. ``plan()`` must return the same moves in the same
order, with both predictions bit-identical (compared as ``float.hex``).

The random fleets cover what the array plan must reproduce:

* resting servers and resting VMs;
* MIGRATING, PROVISIONING and TERMINATED VMs on sources (still in the
  hosts' dicts, so they count for admission and drain order);
* destinations exactly at the ±1e-9 memory and vCPU admission edges;
* several sources competing for the same destinations;
* server names ``s0 … s13`` and VM names whose ``str`` order differs
  from their slot order, so a tie-break by slot and not by name shows;
* a constant model (every preference ties, so the VM-name and
  destination-name tie-breaks decide), a banded model (partial ties),
  and a model that predicts NaN for some destinations (admissible, as
  ``NaN >= limit`` is false) while their sources stay finite.
"""

import random

import numpy as np
import pytest

from repro.control.policies import (
    ControlView,
    EnergyAwareConsolidationPolicy,
    ProactiveForecastPolicy,
    ReactiveEvictionPolicy,
)
from repro.core.features import FeatureExtractor
from repro.datacenter.cluster import Cluster
from repro.datacenter.resources import ResourceCapacity
from repro.datacenter.server import Server, ServerSpec
from repro.datacenter.vm import VmState
from repro.management.hotspot import HotspotDetector
from repro.management.whatif import (
    CandidateMove,
    MoveScore,
    WhatIfScorer,
    record_for_host,
)
from repro.serving.fleet import ForecastSnapshot
from tests.conftest import make_server_spec, make_vm

FEATURES = FeatureExtractor().feature_names
DEMAND = FEATURES.index("nominal_demand_vcpus")
MEMORY = FEATURES.index("theta_memory_gb")
N_VMS = FEATURES.index("n_vms")

#: Hosts of this memory size score NaN under ``NanHostModel``; they are
#: never made hot, so a NaN only ever lands on the destination side.
NAN_HOST_MEMORY_GB = 48.0
#: The edge servers are sized so a VM of this shape sits on both the
#: memory and the vCPU admission edge.
EDGE_VM_MEMORY_GB = 4.0
EDGE_VM_VCPUS = 2
EDGE_CORES = 2
EDGE_DELTAS = (-2e-9, -1e-9, -0.5e-9, 0.0, 0.5e-9, 1e-9, 2e-9)
THRESHOLD_C = 75.0
ENVIRONMENT_C = 22.0


class EchoModel:
    """ψ = 40 + 3·(nominal demand): monotone in hosted load."""

    def predict_features(self, x):
        return 40.0 + 3.0 * x[:, DEMAND]


class ConstantModel:
    """ψ = 50 everywhere: every candidate ties on its preference."""

    def predict_features(self, x):
        return np.full(x.shape[0], 50.0)


class BandedModel:
    """Echo rounded to 2 °C bands plus the VM count: partial ties."""

    def predict_features(self, x):
        return 2.0 * np.round((40.0 + 3.0 * x[:, DEMAND]) / 2.0) + x[:, N_VMS]


class NanHostModel:
    """Echo, but NaN on the ``NAN_HOST_MEMORY_GB`` hosts."""

    def predict_features(self, x):
        out = 40.0 + 3.0 * x[:, DEMAND]
        out[x[:, MEMORY] == NAN_HOST_MEMORY_GB] = np.nan
        return out


MODELS = {
    "echo": EchoModel,
    "constant": ConstantModel,
    "banded": BandedModel,
    "nan_host": NanHostModel,
}


# -- the object pipeline (oracle) ---------------------------------------------


def oracle_enumerate(cluster, sources, destinations=None):
    source_names = list(sources)
    if destinations is None:
        candidates = cluster.servers
    else:
        candidates = [cluster.server(name) for name in destinations]
    moves = []
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


def oracle_movable_sources(view, names):
    movable = []
    for name in names:
        if name in view.resting_servers:
            continue
        server = view.cluster.server(name)
        if any(
            vm.state is VmState.RUNNING and vm.name not in view.resting_vms
            for vm in server.vms.values()
        ):
            movable.append(name)
    return movable


def oracle_movable(view, move):
    if move.vm_name in view.resting_vms:
        return False
    if move.source in view.resting_servers:
        return False
    if move.destination in view.resting_servers:
        return False
    vm = view.cluster.server(move.source).vms.get(move.vm_name)
    return vm is not None and vm.state is VmState.RUNNING


def oracle_score(view, moves):
    """One record pair per move, each row extracted from its record."""
    extractor = FeatureExtractor()
    predict = view.scorer.predictor.predict_features
    scores = []
    for move in moves:
        source = view.cluster.server(move.source)
        destination = view.cluster.server(move.destination)
        rows = np.vstack([
            extractor.extract(
                record_for_host(source, view.environment_c, without_vm=move.vm_name)
            ),
            extractor.extract(
                record_for_host(
                    destination,
                    view.environment_c,
                    extra_vm=source.vms[move.vm_name],
                )
            ),
        ])
        source_c, destination_c = np.asarray(predict(rows), dtype=float).tolist()
        scores.append(MoveScore(move, source_c, destination_c))
    return scores


def oracle_greedy(sources, scores, destination_limit_c, preference,
                  exclusive_sources=False):
    admissible = {}
    for score in scores:
        if score.predicted_destination_c >= destination_limit_c:
            continue
        admissible.setdefault(score.move.source, []).append(score)
    planned = []
    used = set()
    for source in sources:
        if exclusive_sources and source in used:
            continue
        options = sorted(admissible.get(source, ()), key=preference)
        chosen = next(
            (s for s in options if s.move.destination not in used), None
        )
        if chosen is None:
            continue
        used.add(chosen.move.destination)
        if exclusive_sources:
            used.add(source)
        planned.append(chosen)
    return planned


def oracle_best_eviction_per_source(view, sources, destination_limit_c):
    sources = oracle_movable_sources(view, sources)
    if not sources:
        return []
    excluded = set(sources)
    destinations = [
        server.name
        for server in view.cluster.servers
        if server.name not in excluded
    ]
    moves = oracle_enumerate(view.cluster, sources, destinations)
    moves = [move for move in moves if oracle_movable(view, move)]
    scores = oracle_score(view, moves)
    return oracle_greedy(
        sources,
        scores,
        destination_limit_c,
        preference=lambda s: (
            s.predicted_peak_c,
            s.move.vm_name,
            s.move.destination,
        ),
    )


def oracle_plan(policy, view):
    if isinstance(policy, ReactiveEvictionPolicy):
        hotspots = view.detector.detect(view.measured_c)
        sources = [spot.server_name for spot in hotspots]
        limit = view.detector.threshold_c - policy.margin_c
        return oracle_best_eviction_per_source(view, sources, limit)
    if isinstance(policy, ProactiveForecastPolicy):
        names, predicted = view.snapshot.forecasts()
        limit = view.detector.threshold_c - policy.margin_c
        offenders = [
            (float(temp), name)
            for name, temp in zip(names, predicted.tolist())
            if temp > limit
        ]
        offenders.sort(key=lambda pair: (-pair[0], pair[1]))
        sources = [name for _, name in offenders]
        return oracle_best_eviction_per_source(view, sources, limit)

    limit = view.detector.threshold_c - policy.margin_c
    if view.detector.detect(view.measured_c):
        return []
    _, predicted = view.snapshot.forecasts()
    if any(temp > limit for temp in predicted.tolist()):
        return []
    cluster = view.cluster

    def order_key(name):
        return (
            len(cluster.server(name).vms),
            view.measured_c.get(name, 0.0),
            name,
        )

    hosting = [server.name for server in cluster.servers if server.vms]
    sources = oracle_movable_sources(
        view,
        sorted(
            (
                name
                for name in hosting
                if len(cluster.server(name).vms) <= policy.max_source_vms
            ),
            key=order_key,
        ),
    )
    moves = []
    for source in sources:
        uphill = [
            name
            for name in hosting
            if order_key(name) > order_key(source)
            and name not in view.resting_servers
        ]
        moves.extend(oracle_enumerate(cluster, [source], uphill))
    moves = [move for move in moves if oracle_movable(view, move)]
    scores = oracle_score(view, moves)
    return oracle_greedy(
        sources,
        scores,
        limit,
        preference=lambda s: (
            -s.predicted_destination_c,
            s.move.vm_name,
            s.move.destination,
        ),
        exclusive_sources=True,
    )


# -- random fleets ---------------------------------------------------------------


def _edge_server(name, rng):
    """A server whose free memory and vCPU headroom sit within ±2e-9 of
    one ``EDGE_VM`` more, holding ``fillers`` edge-shaped VMs."""
    fillers = rng.randint(1, 3)
    used_gb = EDGE_VM_MEMORY_GB * fillers
    cores = EDGE_CORES
    spec = ServerSpec(
        name=name,
        capacity=ResourceCapacity(
            cpu_cores=cores,
            ghz_per_core=2.4,
            memory_gb=used_gb + EDGE_VM_MEMORY_GB + rng.choice(EDGE_DELTAS),
        ),
        cpu_overcommit=(
            EDGE_VM_VCPUS * (fillers + 1) + rng.choice(EDGE_DELTAS)
        ) / cores,
    )
    return Server(spec), fillers


def random_fleet(seed):
    """(cluster, hot server names) for one seed."""
    rng = random.Random(seed)
    cluster = Cluster(f"parity-{seed}")
    numbers = list(range(1, 400))
    rng.shuffle(numbers)
    vm_names = iter(f"vm{k}" for k in numbers)
    n_servers = rng.randint(10, 14)
    nan_hosts = set(rng.sample(range(n_servers), 2))
    edge_hosts = set(rng.sample(sorted(set(range(n_servers)) - nan_hosts), 3))
    vms = []
    candidates_for_hot = []
    for i in range(n_servers):
        name = f"s{i}"
        if i in edge_hosts:
            server, fillers = _edge_server(name, rng)
            cluster.add_server(server)
            for _ in range(fillers):
                vm = make_vm(
                    next(vm_names),
                    vcpus=EDGE_VM_VCPUS,
                    memory_gb=EDGE_VM_MEMORY_GB,
                    level=0.4,
                )
                server.host_vm(vm)
                vms.append(vm)
            continue
        memory_gb = NAN_HOST_MEMORY_GB if i in nan_hosts else rng.choice((32.0, 64.0))
        server = Server(
            make_server_spec(name=name, cores=rng.choice((8, 16)), memory_gb=memory_gb)
        )
        cluster.add_server(server)
        if i not in nan_hosts:
            candidates_for_hot.append(name)
        for _ in range(rng.randint(0, 5)):
            if rng.random() < 0.4:
                vcpus, memory = EDGE_VM_VCPUS, EDGE_VM_MEMORY_GB
            else:
                vcpus, memory = rng.randint(1, 4), rng.choice((2.0, 4.0, 8.0))
            vm = make_vm(
                next(vm_names),
                vcpus=vcpus,
                memory_gb=memory,
                level=round(rng.uniform(0.1, 0.9) * 4.0) / 4.0,
                n_tasks=rng.randint(1, 3),
            )
            if server.can_host(vm):
                server.host_vm(vm)
                vms.append(vm)
    for vm in vms:
        draw = rng.random()
        if draw < 0.08:
            vm.begin_migration()
        elif draw < 0.13:
            vm.terminate()
        elif draw < 0.18:
            vm.state = VmState.PROVISIONING
    loaded = [n for n in candidates_for_hot if cluster.server(n).vms]
    hot = rng.sample(loaded, min(len(loaded), rng.randint(2, 4)))
    return cluster, hot


def _snapshot(cluster, predicted):
    names = tuple(server.name for server in cluster.servers)
    return ForecastSnapshot(
        names=names,
        target_times_s=np.full(len(names), 60.0),
        predicted_c=np.array([predicted[name] for name in names]),
        gamma=np.zeros(len(names)),
        has_forecast=np.ones(len(names), dtype=bool),
    )


def _resting(rng, cluster):
    servers = frozenset(
        server.name for server in cluster.servers if rng.random() < 0.15
    )
    vms = frozenset(
        vm.name for vm in cluster.all_vms() if rng.random() < 0.15
    )
    return servers, vms


def eviction_view(seed, model):
    """A view with 2–4 measured and forecast hotspots."""
    cluster, hot = random_fleet(seed)
    rng = random.Random(seed + 10_000)
    temperatures = {
        server.name: round(rng.uniform(40.0, 60.0), 1) for server in cluster.servers
    }
    for name in hot:
        temperatures[name] = round(rng.uniform(76.0, 86.0), 2)
    resting_servers, resting_vms = _resting(rng, cluster)
    return ControlView(
        time_s=600.0,
        cluster=cluster,
        snapshot=_snapshot(cluster, temperatures),
        measured_c=temperatures,
        detector=HotspotDetector(threshold_c=THRESHOLD_C),
        scorer=WhatIfScorer(model),
        environment_c=ENVIRONMENT_C,
        resting_servers=resting_servers,
        resting_vms=resting_vms,
    )


def consolidation_view(seed, model):
    """A calm view: whole-degree measurements (drain-order ties) and one
    server left out of the measurement map (read as 0.0)."""
    cluster, _ = random_fleet(seed)
    rng = random.Random(seed + 20_000)
    measured = {
        server.name: float(rng.randint(44, 50)) for server in cluster.servers
    }
    del measured[rng.choice(sorted(measured))]
    resting_servers, resting_vms = _resting(rng, cluster)
    return ControlView(
        time_s=600.0,
        cluster=cluster,
        snapshot=_snapshot(cluster, {server.name: 45.0 for server in cluster.servers}),
        measured_c=measured,
        detector=HotspotDetector(threshold_c=THRESHOLD_C),
        scorer=WhatIfScorer(model),
        environment_c=ENVIRONMENT_C,
        resting_servers=resting_servers,
        resting_vms=resting_vms,
    )


def fingerprint(plan):
    return [
        (
            score.move.vm_name,
            score.move.source,
            score.move.destination,
            score.predicted_source_c.hex(),
            score.predicted_destination_c.hex(),
        )
        for score in plan
    ]


def assert_same_plan(policy, view):
    expected = fingerprint(oracle_plan(policy, view))
    assert fingerprint(policy.plan(view)) == expected


SEEDS = range(12)
EVICTION_POLICIES = (
    ReactiveEvictionPolicy(),
    ReactiveEvictionPolicy(margin_c=1.5),
    ProactiveForecastPolicy(),
)
CONSOLIDATION_POLICIES = (
    EnergyAwareConsolidationPolicy(),
    EnergyAwareConsolidationPolicy(max_source_vms=3, margin_c=3.0),
)


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("seed", SEEDS)
def test_eviction_plans_match_object_pipeline(seed, model):
    view = eviction_view(seed, MODELS[model]())
    for policy in EVICTION_POLICIES:
        assert_same_plan(policy, view)


# NaN destinations are left out here: the oracle's sort key would be
# -NaN, for which Python's sort gives no defined order to compare with.
@pytest.mark.parametrize("model", ["banded", "constant", "echo"])
@pytest.mark.parametrize("seed", SEEDS)
def test_consolidation_plans_match_object_pipeline(seed, model):
    view = consolidation_view(seed, MODELS[model]())
    for policy in CONSOLIDATION_POLICIES:
        assert_same_plan(policy, view)


def test_trained_model_plans_match_object_pipeline(trained_predictor):
    for seed in range(4):
        view = eviction_view(seed, trained_predictor)
        for policy in EVICTION_POLICIES:
            assert_same_plan(policy, view)
        view = consolidation_view(seed, trained_predictor)
        for policy in CONSOLIDATION_POLICIES:
            assert_same_plan(policy, view)


def test_fleets_reach_every_case():
    """The seeds above exercise each case the module docstring lists."""
    states = set()
    edge_outcomes = set()
    nan_moves = claimed = resting_sources = 0
    probe = make_vm("edge-probe", vcpus=EDGE_VM_VCPUS, memory_gb=EDGE_VM_MEMORY_GB)
    for seed in SEEDS:
        view = eviction_view(seed, NanHostModel())
        cluster = view.cluster
        hot = [name for name, temp in view.measured_c.items() if temp > THRESHOLD_C]
        resting_sources += any(name in view.resting_servers for name in hot)
        for name in hot:
            states.update(vm.state for vm in cluster.server(name).vms.values())
        for server in cluster.servers:
            if server.spec.capacity.cpu_cores == EDGE_CORES:
                edge_outcomes.add(server.can_host(probe))
        plan = ReactiveEvictionPolicy().plan(view)
        nan_moves += sum(np.isnan(s.predicted_destination_c) for s in plan)
        # Claiming: with every preference tied, a source whose plan is
        # not its name-first option lost that option to an earlier one.
        view = eviction_view(seed, ConstantModel())
        for score in ReactiveEvictionPolicy().plan(view):
            options = [
                move
                for move in oracle_enumerate(cluster, [score.move.source])
                if oracle_movable(view, move)
            ]
            claimed += score.move != min(
                options, key=lambda m: (m.vm_name, m.destination)
            )
    assert {VmState.MIGRATING, VmState.PROVISIONING, VmState.TERMINATED} <= states
    assert edge_outcomes == {True, False}
    assert nan_moves > 0
    assert claimed > 0
    assert resting_sources > 0
