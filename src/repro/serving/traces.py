"""Scenario-derived request traces for the serving front-end.

The front-end's closed-workload drivers (:func:`~repro.serving.frontend.
serve_trace`, the ``fleet-serve`` CLI, the serving benchmarks, and the
fuzzer-hook invariant tests) all need the same thing: a deterministic
stream of single-record prediction requests whose *content* comes from a
:class:`~repro.experiments.scenarios.FleetScenario` — real server
classes, real placements, real ambient — and whose *shape* (arrival
process, key skew, what-if mixture) is drawn from named
:mod:`repro.rng` streams so every seed replays bit-identically.

:func:`trace_from_scenario` is that generator. Three properties matter
downstream:

* **Arrivals are sorted and bounded** in ``[0, duration_s)`` for every
  arrival mode — the front-end's queue assumes monotone submission
  times, and :class:`RequestTrace` validates both at construction.
* **Key skew is configurable.** A ``hot_fraction`` of servers receives
  ``hot_weight`` of the traffic — the realistic shape that makes the
  signature cache earn its hit rate (uniform traffic over unique
  placements would never repeat a signature).
* **Request content reuses the scenario's own specs** through
  :mod:`repro.serving.signatures`, so a trace request for server *i* is
  byte-identical to the record the profiling/management layers would
  build for the same placement — cache keys transfer across subsystems.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.core.records import ExperimentRecord
from repro.errors import ConfigurationError
from repro.rng import RngFactory
from repro.serving.registry import DEFAULT_KEY
from repro.serving.signatures import vm_record_from_spec, vm_signature

if TYPE_CHECKING:  # import cycle: experiments → figures → training → serving
    from repro.datacenter.server import ServerSpec
    from repro.experiments.scenarios import FleetScenario

#: Supported request-arrival processes.
ARRIVALS = ("uniform", "poisson", "bursts")


@dataclass(frozen=True)
class TracedRequest:
    """One single-record prediction request: a row view of a trace."""

    arrival_s: float
    key: str
    record: ExperimentRecord


@dataclass(frozen=True)
class RequestTrace:
    """A replayable, sorted stream of prediction requests, stored as columns.

    Request ``i`` arrives at ``arrivals_s[i]`` and asks the ``keys[i]``
    model about ``records[i]``. The key and record columns hold
    references to shared key strings and interned records, and the
    arrivals are one ``array('d')``, so a trace costs what its columns
    cost. :class:`TracedRequest` is the row view: :attr:`requests`
    materializes it on demand for tests and offline analysis, while the
    replay drivers iterate the columns.

    Validates the two properties the front-end's queue depends on:
    arrivals are non-decreasing and live in ``[0, duration_s)``.
    """

    name: str
    duration_s: float
    arrivals_s: Sequence[float]
    keys: Sequence[str]
    records: Sequence[ExperimentRecord]

    def __post_init__(self) -> None:
        if not self.duration_s > 0.0:
            raise ConfigurationError(
                f"trace duration must be > 0, got {self.duration_s}"
            )
        object.__setattr__(self, "arrivals_s", array("d", self.arrivals_s))
        object.__setattr__(self, "keys", tuple(self.keys))
        object.__setattr__(self, "records", tuple(self.records))
        arrivals_s = self.arrivals_s
        n_requests = len(arrivals_s)
        if not len(self.keys) == len(self.records) == n_requests:
            raise ConfigurationError(
                f"trace {self.name!r}: column lengths differ ({n_requests} "
                f"arrivals, {len(self.keys)} keys, {len(self.records)} records)"
            )
        column = np.frombuffer(arrivals_s, dtype=float)
        outside = ~((column >= 0.0) & (column < self.duration_s))
        bad = outside.copy()
        bad[1:] |= column[1:] < column[:-1]
        if not bad.any():
            return
        index = int(np.argmax(bad))
        if outside[index]:
            raise ConfigurationError(
                f"trace {self.name!r}: request {index} arrives at "
                f"{arrivals_s[index]}s, outside [0, {self.duration_s}s)"
            )
        raise ConfigurationError(
            f"trace {self.name!r}: request {index} arrives at "
            f"{arrivals_s[index]}s, before its predecessor at "
            f"{arrivals_s[index - 1]}s — traces must be sorted"
        )

    @property
    def requests(self) -> tuple[TracedRequest, ...]:
        """Per-request rows, materialized from the columns on demand."""
        return tuple(map(TracedRequest, self.arrivals_s, self.keys, self.records))

    @property
    def n_requests(self) -> int:
        """Number of requests in the trace."""
        return len(self.keys)

    @property
    def mean_rate_per_s(self) -> float:
        """Mean request arrival rate over the trace window."""
        return len(self.keys) / self.duration_s


def _arrival_times(
    factory: RngFactory, arrival: str, n_requests: int, duration_s: float
) -> array:
    """Sorted arrival offsets in ``[0, duration_s)`` for one arrival mode."""
    stream = factory.stream(f"trace/arrivals/{arrival}")
    if arrival == "uniform":
        return array("d", [duration_s * i / n_requests for i in range(n_requests)])
    if arrival == "poisson":
        # Unit-rate exponential gaps rescaled onto the window: keeps the
        # Poisson shape while guaranteeing the last arrival lands inside.
        gaps = stream.expovariates(1.0, n_requests)
        total = sum(gaps)
        scale = duration_s * (n_requests / (n_requests + 1)) / total
        arrivals = array("d")
        elapsed = 0.0
        for gap in gaps:
            elapsed += gap * scale
            arrivals.append(elapsed)
        return arrivals
    if arrival == "bursts":
        # A handful of burst centers, each shedding an exponential tail
        # of requests — the flash-crowd shape micro-batching likes best.
        n_centers = max(1, n_requests // 64)
        centers = [stream.uniform(0.0, 0.95 * duration_s) for _ in range(n_centers)]
        last_s = duration_s * (1.0 - 1e-9)
        offsets = stream.expovariates(100.0, n_requests)
        arrivals_s = [
            min(centers[index % n_centers] + offset, last_s)
            for index, offset in enumerate(offsets)
        ]
        arrivals_s.sort()
        return array("d", arrivals_s)
    raise ConfigurationError(
        f"unknown arrival mode {arrival!r}; choose one of {ARRIVALS}"
    )


def trace_from_scenario(
    scenario: "FleetScenario",
    n_requests: int,
    *,
    duration_s: float | None = None,
    arrival: str = "poisson",
    seed: int | None = None,
    hot_fraction: float = 0.125,
    hot_weight: float = 0.6,
    whatif_fraction: float = 0.25,
    key_fn: Callable[["ServerSpec"], str] | None = None,
) -> RequestTrace:
    """Derive a deterministic request trace from a fleet scenario.

    Each request asks ψ_stable for one scenario server under its initial
    placement; a ``whatif_fraction`` of requests instead ask the
    placement question ("this host *plus* one VM flavor from the
    scenario's pool") — the traffic the what-if scorer generates. Targets
    are skewed: ``hot_fraction`` of the servers (chosen by seed) receive
    ``hot_weight`` of all requests. ``duration_s`` defaults to the
    scenario's own window; pass a shorter one to raise the arrival rate
    (micro-batching pays off in proportion). ``key_fn`` maps a server
    spec to its registry key (e.g. ``server_class_key``); the default
    sends everything to the registry's ``"default"`` entry.
    """
    if n_requests < 1:
        raise ConfigurationError(f"n_requests must be >= 1, got {n_requests}")
    if not 0.0 < hot_fraction <= 1.0:
        raise ConfigurationError(
            f"hot_fraction must be in (0, 1], got {hot_fraction}"
        )
    if not 0.0 <= hot_weight <= 1.0:
        raise ConfigurationError(
            f"hot_weight must be in [0, 1], got {hot_weight}"
        )
    if not 0.0 <= whatif_fraction <= 1.0:
        raise ConfigurationError(
            f"whatif_fraction must be in [0, 1], got {whatif_fraction}"
        )
    window_s = scenario.duration_s if duration_s is None else float(duration_s)
    factory = RngFactory(scenario.seed if seed is None else seed)

    n_servers = scenario.n_servers
    ambient_c = scenario.environment.temperature(0.0)

    # One base record per server from its initial placement — the same
    # projection the profiling/management layers apply, so signatures
    # transfer across subsystems.
    base_records: list[ExperimentRecord] = []
    keys: list[str] = []
    for spec, vm_specs in zip(scenario.server_specs, scenario.vm_specs):
        capacity = spec.capacity
        base_records.append(
            ExperimentRecord(
                theta_cpu_cores=capacity.cpu_cores,
                theta_cpu_ghz=capacity.total_ghz,
                theta_memory_gb=capacity.memory_gb,
                theta_fan_count=spec.fan_count,
                theta_fan_speed=spec.fan_speed,
                delta_env_c=ambient_c,
                vms=tuple(vm_record_from_spec(vm) for vm in vm_specs),
                metadata={"server": spec.name},
            )
        )
        keys.append(DEFAULT_KEY if key_fn is None else key_fn(spec))

    # The scenario's VM flavor pool, deduped by Eq. (2) signature — the
    # what-if requests draw hypothetical additions from here.
    flavor_pool: list = []
    seen_flavors: set[tuple] = set()
    for vm_specs in scenario.vm_specs:
        for vm in vm_specs:
            signature = vm_signature(vm)
            if signature not in seen_flavors:
                seen_flavors.add(signature)
                flavor_pool.append(vm)

    # Hot-set target skew from a dedicated named stream.
    targets_stream = factory.stream("trace/targets")
    order = targets_stream.permutation(n_servers)
    n_hot = max(1, round(hot_fraction * n_servers))
    hot_set = [int(i) for i in order[:n_hot]]

    arrivals_s = _arrival_times(factory, arrival, n_requests, window_s)
    request_keys: list[str] = []
    request_records: list[ExperimentRecord] = []
    random = targets_stream.random  # hot loop: bind the draws once
    draw_hot = targets_stream.int_sampler(n_hot)
    draw_server = targets_stream.int_sampler(n_servers)
    draw_flavor = (
        targets_stream.int_sampler(len(flavor_pool)) if flavor_pool else None
    )
    # Repeated (server, flavor) what-if combinations reuse one interned
    # record object: the values would be identical anyway (so this
    # changes nothing downstream), and object reuse is what production
    # clients resubmitting the same query look like to the front-end.
    whatif_records: dict[tuple[int, int], ExperimentRecord] = {}
    for _ in range(n_requests):
        if random() < hot_weight:
            server_index = hot_set[draw_hot()]
        else:
            server_index = draw_server()
        record = base_records[server_index]
        if draw_flavor is not None and random() < whatif_fraction:
            flavor_index = draw_flavor()
            interned = whatif_records.get((server_index, flavor_index))
            if interned is None:
                interned = ExperimentRecord(
                    theta_cpu_cores=record.theta_cpu_cores,
                    theta_cpu_ghz=record.theta_cpu_ghz,
                    theta_memory_gb=record.theta_memory_gb,
                    theta_fan_count=record.theta_fan_count,
                    theta_fan_speed=record.theta_fan_speed,
                    delta_env_c=record.delta_env_c,
                    vms=record.vms
                    + (vm_record_from_spec(flavor_pool[flavor_index]),),
                    metadata={**record.metadata, "hypothetical": True},
                )
                whatif_records[(server_index, flavor_index)] = interned
            record = interned
        request_keys.append(keys[server_index])
        request_records.append(record)
    return RequestTrace(
        name=f"{scenario.name}/{arrival}",
        duration_s=window_s,
        arrivals_s=arrivals_s,
        keys=request_keys,
        records=request_records,
    )
