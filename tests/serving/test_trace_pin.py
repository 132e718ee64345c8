"""Golden pin of ``trace_from_scenario`` output, request by request.

Each digest hashes, per request, the exact arrival bits
(``float.hex``), the routing key, the record's Eq. (2) value signature
and the index of the first request that carries the *same record
object*. The last field pins the what-if interning: repeated
(server, flavor) placements reuse one record, and base placements reuse
their server's record. Any change to the arrival process, the draw
order of the named streams, the key routing or the interning fails
here.
"""

import hashlib

import pytest

from repro.experiments.scenarios import class_balanced_fleet_scenario
from repro.serving.signatures import record_signature
from repro.serving.traces import trace_from_scenario
from repro.training import server_class_key

N_REQUESTS = 600

#: (arrival, keyed by class, whatif_fraction, seed) → digest prefix.
GOLDEN = {
    ("uniform", False, 0.0, 7): "67336de6ea8fc2f2",
    ("uniform", False, 0.0, 11): "f0696f134f49e4c0",
    ("uniform", False, 0.25, 7): "066e0cf620a67945",
    ("uniform", False, 0.25, 11): "de10b7f49f9c4f44",
    ("uniform", True, 0.0, 7): "c26e369b8ca4a8ff",
    ("uniform", True, 0.0, 11): "81c8eec6567c76bf",
    ("uniform", True, 0.25, 7): "fa8e5672a83af9d6",
    ("uniform", True, 0.25, 11): "b889fd13bc82cd86",
    ("poisson", False, 0.0, 7): "55dca8cd2dc908ab",
    ("poisson", False, 0.0, 11): "884559d05fead521",
    ("poisson", False, 0.25, 7): "bf6f5bb8d9682d11",
    ("poisson", False, 0.25, 11): "128736dd8af868b0",
    ("poisson", True, 0.0, 7): "82eb80472a4d04c2",
    ("poisson", True, 0.0, 11): "91211a1c3b7ee910",
    ("poisson", True, 0.25, 7): "45b7418a80e9f004",
    ("poisson", True, 0.25, 11): "5cbf9385662cdaf4",
    ("bursts", False, 0.0, 7): "921b230fb9bfd2d0",
    ("bursts", False, 0.0, 11): "30aec8e45b37b9d1",
    ("bursts", False, 0.25, 7): "566e93be2cb16207",
    ("bursts", False, 0.25, 11): "011b6c81ef38e3b0",
    ("bursts", True, 0.0, 7): "19edfd7af79c69b2",
    ("bursts", True, 0.0, 11): "e3286d366a8b5fb9",
    ("bursts", True, 0.25, 7): "e5d5c72f319ad9c1",
    ("bursts", True, 0.25, 11): "6ab6faf41d185a77",
}


@pytest.fixture(scope="module")
def scenario():
    return class_balanced_fleet_scenario(
        n_classes=3, servers_per_class=4, seed=4_100, duration_s=600.0
    )


def trace_digest(trace) -> str:
    """SHA-256 prefix over every request's arrival, key, value and identity."""
    digest = hashlib.sha256()
    first_index: dict[int, int] = {}
    for index, request in enumerate(trace.requests):
        first = first_index.setdefault(id(request.record), index)
        line = (
            f"{float.hex(request.arrival_s)}|{request.key}|"
            f"{record_signature(request.record)!r}|{first}\n"
        )
        digest.update(line.encode("utf-8"))
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=str)
def test_trace_matches_golden_digest(scenario, case):
    arrival, by_class, whatif_fraction, seed = case
    trace = trace_from_scenario(
        scenario,
        N_REQUESTS,
        duration_s=30.0,
        arrival=arrival,
        seed=seed,
        whatif_fraction=whatif_fraction,
        key_fn=server_class_key if by_class else None,
    )
    assert trace.n_requests == N_REQUESTS
    assert trace_digest(trace) == GOLDEN[case]
