"""Per-request serving accounting for the micro-batching front-end.

The front-end's value proposition is a latency/throughput trade — hold
requests a bounded ``max_wait_s`` to batch them — so its accounting must
be per-request, not per-batch: every submitted request gets exactly one
request row (arrival, dispatch, completion, batch membership, cache
outcome), every drained batch exactly one :class:`BatchRecord`, and
:class:`ServingLedger` aggregates them into the latency scorecard
(p50/p99 latency, mean queue wait, batch-size and cache-hit statistics)
the ``fleet-serve`` CLI and ``benchmarks/test_serving_frontend.py``
report.

Internally the ledger stores request rows as parallel columns (the same
structure-of-arrays treatment the fleet core got): the serving hot path
appends eight scalars per request via :meth:`ServingLedger.record_request`
instead of constructing a frozen dataclass, and the aggregate statistics
reduce over contiguous arrays. :class:`RequestRecord` remains the
per-request *view* — :attr:`ServingLedger.requests` materializes rows on
demand for tests and offline analysis.

All timestamps are *virtual* seconds from the front-end's injected
:class:`~repro.serving.frontend.VirtualClock` — deterministic replay is
the repo's R001 contract — while wall-clock throughput is measured only
by the benchmarks that drive the ledger from outside ``src/``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ServingError


@dataclass(frozen=True)
class RequestRecord:
    """One answered request's lifecycle timestamps and batch membership.

    A row view rebuilt from columns :meth:`ServingLedger.record_request`
    already validated.
    """

    request_id: int
    key: str
    arrival_s: float
    dispatch_s: float
    completion_s: float
    batch_index: int
    batch_size: int
    cache_hit: bool

    @property
    def queue_wait_s(self) -> float:
        """Time spent enqueued before the batch drained."""
        return self.dispatch_s - self.arrival_s

    @property
    def latency_s(self) -> float:
        """End-to-end latency: arrival to answered."""
        return self.completion_s - self.arrival_s


@dataclass(frozen=True)
class BatchRecord:
    """One drained micro-batch: size, dedup outcome, and service time."""

    batch_index: int
    dispatch_s: float
    size: int
    unique_computed: int
    cache_hits: int
    service_s: float

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ServingError(
                f"batch {self.batch_index}: size must be >= 1, got {self.size}"
            )
        if self.unique_computed + self.cache_hits != self.size:
            raise ServingError(
                f"batch {self.batch_index}: {self.unique_computed} computed + "
                f"{self.cache_hits} cache hits != size {self.size} — a request "
                "was double-counted or dropped"
            )


class ServingLedger:
    """Append-only record of every request and batch the front-end served.

    The batch-level conservation check in :class:`BatchRecord` plus the
    per-request append in :meth:`record_request` give the front-end's
    answered-exactly-once invariant a paper trail: ``n_requests`` equals
    the sum of batch sizes, and every request belongs to exactly one
    batch.
    """

    def __init__(self) -> None:
        # Parallel request columns (SoA); RequestRecord is the row view.
        self._request_ids: list[int] = []
        self._keys: list[str] = []
        self._arrivals_s: list[float] = []
        self._dispatches_s: list[float] = []
        self._completions_s: list[float] = []
        self._batch_indices: list[int] = []
        self._batch_sizes: list[int] = []
        self._cache_hits: list[bool] = []
        self.batches: list[BatchRecord] = []

    # -- recording -----------------------------------------------------------

    def record_request(
        self,
        request_id: int,
        key: str,
        arrival_s: float,
        dispatch_s: float,
        completion_s: float,
        batch_index: int,
        batch_size: int,
        cache_hit: bool,
    ) -> None:
        """Append one answered request (columnar hot path).

        The only write path for request rows, so the lifecycle checks
        (dispatch after arrival, completion after dispatch, a batch of
        at least one) live here and not on the :class:`RequestRecord`
        view.
        """
        if dispatch_s < arrival_s:
            raise ServingError(
                f"request {request_id}: dispatched at {dispatch_s} before "
                f"its arrival at {arrival_s}"
            )
        if completion_s < dispatch_s:
            raise ServingError(
                f"request {request_id}: completed at {completion_s} before "
                f"its dispatch at {dispatch_s}"
            )
        if batch_size < 1:
            raise ServingError(
                f"request {request_id}: batch_size must be >= 1, "
                f"got {batch_size}"
            )
        self._request_ids.append(request_id)
        self._keys.append(key)
        self._arrivals_s.append(arrival_s)
        self._dispatches_s.append(dispatch_s)
        self._completions_s.append(completion_s)
        self._batch_indices.append(batch_index)
        self._batch_sizes.append(batch_size)
        self._cache_hits.append(cache_hit)

    # reprolint: waive R004 -- appends one BatchRecord row; "batch" names
    # the ledger entity being recorded, not a vectorized variant of add.
    def add_batch(self, record: BatchRecord) -> None:
        """Append one drained batch."""
        self.batches.append(record)

    # -- aggregation ---------------------------------------------------------

    @property
    def requests(self) -> list[RequestRecord]:
        """Per-request rows, materialized from the columns on demand."""
        return [
            RequestRecord(*row)
            for row in zip(
                self._request_ids,
                self._keys,
                self._arrivals_s,
                self._dispatches_s,
                self._completions_s,
                self._batch_indices,
                self._batch_sizes,
                self._cache_hits,
            )
        ]

    @property
    def n_requests(self) -> int:
        """Requests answered so far."""
        return len(self._request_ids)

    @property
    def n_batches(self) -> int:
        """Batches drained so far."""
        return len(self.batches)

    def latencies_s(self) -> np.ndarray:
        """Per-request end-to-end latency, in request order."""
        return np.asarray(self._completions_s, dtype=float) - np.asarray(
            self._arrivals_s, dtype=float
        )

    def queue_waits_s(self) -> np.ndarray:
        """Per-request queue wait, in request order."""
        return np.asarray(self._dispatches_s, dtype=float) - np.asarray(
            self._arrivals_s, dtype=float
        )

    def percentile_latency_s(self, q: float) -> float:
        """The ``q``-th percentile of end-to-end latency (q in [0, 100])."""
        if not self._request_ids:
            raise ServingError("ledger holds no requests; nothing to rank")
        if not 0.0 <= q <= 100.0:
            raise ServingError(f"percentile must be in [0, 100], got {q}")
        return float(np.percentile(self.latencies_s(), q))

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of answered requests served from the signature cache."""
        if not self._request_ids:
            return 0.0
        return sum(self._cache_hits) / len(self._cache_hits)

    @property
    def mean_batch_size(self) -> float:
        """Mean drained batch size."""
        if not self.batches:
            return 0.0
        return sum(b.size for b in self.batches) / len(self.batches)

    def summary(self) -> dict[str, float]:
        """The latency scorecard as one flat dict (all floats, JSON-ready)."""
        if not self._request_ids:
            return {
                "n_requests": 0.0,
                "n_batches": 0.0,
                "mean_batch_size": 0.0,
                "unique_computed": 0.0,
                "cache_hit_rate": 0.0,
                "mean_queue_wait_s": 0.0,
                "p50_latency_s": 0.0,
                "p99_latency_s": 0.0,
                "max_latency_s": 0.0,
                "virtual_makespan_s": 0.0,
            }
        latencies_s = self.latencies_s()
        return {
            "n_requests": float(len(self._request_ids)),
            "n_batches": float(len(self.batches)),
            "mean_batch_size": float(self.mean_batch_size),
            "unique_computed": float(
                sum(b.unique_computed for b in self.batches)
            ),
            "cache_hit_rate": float(self.cache_hit_rate),
            "mean_queue_wait_s": float(np.mean(self.queue_waits_s())),
            "p50_latency_s": float(np.percentile(latencies_s, 50.0)),
            "p99_latency_s": float(np.percentile(latencies_s, 99.0)),
            "max_latency_s": float(np.max(latencies_s)),
            "virtual_makespan_s": float(
                max(self._completions_s) - min(self._arrivals_s)
            ),
        }
