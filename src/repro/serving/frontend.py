"""Micro-batching request-queue front-end over the model registry.

The fleet's serving layer so far answers *batches* — callers that
already hold many records call :func:`~repro.serving.batch.predict_batch`
directly. Production traffic has the opposite shape: millions of small
queries, one record each, arriving continuously. This module is the
request-level service between the two: :class:`PredictionFrontend`
accepts single-record requests, enqueues them, and drains the queue in
micro-batches under a latency budget, so the per-request path inherits
the batched kernel evaluation (one Gram block per model per drain)
without any caller coordinating a batch.

Design points, each load-bearing:

* **Deterministic virtual time (R001).** The front-end never reads the
  wall clock: an injected :class:`VirtualClock` supplies ``now_s``, the
  closed-workload driver (:func:`serve_trace`) advances it to each
  request's arrival, and batch service time comes from a deterministic
  :class:`ServiceCostModel`. Replaying a trace replays every queue
  decision, timestamp, and cache outcome bit-identically; wall-clock
  throughput is measured only by ``benchmarks/``, outside ``src/``.

* **Latency budget semantics.** A batch drains when it reaches
  ``max_batch`` requests or when its *oldest* request has waited
  ``max_wait_s`` — whichever comes first. Deadline-triggered drains are
  stamped at the deadline itself (not at the next poll), and only
  requests that had arrived by that deadline join the batch, so no
  request ever records a queue wait above ``max_wait_s``.

* **Signature-keyed result cache with generation invalidation.** Results
  are cached under ``((canonical_key, entry.version),
  record_signature(record))`` — Eq. (2) value dedup
  (:mod:`repro.serving.signatures`). The version
  half is the invalidation: :meth:`~repro.serving.registry.ModelRegistry.swap`
  bumps the version and :meth:`~repro.serving.registry.ModelRegistry.promote`
  moves the canonical key, so a registry publish can never be served a
  stale cached value — old tokens simply stop being looked up. Cached
  values are the exact floats a cold compute produced, and
  ``EpsilonSVR.predict`` is batch-composition independent, so cache
  hits are bitwise identical to cold computes.

* **Snapshot-atomic dispatch.** Each drain resolves every key to its
  :class:`~repro.serving.registry.ModelEntry` exactly once, *before*
  computing, and runs the batch on those pinned entries. A ``swap`` or
  ``promote`` landing mid-drain (the ``on_dispatch`` hook exists to
  test precisely this) cannot split a batch across model versions:
  in-flight batches complete on the pre-swap snapshot — superseded
  entries stay valid by the registry's contract — and the next drain
  re-resolves to the new version.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.records import ExperimentRecord
from repro.errors import ConfigurationError, ServingError
from repro.serving.batch import PredictionRequest, predict_batch
from repro.serving.ledger import BatchRecord, ServingLedger
from repro.serving.registry import ModelEntry, ModelRegistry
from repro.serving.signatures import record_signature


class VirtualClock:
    """Injected, monotone time source for the serving front-end.

    Determinism (R001) forbids wall-clock reads inside ``src/``: the
    clock only moves when its owner advances it — the trace driver to
    each arrival, a test to wherever the scenario needs. Monotonicity is
    enforced because the queue's FIFO-by-arrival ordering (and therefore
    the deadline-cutoff logic in :meth:`PredictionFrontend.poll`)
    depends on submissions carrying non-decreasing timestamps.
    """

    def __init__(self, start_s: float = 0.0) -> None:
        if not np.isfinite(start_s):
            raise ConfigurationError(f"start_s must be finite, got {start_s}")
        self._now_s = float(start_s)

    @property
    def now_s(self) -> float:
        """Current virtual time in seconds."""
        return self._now_s

    def advance(self, delta_s: float) -> float:
        """Move the clock forward by ``delta_s`` seconds; returns the new time."""
        if not delta_s >= 0.0:  # rejects negatives and NaN alike
            raise ConfigurationError(
                f"clock can only advance forward, got delta {delta_s}"
            )
        self._now_s += float(delta_s)
        return self._now_s

    def advance_to(self, time_s: float) -> float:
        """Move the clock forward to the absolute ``time_s``."""
        if not time_s >= self._now_s:
            raise ConfigurationError(
                f"clock is at {self._now_s}s and cannot rewind to {time_s}s"
            )
        self._now_s = float(time_s)
        return self._now_s

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock(now_s={self._now_s:g})"


@dataclass(frozen=True)
class ServiceCostModel:
    """Deterministic virtual service time for one drained micro-batch.

    The virtual-latency counterpart of the wall-clock path: one fixed
    dispatch overhead per batch plus a per-record cost for every unique
    record actually pushed through the SVR and a (much smaller)
    per-lookup cost for cache hits. The defaults are fixed virtual
    constants, not a measurement of this code (a one-record miss costs
    tens of microseconds of wall time): they keep replayed latencies
    independent of the host, and they shape the p50/p99 scorecard, not
    any model output.
    """

    dispatch_overhead_s: float = 2e-3
    compute_per_record_s: float = 2.5e-4
    lookup_per_hit_s: float = 1e-5

    def __post_init__(self) -> None:
        for field_name in (
            "dispatch_overhead_s", "compute_per_record_s", "lookup_per_hit_s"
        ):
            value = getattr(self, field_name)
            if not value >= 0.0:
                raise ConfigurationError(
                    f"{field_name} must be >= 0, got {value}"
                )

    def batch_service_s(self, n_computed: int, n_hits: int) -> float:
        """Virtual seconds to serve a batch of ``n_computed`` + ``n_hits``."""
        if n_computed < 0 or n_hits < 0:
            raise ConfigurationError(
                f"batch counts must be >= 0, got ({n_computed}, {n_hits})"
            )
        return (
            self.dispatch_overhead_s
            + n_computed * self.compute_per_record_s
            + n_hits * self.lookup_per_hit_s
        )


@dataclass(frozen=True)
class FrontendConfig:
    """Latency-budget and cache knobs for :class:`PredictionFrontend`."""

    max_batch: int = 64
    max_wait_s: float = 0.02
    cache_enabled: bool = True
    cache_capacity: int = 65_536

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ConfigurationError(
                f"max_batch must be >= 1, got {self.max_batch}"
            )
        if not self.max_wait_s >= 0.0:
            raise ConfigurationError(
                f"max_wait_s must be >= 0, got {self.max_wait_s}"
            )
        if self.cache_capacity < 1:
            raise ConfigurationError(
                f"cache_capacity must be >= 1, got {self.cache_capacity}"
            )


class Ticket:
    """One submitted request's handle; resolves when its batch drains."""

    __slots__ = ("request_id", "key", "record", "arrival_s", "cache_hit", "_psi_c")

    def __init__(
        self, request_id: int, key: str, record: ExperimentRecord, arrival_s: float
    ) -> None:
        self.request_id = request_id
        self.key = key
        self.record = record
        self.arrival_s = arrival_s
        self.cache_hit: bool | None = None
        self._psi_c: float | None = None

    @property
    def done(self) -> bool:
        """Whether the request has been answered."""
        return self._psi_c is not None

    @property
    def psi_stable_c(self) -> float:
        """The answered ψ_stable forecast; raises while still queued."""
        if self._psi_c is None:
            raise ServingError(
                f"request {self.request_id} ({self.key!r}) is still queued; "
                "poll() or flush() the front-end first"
            )
        return self._psi_c

    def _resolve(self, psi_c: float, cache_hit: bool) -> None:
        """Answer the ticket exactly once (the front-end's core invariant)."""
        if self._psi_c is not None:
            raise ServingError(
                f"request {self.request_id} answered twice — a ticket "
                "re-entered the queue"
            )
        self._psi_c = psi_c
        self.cache_hit = cache_hit

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"psi={self._psi_c:.2f}C" if self.done else "queued"
        return f"Ticket(id={self.request_id}, key={self.key!r}, {state})"


#: Instrumentation hook fired per drain after snapshot pinning, before
#: compute — the window in which a concurrent swap/promote would land.
DispatchHook = Callable[[int, list[Ticket]], None]


class PredictionFrontend:
    """Request-queue serving: enqueue singles, drain micro-batches.

    Usage::

        frontend = PredictionFrontend(registry, FrontendConfig(max_batch=32))
        ticket = frontend.submit("16c/2.4ghz/64gb/4fan", record)
        frontend.clock.advance(0.05)
        frontend.poll()                  # drains expired latency budgets
        print(ticket.psi_stable_c)

    The registry is held as a **live view** (same contract as
    :class:`~repro.management.whatif.WhatIfScorer`): each drain resolves
    the *current* entry per key, pins it for that batch, and caches
    under a ``(canonical_key, version)`` generation token so hot-swaps
    are picked up immediately and never served stale.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        config: FrontendConfig | None = None,
        *,
        clock: VirtualClock | None = None,
        cost_model: ServiceCostModel | None = None,
        ledger: ServingLedger | None = None,
        on_dispatch: DispatchHook | None = None,
    ) -> None:
        self._registry = registry
        self._config = config or FrontendConfig()
        self._clock = clock or VirtualClock()
        self._costs = cost_model or ServiceCostModel()
        self._ledger = ledger or ServingLedger()
        self._on_dispatch = on_dispatch
        #: FIFO of unanswered tickets, ordered by (monotone) arrival.
        self._queue: deque[Ticket] = deque()
        #: LRU result cache: (generation token, signature id) → ψ (°C).
        self._cache: OrderedDict[tuple, float] = OrderedDict()
        # Signature interning: the full record signature (a nested tuple
        # over every VM) is hashed once per unique *value* and mapped to
        # a dense int, so the hot-path cache keys hash in O(1) instead
        # of walking the VM tuple on every dict operation. ``_sig_memo``
        # short-circuits even the signature construction for repeated
        # record *objects* (trace replays reuse them); it holds a strong
        # reference so an id() can never alias a collected record.
        self._sig_ids: dict[tuple, int] = {}
        self._sig_memo: dict[int, tuple[ExperimentRecord, int]] = {}
        self._next_request_id = 0
        self._n_batches = 0

    # -- introspection -------------------------------------------------------

    @property
    def clock(self) -> VirtualClock:
        """The injected virtual time source."""
        return self._clock

    @property
    def config(self) -> FrontendConfig:
        """The latency-budget/cache configuration."""
        return self._config

    @property
    def ledger(self) -> ServingLedger:
        """Per-request and per-batch accounting."""
        return self._ledger

    @property
    def pending(self) -> int:
        """Requests currently enqueued (submitted but not yet drained)."""
        return len(self._queue)

    @property
    def cache_size(self) -> int:
        """Entries currently held by the signature-keyed result cache."""
        return len(self._cache)

    # -- the request path ----------------------------------------------------

    def submit(self, key: str, record: ExperimentRecord) -> Ticket:
        """Enqueue one single-record prediction request.

        Returns immediately with a :class:`Ticket`; the answer lands when
        the request's batch drains — here if the queue just reached
        ``max_batch``, else at a later :meth:`poll`/:meth:`flush`.
        """
        ticket = Ticket(self._next_request_id, key, record, self._clock.now_s)
        self._next_request_id += 1
        self._queue.append(ticket)
        if len(self._queue) >= self._config.max_batch:
            self._dispatch(self._clock.now_s)
        return ticket

    def poll(self) -> int:
        """Drain every batch whose latency budget has expired; returns count.

        Each expired batch is stamped at its own deadline (oldest
        member's arrival + ``max_wait_s``), and only requests that had
        arrived by that deadline join it — the discrete-event reading of
        "the budget timer fired", which keeps every recorded queue wait
        within the budget no matter how late the poll runs.
        """
        drained = 0
        while self._queue:
            deadline_s = self._queue[0].arrival_s + self._config.max_wait_s
            if self._clock.now_s < deadline_s:
                break
            self._dispatch(deadline_s, cutoff_s=deadline_s)
            drained += 1
        return drained

    def flush(self) -> int:
        """Drain everything pending; returns the number of batches.

        Expired budgets drain at their deadlines first (exactly as
        :meth:`poll`), the remainder in ``max_batch`` chunks stamped now.
        """
        drained = self.poll()
        while self._queue:
            self._dispatch(self._clock.now_s)
            drained += 1
        return drained

    # -- the drain -----------------------------------------------------------

    def _signature_id(self, record: ExperimentRecord) -> int:
        """Dense int id of ``record``'s Eq. (2) value signature.

        Equal signatures always intern to the same id, so
        ``(generation token, signature id)`` keys the result cache
        exactly like the raw signature would — just cheaper to hash.
        When the intern table outgrows the cache by 4×, both are dropped
        together (ids must never be reassigned under live cache entries),
        bounding memory for long-running front-ends.
        """
        memo = self._sig_memo.get(id(record))
        if memo is not None and memo[0] is record:
            return memo[1]
        signature = record_signature(record)
        sig_id = self._sig_ids.get(signature)
        if sig_id is None:
            if len(self._sig_ids) >= 4 * self._config.cache_capacity:
                self._sig_ids.clear()
                self._sig_memo.clear()
                self._cache.clear()
            sig_id = len(self._sig_ids)
            self._sig_ids[signature] = sig_id
        if len(self._sig_memo) >= 4 * self._config.cache_capacity:
            self._sig_memo.clear()  # pure memo: safe to drop alone
        self._sig_memo[id(record)] = (record, sig_id)
        return sig_id

    def _dispatch(self, dispatch_s: float, cutoff_s: float | None = None) -> None:
        """Drain one micro-batch stamped at ``dispatch_s``.

        ``cutoff_s`` (deadline drains) excludes requests that arrived
        after the stamp; the queue is FIFO by arrival, so the eligible
        requests are exactly a prefix.
        """
        batch: list[Ticket] = []
        while self._queue and len(batch) < self._config.max_batch:
            if cutoff_s is not None and self._queue[0].arrival_s > cutoff_s:
                break
            batch.append(self._queue.popleft())
        if not batch:  # pragma: no cover - callers check the queue first
            return
        batch_index = self._n_batches
        self._n_batches += 1

        # Pin each key's serving snapshot exactly once, before compute:
        # a swap/promote landing after this point affects the *next*
        # batch, never this one (snapshot atomicity mid-queue).
        pinned: dict[str, tuple[ModelEntry, tuple[str, int]]] = {}
        for ticket in batch:
            if ticket.key not in pinned:
                entry = self._registry.resolve(ticket.key)
                token = (self._registry.canonical_key(ticket.key), entry.version)
                pinned[ticket.key] = (entry, token)
        if self._on_dispatch is not None:
            self._on_dispatch(batch_index, batch)

        # Classify: cache hits resolve immediately; misses dedup by
        # (generation token, record signature) so each unique Eq. (2)
        # input is computed once per batch.
        values: list[float | None] = [None] * len(batch)
        hits = [False] * len(batch)
        to_compute: dict[tuple, list[int]] = {}
        use_cache = self._config.cache_enabled
        cache = self._cache  # hot loop: bind attribute lookups once
        cache_get = cache.get
        cache_touch = cache.move_to_end
        signature_id = self._signature_id
        for position, ticket in enumerate(batch):
            cache_key = (pinned[ticket.key][1], signature_id(ticket.record))
            if use_cache:
                cached = cache_get(cache_key)
                if cached is not None:
                    cache_touch(cache_key)
                    values[position] = cached
                    hits[position] = True
                    continue
            to_compute.setdefault(cache_key, []).append(position)

        # Group the unique misses by pinned entry and evaluate each
        # group's kernel in one call — the predict_batch data path over
        # already-resolved entries. Batch-composition independence makes
        # the grouped results bit-identical to per-request point calls.
        by_entry: dict[int, tuple[ModelEntry, list[tuple[tuple, int]]]] = {}
        for cache_key, positions in to_compute.items():
            entry, _ = pinned[batch[positions[0]].key]
            by_entry.setdefault(id(entry), (entry, []))[1].append(
                (cache_key, positions[0])
            )
        n_computed = 0
        for entry, items in by_entry.values():
            psi = entry.predict_records([batch[pos].record for _, pos in items])
            n_computed += len(items)
            for (cache_key, first_pos), value in zip(items, psi):
                value = float(value)
                # Later same-signature requests in this batch ride the
                # dedup — accounted as hits even with the cache off.
                for position in to_compute[cache_key]:
                    values[position] = value
                    hits[position] = position != first_pos
                if use_cache:
                    self._cache[cache_key] = value
                    if len(self._cache) > self._config.cache_capacity:
                        self._cache.popitem(last=False)

        n_hits = len(batch) - n_computed
        service_s = self._costs.batch_service_s(n_computed, n_hits)
        completion_s = dispatch_s + service_s
        self._ledger.add_batch(
            BatchRecord(
                batch_index=batch_index,
                dispatch_s=dispatch_s,
                size=len(batch),
                unique_computed=n_computed,
                cache_hits=n_hits,
                service_s=service_s,
            )
        )
        batch_size = len(batch)
        record_request = self._ledger.record_request
        for position, ticket in enumerate(batch):
            ticket._resolve(values[position], hits[position])
            record_request(
                ticket.request_id,
                ticket.key,
                ticket.arrival_s,
                dispatch_s,
                completion_s,
                batch_index,
                batch_size,
                hits[position],
            )


# -- closed-workload drivers --------------------------------------------------


def serve_trace(frontend: PredictionFrontend, trace) -> list[Ticket]:
    """Replay a :class:`~repro.serving.traces.RequestTrace` through a front-end.

    The closed-workload driver: the front-end's clock advances to each
    request's arrival (polling expired budgets on the way), every request
    is submitted, and the queue is flushed at the trace's end. Returns
    the tickets in trace order, all answered; the latency scorecard is
    on ``frontend.ledger``. The trace's columns are iterated directly,
    without building row views.
    """
    tickets: list[Ticket] = []
    advance_to = frontend.clock.advance_to  # hot loop: bind lookups once
    poll = frontend.poll
    submit = frontend.submit
    append = tickets.append
    for arrival_s, key, record in zip(trace.arrivals_s, trace.keys, trace.records):
        advance_to(arrival_s)
        poll()
        append(submit(key, record))
    advance_to(trace.duration_s)
    frontend.flush()
    return tickets


def serve_naive(
    registry: ModelRegistry,
    trace,
    cost_model: ServiceCostModel | None = None,
) -> tuple[np.ndarray, ServingLedger]:
    """The per-request baseline: one point call per arrival, no queue, no cache.

    Each request is answered the moment it arrives by a size-1
    :func:`~repro.serving.batch.predict_batch` call. Returns the ψ_stable
    answers in trace order plus a ledger accounted under the same
    :class:`ServiceCostModel` (every request pays the full dispatch
    overhead — the shape micro-batching amortizes). The answers are the
    parity reference for the front-end: batched, deduped, and cached
    serving must reproduce them bit for bit.
    """
    costs = cost_model or ServiceCostModel()
    ledger = ServingLedger()
    psi_c = np.empty(trace.n_requests, dtype=float)
    service_s = costs.batch_service_s(1, 0)
    record_request = ledger.record_request
    add_batch = ledger.add_batch
    columns = zip(trace.arrivals_s, trace.keys, trace.records)
    for index, (arrival_s, key, record) in enumerate(columns):
        psi_c[index] = predict_batch(registry, [PredictionRequest(key, record)])[0]
        add_batch(
            BatchRecord(
                batch_index=index,
                dispatch_s=arrival_s,
                size=1,
                unique_computed=1,
                cache_hits=0,
                service_s=service_s,
            )
        )
        record_request(
            index,
            key,
            arrival_s,
            arrival_s,
            arrival_s + service_s,
            index,
            1,
            False,
        )
    return psi_c, ledger
