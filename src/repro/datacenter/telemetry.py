"""Telemetry pipeline: what the monitoring system records about a run.

The predictor only ever consumes telemetry — never the simulator's
internal state — mirroring the data sources the paper lists: VMM
statistics, temperature sensors, and the environment temperature feed.

Storage is columnar. A simulation records each step once, for its whole
fleet, into one :class:`TelemetryBlock` per fleet membership:

* the per-step channels (utilization, VM count, fan count, fan speed)
  share one step-time column, and each is a steps × slots array written
  in place, one row per step;
* the sampled channels (CPU temperature, predicted CPU temperature) get
  a row per step that has samples, with their own time column, plus a
  per-slot mask once a row covers only some slots.

Fleet-wide readers — the control tick's matured forecast error, the
retrain harvest, Eq. (1) — use array operations on the blocks
(:meth:`TelemetryCollector.window_stats`,
:meth:`TelemetryCollector.latest_forecasts`,
:meth:`TelemetryCollector.values_at`). Per-server readers get a
:class:`ServerTelemetry` bundle whose series are views of that server's
columns, so nothing is copied or transposed per server, and ``len`` and
``last`` stay O(1). :class:`TimeSeries` is the stand-alone append-only
series (the environment feed, window results, series built by hand).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.errors import TelemetryError

#: Initial capacity of a series' backing buffers, and of a block when
#: the step count is not known ahead.
_INITIAL_CAPACITY = 32

_EMPTY = np.empty(0, dtype=float)


class _SeriesReader:
    """Read API shared by stand-alone and block-backed series.

    Subclasses provide ``_arrays()`` (times and values, possibly views),
    ``__len__`` and ``last``.
    """

    __slots__ = ()

    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    @property
    def times(self) -> list[float]:
        """Sample times (view copy)."""
        return self._arrays()[0].tolist()

    @property
    def values(self) -> list[float]:
        """Sample values (view copy)."""
        return self._arrays()[1].tolist()

    def times_array(self) -> np.ndarray:
        """Sample times as a NumPy array (copy)."""
        return self._arrays()[0].copy()

    def values_array(self) -> np.ndarray:
        """Sample values as a NumPy array (copy)."""
        return self._arrays()[1].copy()

    def window(self, t0: float, t1: float) -> "TimeSeries":
        """Sub-series with ``t0 <= t < t1``."""
        times, values = self._arrays()
        lo = int(np.searchsorted(times, t0, side="left"))
        hi = int(np.searchsorted(times, t1, side="left"))
        out = TimeSeries(self.name)
        out.extend(times[lo:hi], values[lo:hi])
        return out

    def mean(self, t0: float | None = None, t1: float | None = None) -> float:
        """Mean value, optionally restricted to ``[t0, t1)``."""
        series = self
        if t0 is not None or t1 is not None:
            series = self.window(
                t0 if t0 is not None else float("-inf"),
                t1 if t1 is not None else float("inf"),
            )
        size = len(series)
        if not size:
            raise TelemetryError(f"series {self.name!r}: empty window")
        values = np.ascontiguousarray(series._arrays()[1])
        return float(values.sum() / size)

    def last_before(self, time_s: float) -> tuple[float, float]:
        """Latest (time, value) with time <= time_s."""
        times, values = self._arrays()
        idx = int(np.searchsorted(times, time_s, side="right")) - 1
        if idx < 0:
            raise TelemetryError(f"series {self.name!r}: no sample at or before {time_s}")
        return float(times[idx]), float(values[idx])

    def value_at(self, time_s: float) -> float:
        """Linear interpolation at ``time_s`` (clamped at the ends)."""
        if not len(self):
            raise TelemetryError(f"series {self.name!r} is empty")
        times, values = self._arrays()
        if time_s <= times[0]:
            return float(values[0])
        if time_s >= times[-1]:
            return float(values[-1])
        hi = int(np.searchsorted(times, time_s, side="left"))
        lo = hi - 1
        t0, t1 = times[lo], times[hi]
        v0, v1 = values[lo], values[hi]
        if t1 <= t0:
            return float(v1)
        frac = (time_s - t0) / (t1 - t0)
        return float(v0 + frac * (v1 - v0))

    def iter_samples(self):
        """Iterate (time, value) pairs."""
        return zip(self.times, self.values)


class TimeSeries(_SeriesReader):
    """Append-only time series with window statistics and interpolation."""

    __slots__ = ("name", "_times", "_values", "_size")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._times = np.empty(_INITIAL_CAPACITY, dtype=float)
        self._values = np.empty(_INITIAL_CAPACITY, dtype=float)
        self._size = 0

    # -- writing -----------------------------------------------------------

    def _reserve(self, extra: int) -> None:
        needed = self._size + extra
        capacity = self._times.shape[0]
        if needed <= capacity:
            return
        while capacity < needed:
            capacity *= 2
        times = np.empty(capacity, dtype=float)
        values = np.empty(capacity, dtype=float)
        times[: self._size] = self._times[: self._size]
        values[: self._size] = self._values[: self._size]
        self._times = times
        self._values = values

    def append(self, time_s: float, value: float) -> None:
        """Append a sample; times must be non-decreasing."""
        size = self._size
        if size and time_s < self._times[size - 1] - 1e-9:
            raise TelemetryError(
                f"series {self.name!r}: non-monotonic time {time_s} "
                f"after {self._times[size - 1]}"
            )
        self._reserve(1)
        self._times[size] = time_s
        self._values[size] = value
        self._size = size + 1

    def extend(self, times_s: np.ndarray, values: np.ndarray) -> None:
        """Append a batch of samples (times non-decreasing, aligned arrays)."""
        times_s = np.asarray(times_s, dtype=float)
        values = np.asarray(values, dtype=float)
        n = times_s.shape[0]
        if values.shape[0] != n:
            raise TelemetryError(
                f"series {self.name!r}: {n} times vs {values.shape[0]} values"
            )
        if n == 0:
            return
        if np.any(np.diff(times_s) < -1e-9):
            raise TelemetryError(f"series {self.name!r}: non-monotonic batch")
        size = self._size
        if size and times_s[0] < self._times[size - 1] - 1e-9:
            raise TelemetryError(
                f"series {self.name!r}: non-monotonic time {times_s[0]} "
                f"after {self._times[size - 1]}"
            )
        self._reserve(n)
        self._times[size : size + n] = times_s
        self._values[size : size + n] = values
        self._size = size + n

    # -- reading -----------------------------------------------------------

    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self._times[: self._size], self._values[: self._size]

    def last(self) -> tuple[float, float]:
        """Most recent (time, value) sample."""
        if not self._size:
            raise TelemetryError(f"series {self.name!r} is empty")
        return float(self._times[self._size - 1]), float(self._values[self._size - 1])

    def __len__(self) -> int:
        return self._size

    @property
    def nbytes(self) -> int:
        """Bytes held by the backing buffers."""
        return self._times.nbytes + self._values.nbytes


class _Rows:
    """Rows that share one time column: ``values[channel][row, slot]``.

    ``mask`` stays None while every row covers every slot. The first
    partial row allocates it (True for the rows before), and from then
    on ``counts`` and ``last_row`` track each slot's samples, so a
    server's ``len`` and ``last`` stay O(1). ``prior_last_s[slot]`` is
    the time of that server's last sample recorded before this block
    (``-inf`` if none); every row must come at or after all of them.
    """

    __slots__ = (
        "times", "values", "mask", "size", "counts", "last_row",
        "prior_last_s", "_last_s",
    )

    def __init__(self, n_channels: int, capacity: int, prior_last_s: np.ndarray) -> None:
        n_slots = prior_last_s.shape[0]
        self.times = np.empty(capacity, dtype=float)
        self.values = [np.empty((capacity, n_slots)) for _ in range(n_channels)]
        self.mask: np.ndarray | None = None
        self.size = 0
        self.counts: np.ndarray | None = None
        self.last_row: np.ndarray | None = None
        self.prior_last_s = prior_last_s
        #: The latest row's time (at first, the latest prior sample's).
        self._last_s = float(prior_last_s.max()) if n_slots else float("-inf")

    @property
    def capacity(self) -> int:
        return self.times.shape[0]

    @property
    def nbytes(self) -> int:
        """Bytes held by the time column, the value blocks and the mask."""
        total = self.times.nbytes + sum(block.nbytes for block in self.values)
        return total + (self.mask.nbytes if self.mask is not None else 0)

    def reserve(self, extra: int) -> None:
        """Make room for ``extra`` more rows (at least doubling on growth)."""
        size = self.size
        needed = size + extra
        capacity = self.capacity
        if needed <= capacity:
            return
        capacity = max(needed, 2 * capacity)
        times = np.empty(capacity, dtype=float)
        times[:size] = self.times[:size]
        self.times = times
        for k, block in enumerate(self.values):
            grown = np.empty((capacity, block.shape[1]))
            grown[:size] = block[:size]
            self.values[k] = grown
        if self.mask is not None:
            mask = np.empty((capacity, self.mask.shape[1]), dtype=bool)
            mask[:size] = self.mask[:size]
            self.mask = mask

    def write(self, time_s: float, rows: tuple[np.ndarray, ...], slots: np.ndarray | None) -> None:
        """Write one row in place: every slot, or only ``slots``."""
        if time_s < self._last_s - 1e-9:
            raise TelemetryError(
                f"fleet telemetry: non-monotonic time {time_s} after {self._last_s}"
            )
        size = self.size
        if size == self.times.shape[0]:
            self.reserve(1)
        self.times[size] = self._last_s = time_s
        mask = self.mask
        if slots is None:
            for block, row in zip(self.values, rows):
                block[size] = row
            if mask is not None:
                mask[size] = True
                self.counts += 1
                self.last_row[:] = size
        else:
            if mask is None:
                n_slots = self.prior_last_s.shape[0]
                self.mask = mask = np.empty((self.capacity, n_slots), dtype=bool)
                mask[:size] = True
                self.counts = np.full(n_slots, size, dtype=np.int64)
                self.last_row = np.full(n_slots, size - 1, dtype=np.intp)
            mask[size] = False
            mask[size, slots] = True
            for block, row in zip(self.values, rows):
                block[size] = np.nan
                block[size, slots] = row
            self.counts[slots] += 1
            self.last_row[slots] = size
        self.size = size + 1

    def count(self, slot: int) -> int:
        return self.size if self.mask is None else int(self.counts[slot])

    def last_index(self, slot: int) -> int:
        return self.size - 1 if self.mask is None else int(self.last_row[slot])

    def column(self, channel: int, slot: int) -> tuple[np.ndarray, np.ndarray]:
        """One slot's (times, values); views unless the rows are masked."""
        size = self.size
        times = self.times[:size]
        values = self.values[channel][:size, slot]
        if self.mask is None:
            return times, values
        keep = self.mask[:size, slot]
        return times[keep], values[keep]


class TelemetryBlock:
    """One fleet membership's telemetry, recorded once per step.

    ``steps`` holds the per-step channels (utilization, VM count, fan
    count, fan speed) under one step-time column; ``samples`` the CPU
    sensor readings and ``forecasts`` the Δ_gap-ahead forecasts (at
    their target times), each with its own time column. Slot ``i`` is
    server ``names[i]``.
    """

    def __init__(self, names: list[str], capacity: int, prior: dict[str, np.ndarray]) -> None:
        self.names = list(names)
        #: The list the block was last matched against (identity fast path).
        self.key = names
        self.index = {name: slot for slot, name in enumerate(self.names)}
        self.steps = _Rows(4, capacity, prior["steps"])
        self.samples = _Rows(1, capacity, prior["samples"])
        self.forecasts = _Rows(1, capacity, prior["forecasts"])

    @property
    def n_slots(self) -> int:
        return len(self.names)

    @property
    def nbytes(self) -> int:
        return self.steps.nbytes + self.samples.nbytes + self.forecasts.nbytes

    def reserve(self, n_steps: int) -> None:
        for rows in (self.steps, self.samples, self.forecasts):
            rows.reserve(n_steps)

    def slots_of(self, names) -> np.ndarray:
        """Slot of each name, -1 for names outside this membership."""
        index = self.index
        return np.fromiter(
            (index.get(name, -1) for name in names), dtype=np.intp, count=len(names)
        )


def _last_time(series: "ServerSeries") -> float:
    return series.last()[0] if len(series) else float("-inf")


#: Series name → (row group, channel) inside a block.
_CHANNELS = {
    "utilization": ("steps", 0),
    "vm_count": ("steps", 1),
    "fan_count": ("steps", 2),
    "fan_speed": ("steps", 3),
    "cpu_temperature": ("samples", 0),
    "predicted_cpu_temperature": ("forecasts", 0),
}


class ServerSeries(_SeriesReader):
    """One server's series in one channel, read in place.

    The samples are the server's column in each block it belonged to,
    in recording order, preceded by any samples appended directly before
    the first block (series built by hand). Nothing is copied until a
    reader asks for arrays, and ``len``/``last`` are O(1).
    """

    __slots__ = ("name", "_own", "_segments")

    def __init__(self, name: str) -> None:
        self.name = name
        self._own: TimeSeries | None = None
        #: (rows, channel, slot) per block the server belonged to.
        self._segments: list[tuple[_Rows, int, int]] = []

    def append(self, time_s: float, value: float) -> None:
        """Append a sample by hand (only before any fleet recording)."""
        if self._segments:
            raise TelemetryError(
                f"series {self.name!r} is recorded by fleet telemetry blocks; "
                "it cannot be appended to by hand"
            )
        if self._own is None:
            self._own = TimeSeries(self.name)
        self._own.append(time_s, value)

    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        parts = []
        if self._own is not None and len(self._own):
            parts.append(self._own._arrays())
        for rows, channel, slot in self._segments:
            if rows.count(slot):
                parts.append(rows.column(channel, slot))
        if not parts:
            return _EMPTY, _EMPTY
        if len(parts) == 1:
            return parts[0]
        return (
            np.concatenate([times for times, _ in parts]),
            np.concatenate([values for _, values in parts]),
        )

    def __len__(self) -> int:
        total = len(self._own) if self._own is not None else 0
        for rows, _, slot in self._segments:
            total += rows.count(slot)
        return total

    def last(self) -> tuple[float, float]:
        """Most recent (time, value) sample."""
        for rows, channel, slot in reversed(self._segments):
            row = rows.last_index(slot)
            if row >= 0:
                return float(rows.times[row]), float(rows.values[channel][row, slot])
        if self._own is not None and len(self._own):
            return self._own.last()
        raise TelemetryError(f"series {self.name!r} is empty")

    @property
    def nbytes(self) -> int:
        """Bytes this server holds of its own (the blocks are shared)."""
        return self._own.nbytes if self._own is not None else 0


@dataclass
class ServerTelemetry:
    """All series collected for one server.

    ``predicted_cpu_temperature`` holds Δ_gap-ahead forecasts recorded at
    their *target* times by the fleet prediction service
    (:class:`repro.serving.fleet.FleetPredictionProbe`), so it aligns
    directly against the measured ``cpu_temperature`` series for
    predicted-vs-actual analysis.
    """

    server_name: str
    cpu_temperature: ServerSeries = field(default_factory=lambda: ServerSeries("cpu_temperature"))
    utilization: ServerSeries = field(default_factory=lambda: ServerSeries("utilization"))
    vm_count: ServerSeries = field(default_factory=lambda: ServerSeries("vm_count"))
    fan_count: ServerSeries = field(default_factory=lambda: ServerSeries("fan_count"))
    fan_speed: ServerSeries = field(default_factory=lambda: ServerSeries("fan_speed"))
    predicted_cpu_temperature: ServerSeries = field(
        default_factory=lambda: ServerSeries("predicted_cpu_temperature")
    )


class WindowStats(NamedTuple):
    """Each server's samples in a window: count, mean, min and max.

    ``means``, ``lows`` and ``highs`` are NaN where ``counts`` is 0.
    """

    counts: np.ndarray
    means: np.ndarray
    lows: np.ndarray
    highs: np.ndarray


class TelemetryCollector:
    """Collects per-server series plus the shared environment feed."""

    def __init__(self) -> None:
        self._servers: dict[str, ServerTelemetry] = {}
        self.environment = TimeSeries("environment")
        self._log: list[tuple[float, str]] = []
        self._blocks: list[TelemetryBlock] = []
        #: Steps the current run still expects (sizes a block opened mid-run).
        self._expected_steps = 0

    def for_server(self, server_name: str) -> ServerTelemetry:
        """Telemetry bundle for one server (created on first use)."""
        bundle = self._servers.get(server_name)
        if bundle is None:
            bundle = self._servers[server_name] = ServerTelemetry(server_name)
        return bundle

    @property
    def server_names(self) -> list[str]:
        """Servers with any telemetry."""
        return sorted(self._servers)

    @property
    def blocks(self) -> tuple[TelemetryBlock, ...]:
        """The recorded blocks, one per fleet membership, oldest first."""
        return tuple(self._blocks)

    @property
    def nbytes(self) -> int:
        """Bytes held by every block, hand-built series and the environment feed."""
        total = self.environment.nbytes + sum(block.nbytes for block in self._blocks)
        for bundle in self._servers.values():
            for series_name in _CHANNELS:
                total += getattr(bundle, series_name).nbytes
        return total

    def record_environment(self, time_s: float, temperature_c: float) -> None:
        """Append a sample to the shared environment feed."""
        self.environment.append(time_s, temperature_c)

    def log_event(self, time_s: float, message: str) -> None:
        """Record a simulation log line."""
        self._log.append((time_s, message))

    @property
    def event_log(self) -> list[tuple[float, str]]:
        """All (time, message) log lines."""
        return list(self._log)

    # -- fleet recording -----------------------------------------------------

    def reserve_steps(self, n_steps: int) -> None:
        """Make room for ``n_steps`` more recorded steps.

        The simulation calls this with each run's step count, so a run
        writes its rows without growing the blocks.
        """
        self._expected_steps = n_steps
        if self._blocks:
            self._blocks[-1].reserve(n_steps)

    def _block_for(self, server_names: list[str]) -> TelemetryBlock:
        """The block of this fleet membership, opening one on a change."""
        if self._blocks:
            block = self._blocks[-1]
            if len(server_names) == block.n_slots:
                if server_names is block.key:
                    return block
                if server_names == block.names:
                    block.key = server_names
                    return block
        return self._open_block(server_names)

    def _open_block(self, server_names: list[str]) -> TelemetryBlock:
        bundles = [self.for_server(name) for name in server_names]
        prior = {}
        for group in ("steps", "samples", "forecasts"):
            series = [name for name, (g, _) in _CHANNELS.items() if g == group]
            prior[group] = np.array(
                [max(_last_time(getattr(b, name)) for name in series) for b in bundles],
                dtype=float,
            )
        block = TelemetryBlock(
            server_names, max(self._expected_steps, _INITIAL_CAPACITY), prior
        )
        for slot, bundle in enumerate(bundles):
            for series_name, (group, channel) in _CHANNELS.items():
                getattr(bundle, series_name)._segments.append(
                    (getattr(block, group), channel, slot)
                )
        self._blocks.append(block)
        return block

    def record_fleet_step(
        self,
        time_s: float,
        server_names: list[str],
        utilization: np.ndarray,
        vm_counts: np.ndarray,
        fan_counts: np.ndarray,
        fan_speeds: np.ndarray,
    ) -> None:
        """Record one co-simulation step for a whole fleet at once.

        All arrays are indexed like ``server_names`` and are copied into
        one row of the membership's block.
        """
        self._block_for(server_names).steps.write(
            time_s, (utilization, vm_counts, fan_counts, fan_speeds), None
        )
        if self._expected_steps:
            self._expected_steps -= 1

    def record_fleet_cpu_samples(
        self,
        time_s: float,
        server_names: list[str],
        values: np.ndarray,
        slots: np.ndarray | None = None,
    ) -> None:
        """Record one step's sensor samples as one row.

        ``values`` covers every server of ``server_names``, or only the
        (ascending) ``slots`` that sampled.
        """
        self._write_sampled("samples", time_s, server_names, values, slots)

    def record_fleet_forecasts(
        self,
        target_time_s: float,
        server_names: list[str],
        values: np.ndarray,
        slots: np.ndarray | None = None,
    ) -> None:
        """Record one step's Δ_gap-ahead forecasts as one row at their
        (shared) target time, for every server or only ``slots``."""
        self._write_sampled("forecasts", target_time_s, server_names, values, slots)

    def _write_sampled(self, group, time_s, server_names, values, slots) -> None:
        block = self._block_for(server_names)
        if slots is not None and slots.shape[0] == block.n_slots:
            slots = None
        getattr(block, group).write(time_s, (values,), slots)

    # -- fleet-wide reads ----------------------------------------------------

    def _unmasked(self, series_name: str, names):
        """``(rows, values, slots)`` of the latest block's ``series_name``
        rows, or None when there are none or they are masked; ``slots``
        is -1 for names outside the block."""
        if not self._blocks:
            return None
        block = self._blocks[-1]
        group, channel = _CHANNELS[series_name]
        rows = getattr(block, group)
        if rows.mask is not None or not rows.size:
            return None
        return rows, rows.values[channel], block.slots_of(names)

    def window_stats(self, series_name: str, names, t0: float, t1: float) -> WindowStats:
        """Each named server's ``series_name`` samples in ``[t0, t1)``.

        Servers whose window lies in the latest block's unmasked rows are
        read from one slot-major copy of the window; the rest through
        their per-server series. Parity:
        repro.datacenter.telemetry.TimeSeries.window — ``means[i]`` is
        bitwise ``window(t0, t1).mean()`` of server ``i``'s series.
        """
        n = len(names)
        counts = np.zeros(n, dtype=np.int64)
        means, lows, highs = (np.full(n, np.nan) for _ in range(3))
        done = np.zeros(n, dtype=bool)
        latest = self._unmasked(series_name, names)
        if latest is not None:
            rows, values, slots = latest
            inside = slots >= 0
            # No sample from an earlier block may fall in the window.
            done[inside] = rows.prior_last_s[slots[inside]] < t0
            idx = np.flatnonzero(done)
            lo, hi = np.searchsorted(rows.times[: rows.size], (t0, t1)).tolist()
            if idx.size and hi > lo:
                # Slot-major rows sum like the per-server 1-D window.
                window = values[lo:hi].T[slots[idx]]
                counts[idx] = hi - lo
                means[idx] = window.sum(axis=1) / (hi - lo)
                lows[idx] = window.min(axis=1)
                highs[idx] = window.max(axis=1)
        for i in np.flatnonzero(~done).tolist():
            window = getattr(self.for_server(names[i]), series_name).window(t0, t1)
            if len(window):
                values = window._arrays()[1]
                counts[i] = len(window)
                means[i] = window.mean()
                lows[i], highs[i] = values.min(), values.max()
        return WindowStats(counts, means, lows, highs)

    def latest_forecasts(self, names, time_s: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each named server's latest forecast targeted at or before ``time_s``.

        Returns ``(target_times_s, predicted_c, found)``. Parity:
        repro.datacenter.telemetry.ServerSeries.last_before — each found
        pair is bitwise ``predicted_cpu_temperature.last_before(time_s)``.
        """
        n = len(names)
        targets, predicted = np.full(n, np.nan), np.full(n, np.nan)
        found = np.zeros(n, dtype=bool)
        latest = self._unmasked("predicted_cpu_temperature", names)
        if latest is not None:
            rows, values, slots = latest
            row = int(np.searchsorted(rows.times[: rows.size], time_s, side="right")) - 1
            if row >= 0:
                found = slots >= 0
                targets[found] = rows.times[row]
                predicted[found] = values[row, slots[found]]
        for i in np.flatnonzero(~found).tolist():
            series = self.for_server(names[i]).predicted_cpu_temperature
            try:
                targets[i], predicted[i] = series.last_before(time_s)
            except TelemetryError:
                continue
            found[i] = True
        return targets, predicted, found

    def values_at(self, series_name: str, names, times_s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each named server's ``series_name`` interpolated at its time.

        Returns ``(values, found)``; ``found`` is False for servers with
        no samples. Parity: repro.datacenter.telemetry.ServerSeries.value_at
        — each found value is bitwise ``value_at(times_s[i])``: the same
        end clamps, ``side="left"`` search and ``v0 + frac·(v1 − v0)``.
        """
        n = len(names)
        times_s = np.asarray(times_s, dtype=float)
        out = np.full(n, np.nan)
        found = np.zeros(n, dtype=bool)
        latest = self._unmasked(series_name, names)
        if latest is not None:
            rows, values, slots = latest
            size = rows.size
            times = rows.times[:size]
            inside = slots >= 0
            # At or before the block's first row the answer may lie in an
            # earlier block, so only servers new in this block are read.
            first = times_s <= times[0]
            new = np.zeros(n, dtype=bool)
            new[inside] = rows.prior_last_s[slots[inside]] == -np.inf
            found = inside & (new | ~first)
            idx = np.flatnonzero(found)
            slot, tau, first = slots[idx], times_s[idx], first[idx]
            last = ~first & (tau >= times[size - 1])
            mid = ~first & ~last
            result = np.empty(idx.size)
            result[first] = values[0, slot[first]]
            result[last] = values[size - 1, slot[last]]
            hi = np.searchsorted(times, tau[mid], side="left")
            lo = hi - 1
            # times[lo] < tau <= times[hi] here, so t1 > t0.
            t0, t1 = times[lo], times[hi]
            v0, v1 = values[lo, slot[mid]], values[hi, slot[mid]]
            frac = (tau[mid] - t0) / (t1 - t0)
            result[mid] = v0 + frac * (v1 - v0)
            out[idx] = result
        for i in np.flatnonzero(~found).tolist():
            series = getattr(self.for_server(names[i]), series_name)
            if len(series):
                out[i] = series.value_at(float(times_s[i]))
                found[i] = True
        return out, found

    # -- derived quantities ------------------------------------------------

    def stable_cpu_temperature(
        self, server_name: str, t_break_s: float, t_exp_s: float
    ) -> float:
        """The paper's Eq. (1): mean sampled CPU temperature over
        ``[t_break, t_exp]``."""
        stats = self.window_stats(
            "cpu_temperature", [server_name], t_break_s, t_exp_s + 1e-9
        )
        if not stats.counts[0]:
            raise TelemetryError(
                f"no CPU temperature samples for {server_name!r} in "
                f"[{t_break_s}, {t_exp_s}]"
            )
        return float(stats.means[0])
