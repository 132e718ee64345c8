"""Digital thermal sensor model.

The learner never sees the plant's true state — only what a sensor
reports: the true temperature corrupted by Gaussian read noise, then
quantized to the sensor's register resolution, sampled on a fixed period.
This mirrors the information available from IPMI/coretemp on the paper's
testbed.

A sensor owns only its noise stream (one named ``random.Random``) and
its sampling schedule; it keeps no history. The simulation records every
sample once, into the telemetry ``cpu_temperature`` series, and
publishes each step's samples to probes as arrays
(:class:`~repro.datacenter.simulation.StepColumns`).

Where the state lives. An unbound sensor keeps its deadline in itself
and draws noise through its own ``random.Random.gauss``. A
:class:`SensorBank` binds its sensors: while bound, the bank holds every
sensor's deadline, Mersenne Twister key and position and pending
``gauss_next`` as array columns, and the sensor reads and writes them
there — a direct :meth:`TemperatureSensor.read` or
:meth:`~TemperatureSensor.maybe_sample` on a bound sensor draws the same
stream the bank draws, so nothing is handed back between draws.
:meth:`SensorBank.unbind` writes each stream and deadline back into the
sensor objects. The simulation binds a bank whenever it builds its
fleet view and unbinds it when it drops the view: on a membership
change, a switch to the per-server reference path, or the end of a run.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from repro.config import SensorConfig
from repro.errors import ConfigurationError
from repro.rng import RngStream

#: MT19937 key length (CPython's ``_randommodule.c``).
_N = 624
_UPPER = np.uint32(0x80000000)
_LOWER = np.uint32(0x7FFFFFFF)
_MATRIX_A = np.uint32(0x9908B0DF)
#: ``random.TWOPI``.
_TWO_PI = 2.0 * math.pi
#: ``random()`` scale: 2**-53.
_INV_2_53 = 1.0 / 9007199254740992.0
#: Key words whose draws a bank refill computes per stream: 13 draw
#: pairs, so a key splits into 12 chunks and a short run computes few
#: draws it never takes.
_CHUNK = 52
_CHUNK_COLUMNS = np.arange(_CHUNK)
_NO_VALUES = np.empty(0, dtype=float)


def _mixed(upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """The twist's ``(y >> 1) ^ mag01[y & 1]`` over word pairs."""
    y = (upper & _UPPER) | (lower & _LOWER)
    return (y >> 1) ^ (_MATRIX_A * (y & 1))


def _twist(key: np.ndarray) -> None:
    """Regenerate each row's 624-word MT19937 key in place.

    Word ``k`` of the new key needs old words ``k`` and ``k + 1`` and
    word ``(k + 397) mod 624`` — still old below ``k = 227``, already new
    from there on — so the sequential C loop splits into four vectorized
    chunks, each reading only words the chunks before it finished.
    """
    key[:, :227] = key[:, 397:] ^ _mixed(key[:, :227], key[:, 1:228])
    key[:, 227:454] = key[:, :227] ^ _mixed(key[:, 227:454], key[:, 228:455])
    key[:, 454:623] = key[:, 227:396] ^ _mixed(key[:, 454:623], key[:, 455:624])
    key[:, 623] = key[:, 396] ^ _mixed(key[:, 623], key[:, 0])


def _normals(words: np.ndarray) -> np.ndarray:
    """The ``gauss()`` values a run of raw key words yields, in order.

    ``words`` is ``(rows, 4·k)``: each row's next ``k`` draw pairs. A
    pair takes four tempered words: two ``random()`` values
    ``(a >> 5, b >> 6) → (a·2**26 + b)·2**-53``, then CPython's
    Box–Muller (cosine first, sine carried in ``gauss_next``). The log,
    cosine and sine go through :mod:`math` so every value is bit for
    bit what ``random.Random.gauss`` returns; ``np.log`` rounds
    differently on some inputs.
    """
    y = words ^ (words >> 11)
    y ^= (y << 7) & np.uint32(0x9D2C5680)
    y ^= (y << 15) & np.uint32(0xEFC60000)
    y ^= y >> 18
    rows, pairs = words.shape[0], words.shape[1] // 4
    quads = y.reshape(rows, pairs, 4).astype(np.int64)
    u1 = ((quads[..., 0] >> 5) * 67108864 + (quads[..., 1] >> 6)) * _INV_2_53
    u2 = ((quads[..., 2] >> 5) * 67108864 + (quads[..., 3] >> 6)) * _INV_2_53
    x2pi = (u1 * _TWO_PI).ravel().tolist()
    count = len(x2pi)
    log = np.fromiter(map(math.log, (1.0 - u2).ravel().tolist()), float, count)
    g2rad = np.sqrt(-2.0 * log)
    out = np.empty((rows, 2 * pairs))
    out[:, 0::2] = (np.fromiter(map(math.cos, x2pi), float, count) * g2rad).reshape(rows, pairs)
    out[:, 1::2] = (np.fromiter(map(math.sin, x2pi), float, count) * g2rad).reshape(rows, pairs)
    return out


class TemperatureSensor:
    """Noisy, quantized, periodically sampled temperature sensor.

    Parameters
    ----------
    config:
        Noise/quantization/sampling parameters.
    rng:
        Dedicated random stream for this sensor's read noise. While a
        :class:`SensorBank` binds the sensor, the stream's state lives in
        the bank and the stream object is stale until the bank unbinds.
    """

    def __init__(self, config: SensorConfig, rng: RngStream) -> None:
        self.config = config
        self._rng = rng
        self._deadline_s = 0.0
        self._bank: SensorBank | None = None
        self._row = -1

    @property
    def _next_sample_time(self) -> float:
        if self._bank is not None:
            return float(self._bank._next[self._row])
        return self._deadline_s

    @_next_sample_time.setter
    def _next_sample_time(self, value: float) -> None:
        if self._bank is not None:
            self._bank._next[self._row] = value
        else:
            self._deadline_s = value

    def read(self, true_temperature_c: float) -> float:
        """Take an immediate (out-of-schedule) reading, in °C."""
        std = self.config.noise_std_c
        if self._bank is None:
            noise = self._rng.gauss(0.0, std)
        else:
            noise = 0.0 + float(self._bank._draw(np.array([self._row]))[0]) * std
        value = true_temperature_c + noise
        q = self.config.quantization_c
        if q > 0:
            value = round(value / q) * q
        return value

    def maybe_sample(self, time_s: float, true_temperature_c: float) -> float | None:
        """Sample if the sampling period elapsed; return the reading or None.

        Intended to be called every simulation step; the sensor keeps its
        own schedule so the solver step and sampling period are decoupled.
        """
        next_time = self._next_sample_time
        if time_s + 1e-9 < next_time:
            return None
        value = self.read(true_temperature_c)
        next_time = next_time + self.config.sampling_period_s
        # If the simulation jumped past several periods, re-anchor rather
        # than emitting a burst of stale samples.
        if next_time <= time_s:
            next_time = time_s + self.config.sampling_period_s
        self._next_sample_time = next_time
        return value

    def reset(self) -> None:
        """Restart the sampling schedule."""
        self._next_sample_time = 0.0


class SensorBank:
    """Vectorized sampling over many sensors, holding their state.

    The fleet co-simulation loop calls :meth:`sample_due` every step.
    The due check is one array comparison, and the noise of every due
    sensor comes from array columns the bank holds: each bound sensor's
    deadline, its Mersenne Twister key (one row of an ``(n, 624)``
    ``uint32`` block), its position in that key, its pending
    ``gauss_next``, and the normal draws of the 52-word key chunk it is
    drawing from. The bank twists the keys of all streams that spent
    theirs at once, and refills the draws of all streams that moved to
    a new chunk at once. Noise addition and quantization are
    vectorized too, so a bank produces exactly the values — same draws,
    same rounding — as per-sensor :meth:`TemperatureSensor.maybe_sample`
    polling, including the burst re-anchor after a time jump.

    Binding reads each stream's ``getstate()``; :meth:`unbind` writes it
    back with ``setstate()`` and releases the sensors. A sensor stream is
    drawn only through ``gauss``, four key words a pair, so a stream
    whose position is not a multiple of four (it drew something else,
    e.g. one ``random()``) is refused with :class:`ConfigurationError`.
    A sensor bound to another bank is released from that bank first.
    """

    def __init__(self, sensors: list[TemperatureSensor]) -> None:
        self.sensors = list(sensors)
        for sensor in self.sensors:
            if sensor._bank is not None:
                sensor._bank.unbind()
        n = len(self.sensors)
        configs = [s.config for s in self.sensors]
        self._noise_std = np.array([c.noise_std_c for c in configs], dtype=float)
        self._quant = np.array([c.quantization_c for c in configs], dtype=float)
        self._period = np.array([c.sampling_period_s for c in configs], dtype=float)
        self._next = np.array([s._deadline_s for s in self.sensors], dtype=float)

        # One state tuple (625 Python ints) alive at a time.
        versions: list[int] = []
        gauss_next: list[float | None] = []

        def internal(sensor: TemperatureSensor) -> tuple:
            version, words, pending = sensor._rng.getstate()
            versions.append(version)
            gauss_next.append(pending)
            return words

        words = np.fromiter(
            itertools.chain.from_iterable(map(internal, self.sensors)),
            np.uint32,
            n * (_N + 1),
        ).reshape(n, _N + 1)
        self._version = versions[0] if versions else None
        self._key = np.ascontiguousarray(words[:, :_N])
        self._pos = words[:, _N].astype(np.intp)
        misaligned = np.nonzero(self._pos % 4)[0]
        if misaligned.size:
            names = [self.sensors[r]._rng.name for r in misaligned.tolist()]
            raise ConfigurationError(
                f"sensor streams {names} drew something other than gauss(): "
                "their positions are not a multiple of four key words"
            )
        self._has_next = np.array([g is not None for g in gauss_next], dtype=bool)
        self._next_z = np.array([0.0 if g is None else g for g in gauss_next], dtype=float)
        #: The draws of one key chunk per stream, and which chunk.
        self._z = np.empty((n, _CHUNK // 2))
        self._z_chunk = np.full(n, -1, dtype=np.intp)
        for row, sensor in enumerate(self.sensors):
            sensor._bank = self
            sensor._row = row

    def __len__(self) -> int:
        return len(self.sensors)

    def sample_due(
        self, time_s: float, true_temperatures_c: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sample every sensor whose period elapsed.

        ``true_temperatures_c`` is indexed like the ``sensors`` list.
        Returns ``(due_indices, values)``: the indices of sensors that
        sampled this step and their readings.
        """
        due = np.nonzero(time_s + 1e-9 >= self._next)[0]
        if due.size == 0:
            return due, _NO_VALUES
        values = true_temperatures_c[due] + (0.0 + self._draw(due) * self._noise_std[due])
        q = self._quant[due]
        quantize = q > 0
        if quantize.any():
            values = np.where(quantize, np.round(values / np.where(quantize, q, 1.0)) * q, values)
        self._next[due] += self._period[due]
        # Re-anchor sensors the simulation jumped past (burst suppression),
        # mirroring TemperatureSensor.maybe_sample.
        lagging = due[self._next[due] <= time_s]
        if lagging.size:
            self._next[lagging] = time_s + self._period[lagging]
        return due, values

    def _draw(self, rows: np.ndarray) -> np.ndarray:
        """The next standard-normal draw of each (distinct) row's stream.

        Parity: repro.thermal.sensors.TemperatureSensor.read — each value
        is the ``random.Random.gauss`` draw the unbound sensor would take.
        A row with a pending ``gauss_next`` returns it; any other row
        takes the cosine of its next pair and carries the sine. Rows that
        spent their key are twisted together, and rows whose next pair
        lies outside the key chunk they hold are refilled together.
        """
        pending = self._has_next[rows]
        z = self._next_z[rows]
        fresh = rows[~pending]
        if fresh.size:
            pos = self._pos[fresh]
            spent = fresh[pos == _N]
            if spent.size:
                key = self._key[spent]
                _twist(key)
                self._key[spent] = key
                self._z_chunk[spent] = -1
                pos[pos == _N] = 0
            chunk = pos // _CHUNK
            stale = self._z_chunk[fresh] != chunk
            if stale.any():
                rows_in, chunk_in = fresh[stale], chunk[stale]
                columns = chunk_in[:, None] * _CHUNK + _CHUNK_COLUMNS
                self._z[rows_in] = _normals(self._key[rows_in[:, None], columns])
                self._z_chunk[rows_in] = chunk_in
            at = (pos % _CHUNK) >> 1
            z[~pending] = self._z[fresh, at]
            self._next_z[fresh] = self._z[fresh, at + 1]
            self._pos[fresh] = pos + 4
        self._has_next[rows] = ~pending
        return z

    def unbind(self) -> None:
        """Write every stream and deadline back into its sensor object
        and release the sensors; the bank must not be used afterwards."""
        positions = self._pos.tolist()
        gauss_next = [
            z if pending else None
            for z, pending in zip(self._next_z.tolist(), self._has_next.tolist())
        ]
        for row, sensor in enumerate(self.sensors):
            if sensor._bank is not self:
                continue
            sensor._bank = None
            sensor._deadline_s = float(self._next[row])
            words = (*self._key[row].tolist(), positions[row])
            sensor._rng.setstate((self._version, words, gauss_next[row]))
