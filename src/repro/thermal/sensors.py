"""Digital thermal sensor model.

The learner never sees the plant's true state — only what a sensor
reports: the true temperature corrupted by Gaussian read noise, then
quantized to the sensor's register resolution, sampled on a fixed period.
This mirrors the information available from IPMI/coretemp on the paper's
testbed.

A sensor owns only its noise stream and its sampling schedule; it keeps
no history. The simulation records every sample once, into the
telemetry ``cpu_temperature`` series, and publishes each step's samples
to probes as arrays (:class:`~repro.datacenter.simulation.StepColumns`).
"""

from __future__ import annotations

import numpy as np

from repro.config import SensorConfig
from repro.rng import RngStream


class TemperatureSensor:
    """Noisy, quantized, periodically sampled temperature sensor.

    Parameters
    ----------
    config:
        Noise/quantization/sampling parameters.
    rng:
        Dedicated random stream for this sensor's read noise.
    """

    def __init__(self, config: SensorConfig, rng: RngStream) -> None:
        self.config = config
        self._rng = rng
        self._next_sample_time = 0.0

    def read(self, true_temperature_c: float) -> float:
        """Take an immediate (out-of-schedule) reading, in °C."""
        value = true_temperature_c + self._rng.gauss(0.0, self.config.noise_std_c)
        q = self.config.quantization_c
        if q > 0:
            value = round(value / q) * q
        return value

    def maybe_sample(self, time_s: float, true_temperature_c: float) -> float | None:
        """Sample if the sampling period elapsed; return the reading or None.

        Intended to be called every simulation step; the sensor keeps its
        own schedule so the solver step and sampling period are decoupled.
        """
        if time_s + 1e-9 < self._next_sample_time:
            return None
        value = self.read(true_temperature_c)
        self._next_sample_time = self._next_sample_time + self.config.sampling_period_s
        # If the simulation jumped past several periods, re-anchor rather
        # than emitting a burst of stale samples.
        if self._next_sample_time <= time_s:
            self._next_sample_time = time_s + self.config.sampling_period_s
        return value

    def reset(self) -> None:
        """Restart the sampling schedule."""
        self._next_sample_time = 0.0


class SensorBank:
    """Vectorized sampling schedule over many sensors.

    The fleet co-simulation loop calls :meth:`sample_due` every step; the
    due check is a single array comparison, and only sensors whose period
    actually elapsed pay the per-sensor Python cost of a noise draw.
    Noise addition and quantization are applied vectorized, so a bank
    produces exactly the values — same random draws, same rounding — as
    per-sensor :meth:`TemperatureSensor.maybe_sample` polling, including
    the burst re-anchor after a time jump.

    The bank owns the schedule while live; :meth:`writeback` pushes the
    per-sensor deadlines back into the sensor objects so direct
    ``maybe_sample`` use stays consistent afterwards.
    """

    def __init__(self, sensors: list[TemperatureSensor]) -> None:
        self.sensors = list(sensors)
        self._gauss = [s._rng.gauss for s in self.sensors]
        self._noise_std = np.array(
            [s.config.noise_std_c for s in self.sensors], dtype=float
        )
        self._quant = np.array(
            [s.config.quantization_c for s in self.sensors], dtype=float
        )
        self._next = np.array([s._next_sample_time for s in self.sensors], dtype=float)
        self._period = np.array(
            [s.config.sampling_period_s for s in self.sensors], dtype=float
        )

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
            return due, np.empty(0, dtype=float)
        # Noise draws are per-sensor streams (determinism contract), the
        # rest of the read pipeline is vectorized.
        gauss = self._gauss
        std = self._noise_std
        noise = np.array([gauss[i](0.0, std[i]) for i in due.tolist()])
        values = true_temperatures_c[due] + noise
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

    def writeback(self) -> None:
        """Push the bank's schedule back into the sensor objects."""
        for sensor, next_time in zip(self.sensors, self._next):
            sensor._next_sample_time = float(next_time)
