"""Unit tests for the temperature sensor model."""

import numpy as np
import pytest

from repro.config import SensorConfig
from repro.rng import RngStream
from repro.thermal.sensors import SensorBank, TemperatureSensor


def make_sensor(noise=0.0, quant=0.0, period=5.0, seed=1) -> TemperatureSensor:
    return TemperatureSensor(
        SensorConfig(sampling_period_s=period, noise_std_c=noise, quantization_c=quant),
        RngStream(seed, "sensor"),
    )


class TestRead:
    def test_noiseless_unquantized_reads_truth(self):
        sensor = make_sensor()
        assert sensor.read(55.3) == pytest.approx(55.3)

    def test_quantization_snaps_to_grid(self):
        sensor = make_sensor(quant=0.5)
        value = sensor.read(55.30)
        assert value == pytest.approx(55.5)
        assert (value / 0.5) == pytest.approx(round(value / 0.5))

    def test_noise_has_roughly_configured_spread(self):
        sensor = make_sensor(noise=1.0)
        readings = [sensor.read(50.0) for _ in range(4000)]
        mean = sum(readings) / len(readings)
        var = sum((r - mean) ** 2 for r in readings) / len(readings)
        assert mean == pytest.approx(50.0, abs=0.1)
        assert var == pytest.approx(1.0, rel=0.15)


class TestSamplingSchedule:
    def test_samples_on_period(self):
        sensor = make_sensor(period=5.0)
        sampled = [
            t for t in range(0, 21) if sensor.maybe_sample(float(t), 50.0) is not None
        ]
        assert sampled == [0, 5, 10, 15, 20]

    def test_skips_between_periods(self):
        sensor = make_sensor(period=10.0)
        assert sensor.maybe_sample(0.0, 50.0) is not None
        assert sensor.maybe_sample(3.0, 50.0) is None
        assert sensor.maybe_sample(9.9, 50.0) is None

    def test_reanchors_after_time_jump(self):
        sensor = make_sensor(period=5.0)
        sensor.maybe_sample(0.0, 50.0)
        # Jump far past several periods: one sample, then regular schedule.
        assert sensor.maybe_sample(32.0, 50.0) is not None
        assert sensor.maybe_sample(33.0, 50.0) is None
        assert sensor.maybe_sample(37.0, 50.0) is not None


class TestReset:
    def test_reset_restarts_schedule(self):
        sensor = make_sensor(period=5.0)
        sensor.maybe_sample(0.0, 50.0)
        assert sensor.maybe_sample(1.0, 50.0) is None
        sensor.reset()
        assert sensor.maybe_sample(1.0, 50.0) is not None


class TestSensorBank:
    def test_bank_matches_per_sensor_polling(self):
        """Same draws, same rounding, same schedule (burst re-anchor
        included) as polling each sensor on its own."""

        def sensors():
            return [
                make_sensor(noise=0.5, quant=0.25, period=period, seed=seed)
                for seed, period in ((1, 3.0), (2, 5.0), (3, 1.0))
            ]

        polled = sensors()
        bank = SensorBank(sensors())
        true_c = np.array([50.0, 61.3, 70.7])
        for t in [float(t) for t in range(21)] + [47.0, 48.0, 51.0, 52.0]:
            due, values = bank.sample_due(t, true_c)
            expected = [
                (i, value)
                for i, sensor in enumerate(polled)
                if (value := sensor.maybe_sample(t, true_c[i])) is not None
            ]
            assert due.tolist() == [i for i, _ in expected]
            assert values.tolist() == [value for _, value in expected]
