"""Bit-identity pin for the noise stream a :class:`SensorBank` draws.

Each sensor owns one named ``random.Random`` stream, and the learner
sees every sample it produces, so a rewrite of how the bank draws its
noise must give the same bits, sensor by sensor, as
``random.Random.gauss`` would. This test hashes ``float.hex`` of every
``(due, values)`` the bank returns over:

* mixed sampling periods, noise σ (σ = 0 included) and quantization,
  with sixteen unquantized sensors sampling every second at a true
  temperature near zero: ``np.log`` rounds about 0.35% of logs
  differently from ``math.log``, about half of those change a draw by
  an ulp, and only an unrounded reading of a small value keeps that
  ulp, so the pin needs many thousand such readings to see it;
* burst re-anchor jumps of the simulation clock;
* more than 312 draws per sensor, so every stream passes at least two
  Mersenne Twister twists (624 words give 312 normal draws);
* streams that took an odd number of direct ``read()`` calls before
  binding (a pending ``gauss_next``, a position off a twist boundary),
  a stream bound four words before a twist, and one bound exactly at a
  twist;
* direct ``read()`` calls on sensors while they are bound;
* a bank dropped and rebuilt over a changed membership, which a sensor
  left out of the first bank joins.

After the last bank is released, each stream's ``getstate()`` and one
following direct ``read()`` are hashed too, so the state handed back to
the sensor objects is pinned as well as the values.
"""

import hashlib
import math

import numpy as np
import pytest

from repro.config import SensorConfig
from repro.errors import ConfigurationError
from repro.rng import RngStream
from repro.thermal.sensors import SensorBank, TemperatureSensor

#: (period s, noise σ °C, quantization °C) per sensor.
CONFIGS = (
    (1.0, 0.5, 0.0),
    (1.0, 0.0, 0.25),
    (2.0, 1.3, 0.1),
    (1.0, 2.0, 0.5),
    (3.0, 0.7, 0.0),
    (0.5, 0.25, 0.0625),
    (1.0, 1.0, 0.0),
    (5.0, 0.4, 0.5),
    (1.0, 0.9, 0.125),
) + tuple((1.0, 0.3 + 0.1 * k, 0.0) for k in range(16))

#: Direct ``read()`` calls each sensor takes before it is first bound.
#: 155 pairs leave four words before a twist; 312 reads end exactly on
#: one; odd counts leave a pending ``gauss_next``.
PRE_READS = (0, 1, 2, 3, 7, 309, 312, 311, 0) + tuple(k % 3 for k in range(16))
#: The sensor that joins only the second bank.
LATE = 8


def _sensors() -> list[TemperatureSensor]:
    sensors = []
    for i, (period, noise, quant) in enumerate(CONFIGS):
        sensor = TemperatureSensor(
            SensorConfig(
                sampling_period_s=period, noise_std_c=noise, quantization_c=quant
            ),
            RngStream(9_100 + i, f"sensor/pin-{i}"),
        )
        for _ in range(PRE_READS[i]):
            sensor.read(40.0)
        sensors.append(sensor)
    return sensors


def _true_c(time_s: float, members: list[int]) -> np.ndarray:
    # The sixteen extra sensors read a true temperature near zero, so a
    # one-ulp change in their noise is not rounded away by the addition.
    base = [45.0 if i < len(CONFIGS) - 16 else 0.0 for i in members]
    return np.array(
        [b + 8.0 * math.sin(time_s / 37.0 + i) * (1.0 if b else 1e-3)
         for b, i in zip(base, members)]
    )


def _release(bank: SensorBank) -> None:
    """Hand the bank's state back to its sensor objects."""
    bank.unbind()


def _run(bank, sensors, members, times, lines) -> None:
    for step, t in enumerate(times):
        due, values = bank.sample_due(t, _true_c(t, members))
        lines.append(f"{t.hex()}:" + ",".join(str(members[i]) for i in due.tolist()))
        lines.extend(float(v).hex() for v in values.tolist())
        if step % 97 == 13:
            # An out-of-schedule read on a bound sensor draws from the
            # same stream the bank does.
            k = members[step % len(members)]
            lines.append("read:" + sensors[k].read(50.0).hex())


def _times(start: float, stop: float, jumps: dict[float, float]) -> list[float]:
    times, t = [], start
    while t < stop:
        times.append(t)
        t += jumps.get(t, 1.0)
    return times


def _digest() -> str:
    sensors = _sensors()
    lines: list[str] = []

    first = [i for i in range(len(sensors)) if i != LATE]
    bank = SensorBank([sensors[i] for i in first])
    _run(bank, sensors, first, _times(0.0, 420.0, {50.0: 17.0, 211.0: 9.5}), lines)
    _release(bank)

    # Membership change: a sensor leaves, the late one joins, and the
    # order changes.
    second = [LATE, 6, 0, 1, 2, 3, 4, 5] + list(range(len(sensors) - 1, LATE, -1))
    bank = SensorBank([sensors[i] for i in second])
    _run(bank, sensors, second, _times(420.0, 900.0, {600.0: 23.0}), lines)
    _release(bank)

    for sensor in sensors:
        version, internal, gauss_next = sensor._rng._random.getstate()
        lines.append(f"{version}:{gauss_next!r}:" + ",".join(map(str, internal)))
        lines.append(sensor._next_sample_time.hex())
        lines.append(sensor.read(50.0).hex())
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_bank_noise_stream_pinned():
    assert _digest() == (
        "aa0fd6d905ec6ee1c284fdcf93d825755f2bbe70e6905722293e619a3dd28344"
    )


def test_streams_cross_two_twists():
    """The pin's schedule draws more than 312 values from every stream
    that samples each second."""
    sensors = _sensors()
    members = list(range(len(sensors)))
    bank = SensorBank(sensors)
    counts = np.zeros(len(sensors), dtype=int)
    for t in _times(0.0, 900.0, {}):
        due, _ = bank.sample_due(t, _true_c(t, members))
        counts[due] += 1
    fast = [i for i, (period, _, _) in enumerate(CONFIGS) if period <= 1.0]
    assert (counts[fast] > 2 * 312).all()


def test_misaligned_stream_refused():
    """A stream that drew a lone ``random()`` sits two words into a
    four-word draw pair; the bank refuses it rather than draw a
    different sequence, and binds none of the sensors."""
    sensors = _sensors()[:3]
    sensors[1]._rng.random()
    with pytest.raises(ConfigurationError, match="pin-1"):
        SensorBank(sensors)
    assert all(s._bank is None for s in sensors)
