"""Task and workload models deployed inside VMs.

The paper's ``ξ_VM`` feature covers "VM configurations and deployed
tasks"; heterogeneous task behaviour is precisely what makes VM-level
prediction harder than the single-task-per-server assumption of prior
work. Each task exposes a per-vCPU utilization ``u(t) ∈ [0, 1]`` plus a
*nominal* mean utilization (what a profiler would know up front, used by
feature extraction) — the realized trace may deviate from the nominal.

Task families:

* :class:`ConstantTask` — steady CPU burn (batch compute);
* :class:`PeriodicTask` — sinusoidal or square-wave load (request-serving);
* :class:`BurstyTask` — two-state Markov on/off process (interactive);
* :class:`RampTask` — linear ramp between two levels (warming caches).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from bisect import bisect_right
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.rng import RngStream

#: Task kinds known to :func:`random_task`, in a stable order used by
#: feature extraction for one-hot / count encoding.
TASK_KINDS = ("constant", "periodic", "bursty", "ramp")


def _check_unit(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must be in [0, 1], got {value}")


class Task(ABC):
    """A compute task pinned inside a VM."""

    #: Short family name; must be one of :data:`TASK_KINDS`.
    kind: str = "abstract"

    @abstractmethod
    def utilization(self, time_s: float) -> float:
        """Per-vCPU utilization demanded at simulation time ``time_s``."""

    @abstractmethod
    def nominal_utilization(self) -> float:
        """Mean utilization a profiler would catalogue for this task."""


@dataclass(frozen=True)
class ConstantTask(Task):
    """Fixed utilization — a steady batch job."""

    level: float = 0.6
    kind: str = field(default="constant", init=False)

    def __post_init__(self) -> None:
        _check_unit("level", self.level)

    def utilization(self, time_s: float) -> float:
        return self.level

    def nominal_utilization(self) -> float:
        return self.level


@dataclass(frozen=True)
class PeriodicTask(Task):
    """Sinusoidal load oscillating around a mean — diurnal services."""

    mean: float = 0.5
    amplitude: float = 0.2
    period_s: float = 300.0
    phase_s: float = 0.0
    kind: str = field(default="periodic", init=False)

    def __post_init__(self) -> None:
        _check_unit("mean", self.mean)
        if self.amplitude < 0:
            raise ConfigurationError(f"amplitude must be >= 0, got {self.amplitude}")
        if self.period_s <= 0:
            raise ConfigurationError(f"period_s must be > 0, got {self.period_s}")

    def utilization(self, time_s: float) -> float:
        angle = 2.0 * math.pi * (time_s + self.phase_s) / self.period_s
        return min(1.0, max(0.0, self.mean + self.amplitude * math.sin(angle)))

    def nominal_utilization(self) -> float:
        return self.mean


class BurstyTask(Task):
    """Two-state Markov on/off load — interactive / spiky services.

    State transitions are pre-sampled lazily from the task's own RNG
    stream, so utilization queries at arbitrary (monotone or repeated)
    times are consistent.
    """

    kind = "bursty"

    def __init__(
        self,
        rng: RngStream,
        on_level: float = 0.9,
        off_level: float = 0.1,
        mean_on_s: float = 60.0,
        mean_off_s: float = 120.0,
    ) -> None:
        _check_unit("on_level", on_level)
        _check_unit("off_level", off_level)
        if mean_on_s <= 0 or mean_off_s <= 0:
            raise ConfigurationError(
                f"mean_on_s and mean_off_s must be > 0, got {mean_on_s}, {mean_off_s}"
            )
        self.on_level = on_level
        self.off_level = off_level
        self.mean_on_s = mean_on_s
        self.mean_off_s = mean_off_s
        self._rng = rng
        # Switch times; state alternates starting OFF at t=0.
        self._switches: list[float] = [0.0]
        self._extend_to(1.0)

    def _extend_to(self, time_s: float) -> None:
        while self._switches[-1] <= time_s:
            # The interval starting at switches[i] is ON iff i is odd; the
            # interval being capped starts at the last switch.
            on = (len(self._switches) - 1) % 2 == 1
            mean = self.mean_on_s if on else self.mean_off_s
            self._switches.append(self._switches[-1] + self._rng.expovariate(1.0 / mean))

    def utilization(self, time_s: float) -> float:
        self._extend_to(time_s)
        # The active interval starts at the last switch <= time_s
        # (switches[0] is 0.0; an earlier or NaN time falls in the first).
        index = bisect_right(self._switches, time_s) - 1 if time_s >= 0.0 else 0
        on = index % 2 == 1
        return self.on_level if on else self.off_level

    def nominal_utilization(self) -> float:
        duty = self.mean_on_s / (self.mean_on_s + self.mean_off_s)
        return duty * self.on_level + (1.0 - duty) * self.off_level


@dataclass(frozen=True)
class RampTask(Task):
    """Linear ramp from ``start_level`` to ``end_level`` over ``ramp_s``."""

    start_level: float = 0.2
    end_level: float = 0.8
    ramp_s: float = 600.0
    kind: str = field(default="ramp", init=False)

    def __post_init__(self) -> None:
        _check_unit("start_level", self.start_level)
        _check_unit("end_level", self.end_level)
        if self.ramp_s <= 0:
            raise ConfigurationError(f"ramp_s must be > 0, got {self.ramp_s}")

    def utilization(self, time_s: float) -> float:
        if time_s >= self.ramp_s:
            return self.end_level
        frac = max(0.0, time_s / self.ramp_s)
        return self.start_level + (self.end_level - self.start_level) * frac

    def nominal_utilization(self) -> float:
        # Long-run behaviour is the end level; that is what a profiler
        # would record for the steady phase.
        return self.end_level


def random_task(rng: RngStream, kind: str | None = None) -> Task:
    """Draw a random task, optionally of a fixed ``kind``.

    Parameter ranges are chosen so nominal utilizations span ~0.1–0.9,
    giving the learner a wide dynamic range of thermal outcomes.
    """
    chosen = kind or rng.choice(list(TASK_KINDS))
    if chosen == "constant":
        return ConstantTask(level=rng.uniform(0.1, 0.9))
    if chosen == "periodic":
        mean = rng.uniform(0.2, 0.8)
        amplitude = rng.uniform(0.05, min(0.25, mean, 1.0 - mean))
        return PeriodicTask(mean=mean, amplitude=amplitude, period_s=rng.uniform(300.0, 1200.0))
    if chosen == "bursty":
        # Burst cycles are kept well below the stable-window length so the
        # realized duty cycle concentrates around its nominal value — the
        # regime in which per-task profiling is meaningful at all.
        return BurstyTask(
            rng=rng,
            on_level=rng.uniform(0.6, 1.0),
            off_level=rng.uniform(0.05, 0.3),
            mean_on_s=rng.uniform(8.0, 40.0),
            mean_off_s=rng.uniform(12.0, 60.0),
        )
    if chosen == "ramp":
        return RampTask(
            start_level=rng.uniform(0.0, 0.4),
            end_level=rng.uniform(0.4, 1.0),
            ramp_s=rng.uniform(200.0, 800.0),
        )
    raise ConfigurationError(f"unknown task kind {chosen!r}; expected one of {TASK_KINDS}")
