"""Host-speed sampling, so the reported times do not drift with the host.

A shared host's speed drifts by up to two and a half times over minutes,
and by a third from one second to the next. CPU time drifts with it
(neighbours slow this process down on the CPU, they do not take the
CPU away), so no run length averages it out and a ten-seed set taken
at one speed disagrees with the next set taken at another.

:class:`HostSpeed` measures that speed as the program runs. Every
``period_s`` of wall time a ``SIGALRM`` handler runs a fixed
calibration snippet — interpreter work and small numpy calls, the mix
the workloads spend their time in — and times it. The snippet never
touches the program's data. A phase's *normalized* time is the sum,
over the stretches between samples, of each stretch's wall time scaled
by ``REFERENCE_SNIPPET_S / snippet time``: the seconds the phase would
take at the reference speed, at which the snippet takes
:data:`REFERENCE_SNIPPET_S`. The handler's own time is left out.

The snippet is the benchmark's and not the program's, so a change to
the program moves the normalized time just as it moves the wall time.
"""

from __future__ import annotations

import signal
import time

import numpy as np

#: Snippet time at the reference speed (s): about a quiet 2-core host's.
REFERENCE_SNIPPET_S = 3.0e-4
#: Wall time between two samples (s).
PERIOD_S = 0.025


class HostSpeed:
    """Samples the host's speed on a timer; ``mark`` brackets phases."""

    def __init__(self, period_s: float = PERIOD_S, clock=time.perf_counter) -> None:
        self.period_s = period_s
        self.clock = clock
        #: Per sample: when the handler began, the snippet's time, when it ended.
        self.starts: list[float] = []
        self.snippets: list[float] = []
        self.ends: list[float] = []
        self._table = {i: 0.5 * i for i in range(64)}
        self._values = np.linspace(0.0, 1.0, 64)
        self._previous = None
        self._busy = False
        #: Wall time spent taking samples so far (s).
        self.spent = 0.0

    def snippet(self) -> float:
        """Run the calibration snippet once; its duration (s)."""
        begin = self.clock()
        table, values, acc = self._table, self._values, 0.0
        for i in range(1000):
            acc += table[i & 63] * 1.5
        for _ in range(60):
            acc += float(np.exp(-values * values).sum())
        return self.clock() - begin

    def mark(self) -> float:
        """Take a sample now and return when it ended; phases are bracketed by marks."""
        self._busy = True
        begin = self.clock()
        taken = self.snippet()
        end = self.clock()
        self.starts.append(begin)
        self.snippets.append(taken)
        self.ends.append(end)
        self.spent += end - begin
        self._busy = False
        return end

    def _handler(self, signum, frame) -> None:
        if not self._busy:
            self.mark()

    def start(self, warm_up: int = 20) -> float:
        """Warm the snippet, start the timer; returns the first mark."""
        for _ in range(warm_up):
            self.snippet()
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self.mark()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def normalized(self, begin: float, end: float) -> float:
        """Seconds at the reference speed of the program's work in ``[begin, end]``.

        ``begin`` and ``end`` are values returned by :meth:`mark`, so a
        sample ends every stretch. Each stretch from the end of one
        sample to the start of the next is scaled by the snippet time
        of the sample that ends it.
        """
        total, previous = 0.0, begin
        for started, taken, ended in zip(self.starts, self.snippets, self.ends):
            if ended <= begin:
                continue
            if ended > end:
                break
            total += (started - previous) * REFERENCE_SNIPPET_S / taken
            previous = ended
        return total

    def program_clock(self) -> float:
        """A clock that stands still while a sample is taken."""
        return self.clock() - self.spent

    def wall(self, begin: float, end: float) -> float:
        """Wall seconds of the program's work in ``[begin, end]``, samples left out."""
        spent = sum(
            ended - started
            for started, ended in zip(self.starts, self.ends)
            if begin < ended <= end
        )
        return end - begin - spent

    def speed(self, begin: float, end: float) -> float:
        """Median host speed over ``[begin, end]`` relative to the reference."""
        taken = sorted(t for t, e in zip(self.snippets, self.ends) if begin < e <= end)
        return REFERENCE_SNIPPET_S / taken[len(taken) // 2] if taken else float("nan")
