"""Deterministic, named random-number streams.

Every stochastic component in the simulator (workload generators, sensor
noise, scenario randomization) draws from its own named stream derived from
a single experiment seed. This gives two properties the test-suite and the
benchmarks rely on:

* **reproducibility** — the same seed always produces the same experiment;
* **independence under change** — adding draws to one component does not
  shift the sequence seen by another, because streams are keyed by name
  rather than by draw order.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Callable, Iterator


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a child seed from ``root_seed`` and a stream ``name``.

    Uses SHA-256 so the mapping is stable across Python versions and
    processes (unlike ``hash()``, which is salted per process).
    """
    digest = hashlib.sha256(f"{root_seed}/{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngStream:
    """A named pseudo-random stream with convenience samplers.

    Thin wrapper over :class:`random.Random` seeded via :func:`derive_seed`.
    """

    def __init__(self, root_seed: int, name: str) -> None:
        self.name = name
        self.root_seed = root_seed
        self._random = random.Random(derive_seed(root_seed, name))

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in [low, high]."""
        return self._random.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] inclusive."""
        return self._random.randint(low, high)

    def int_sampler(self, n: int) -> Callable[[], int]:
        """A zero-argument sampler of uniform integers in ``[0, n)``.

        Each call draws the value, and advances the stream exactly as,
        ``randint(0, n - 1)`` would: CPython's rejection loop over
        ``getrandbits(n.bit_length())``, without the ``randint`` →
        ``randrange`` → ``_randbelow`` call layers. For hot loops that
        draw many integers below one bound.
        """
        if n < 1:
            raise ValueError(f"int_sampler needs n >= 1, got {n}")
        getrandbits = self._random.getrandbits
        k = n.bit_length()

        def draw() -> int:
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            return r

        return draw

    def gauss(self, mean: float = 0.0, std: float = 1.0) -> float:
        """Gaussian sample."""
        return self._random.gauss(mean, std)

    def expovariate(self, rate: float) -> float:
        """Exponential sample with the given rate (1/mean)."""
        return self._random.expovariate(rate)

    def expovariates(self, rate: float, n: int) -> list[float]:
        """``n`` successive :meth:`expovariate` draws at one rate.

        The same values and stream state as calling ``expovariate(rate)``
        ``n`` times (CPython's ``-log(1 - random()) / rate``), without
        two call layers per draw.
        """
        uniform = self._random.random
        log = math.log
        return [-log(1.0 - uniform()) / rate for _ in range(n)]

    def choice(self, items: list) -> object:
        """Uniformly pick one item of a non-empty list."""
        return self._random.choice(items)

    def sample(self, items: list, k: int) -> list:
        """Sample ``k`` distinct items."""
        return self._random.sample(items, k)

    def shuffle(self, items: list) -> None:
        """Shuffle ``items`` in place."""
        self._random.shuffle(items)

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._random.random()

    def permutation(self, n: int) -> list[int]:
        """A random permutation of ``range(n)``."""
        indices = list(range(n))
        self._random.shuffle(indices)
        return indices

    def getstate(self) -> tuple:
        """The generator's state (``random.Random.getstate``)."""
        return self._random.getstate()

    def setstate(self, state: tuple) -> None:
        """Restore a state from :meth:`getstate`."""
        self._random.setstate(state)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngStream(root_seed={self.root_seed}, name={self.name!r})"


class RngFactory:
    """Factory handing out named :class:`RngStream` instances for one seed.

    Streams are cached: requesting the same name twice returns the same
    stream object (continuing its sequence), which lets long-lived
    components share a stream by name.
    """

    def __init__(self, root_seed: int) -> None:
        self.root_seed = root_seed
        self._streams: dict[str, RngStream] = {}

    def stream(self, name: str) -> RngStream:
        """Return the (cached) stream for ``name``."""
        if name not in self._streams:
            self._streams[name] = RngStream(self.root_seed, name)
        return self._streams[name]

    def fork(self, name: str) -> "RngFactory":
        """Derive an independent child factory (e.g. one per experiment)."""
        return RngFactory(derive_seed(self.root_seed, name))

    def stream_names(self) -> Iterator[str]:
        """Names of all streams created so far (for diagnostics)."""
        return iter(sorted(self._streams))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngFactory(root_seed={self.root_seed})"
