"""In-memory spans and reversible attribute patching for the traced run.

The traced run records one span per call of each wrapped function: its
name, start, end, the span that was open when it started, and an
optional amount of work (rows, problems, candidates). Spans live in
parallel lists while the program runs and are written out once, when
the run ends.

A span's *self time* is its duration minus the durations of the spans
it directly caused. Calls on one thread nest strictly, so the children
of a span never overlap and their durations simply add up.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from dataclasses import dataclass
from typing import Callable


@dataclass
class LayerTotals:
    """Aggregate of one span name over a range of spans."""

    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    work: float = 0.0


class Tracer:
    """Records nested spans; ``clock`` is injectable for tests."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.child_s: list[float] = []
        #: Whether no span of the same name was open when this one began;
        #: only outermost spans count towards calls and busy time, so a
        #: wrapped function that re-enters itself is not counted twice.
        self.outermost: list[bool] = []
        self.work: dict[int, float] = {}
        self._stack: list[int] = []
        self._open: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.names)

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        depth = self._open.get(name, 0)
        self.outermost.append(depth == 0)
        self._open[name] = depth + 1
        self.child_s.append(0.0)
        self.ends.append(float("nan"))
        self._stack.append(index)
        self.starts.append(self.clock())
        return index

    def close(self, index: int, work: float | None = None) -> None:
        end = self.clock()
        self.ends[index] = end
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(
                f"span {self.names[index]!r} closed while "
                f"{self.names[popped]!r} was still open"
            )
        name = self.names[index]
        self._open[name] -= 1
        parent = self.parents[index]
        if parent >= 0:
            self.child_s[parent] += end - self.starts[index]
        if work is not None:
            self.work[index] = float(work)

    def wrap(
        self,
        name: str,
        fn: Callable,
        work: Callable[[tuple, dict], float] | None = None,
    ) -> Callable:
        """``fn`` recorded as span ``name``; ``work(args, kwargs)`` sizes it."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index, work(args, kwargs) if work else None)

        return traced

    def self_s(self, index: int) -> float:
        return (self.ends[index] - self.starts[index]) - self.child_s[index]

    def has_ancestor(self, index: int, name: str) -> bool:
        parent = self.parents[index]
        while parent >= 0:
            if self.names[parent] == name:
                return True
            parent = self.parents[parent]
        return False

    def totals(self, first: int = 0, last: int | None = None) -> dict[str, LayerTotals]:
        """Per-name calls, busy, self time and work over spans ``[first, last)``."""
        out: dict[str, LayerTotals] = {}
        stop = len(self.names) if last is None else last
        for index in range(first, stop):
            totals = out.get(self.names[index])
            if totals is None:
                totals = out[self.names[index]] = LayerTotals()
            totals.self_s += self.self_s(index)
            totals.work += self.work.get(index, 0.0)
            if self.outermost[index]:
                totals.calls += 1
                totals.busy_s += self.ends[index] - self.starts[index]
        return out

    def work_under(self, name: str, ancestor: str, first: int = 0,
                   last: int | None = None) -> float:
        """Work of spans ``name`` in ``[first, last)`` that ran inside ``ancestor``."""
        stop = len(self.names) if last is None else last
        return sum(
            (self.work.get(index, 0.0)
             for index in range(first, stop)
             if self.names[index] == name and self.has_ancestor(index, ancestor)),
            0.0,
        )

    def write(self, path: str, origin_s: float = 0.0) -> None:
        """One JSON array per span: name, start, end, parent, work (gzip)."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for index, name in enumerate(self.names):
                out.write(
                    json.dumps(
                        [
                            name,
                            round(self.starts[index] - origin_s, 9),
                            round(self.ends[index] - origin_s, 9),
                            self.parents[index],
                            self.work.get(index),
                        ]
                    )
                )
                out.write("\n")


def resolve(module: str, qualname: str) -> tuple[object, str]:
    """``(owner, attribute)`` for a dotted name inside ``module``."""
    owner: object = importlib.import_module(module)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Patches:
    """Attribute replacements that :meth:`restore` undoes in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, bool, object]] = []

    def replace(self, owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Set ``owner.attr`` to ``make(current value)``."""
        own = attr in vars(owner)
        current = getattr(owner, attr)
        self._saved.append((owner, attr, own, vars(owner).get(attr)))
        setattr(owner, attr, make(current))

    def restore(self) -> None:
        while self._saved:
            owner, attr, own, original = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __len__(self) -> int:
        return len(self._saved)
