"""Declarative scenario documents compiled onto :class:`FleetScenario`.

A scenario *spec* is a plain dict (JSON-serializable end to end) that
describes a fleet workload declaratively::

    {
        "name": "warm-pool",
        "seed": 7,
        "duration": "+1h",
        "servers": [{"type": "stress", "count": 8}],
        "placements": [{
            "servers": "all",
            "vms": [{"name": "web-{server_index:03d}",
                     "type": "c5.large",
                     "tasks": [{"constant": {"uniform": [0.2, 0.5]}}]}],
        }],
        "environment": {"constant": 22.0},
        "timeline": [
            {"at": "+10m", "cooling_derate": 6.0},
            {"at": "+20m", "arrival": {
                "servers": {"range": [0, 2]}, "count": 2, "spacing": "+10s",
                "require_headroom": True,
                "vm": {"name": "burst-{server_index:03d}-{vm_index}",
                       "type": "t3.medium",
                       "tasks": [{"constant": {"uniform": [0.7, 0.9]}}]}}},
        ],
    }

:func:`compile_spec` turns a spec into the existing
:class:`~repro.experiments.scenarios.FleetScenario` **deterministically**
— all sampled parameters (``{"uniform": [lo, hi]}`` and friends) draw
from :class:`~repro.rng.RngFactory` streams seeded by the document's
``seed``: server hardware from ``hardware``, each server's VMs from
``vms/{server_index}`` unless a block names its own ``stream``. Only
the per-stream draw order matters for reproducibility, and it is fixed
by the document: server groups and fields in order, VM fields
(``vcpus``, ``memory_gb``, ``tasks``) in document key order, tasks in
list order. Every fleet scenario the repo ships is a document of
:mod:`repro.scenarios.library`.

Validation happens at compile time with path-qualified error messages
(:class:`~repro.errors.ScenarioSpecError`): unknown catalog keys,
negative offsets, overcommitted placements, arrivals that would never
fire, and migrations of VMs that do not exist are all rejected before a
simulation is built. Capacity is tracked *conservatively* through the
timeline — every accepted arrival and migration reserves its resources
forever — so a compiled scenario can never capacity-fault mid-run.

Generators beyond literal fields:

* server-group hardware fields may be distributions, drawn per server;
  a group with ``"classes": n, "each": k`` instead of ``count`` shuffles
  the product of its ``choice`` fields on the ``classes`` stream and
  emits ``k`` servers for each of the first ``n`` combinations;
* a VM entry's ``count`` may be a distribution, drawn before its VMs;
* a task may be ``{"one_of": [task, ...]}``, one ``choice`` draw;
* a periodic task's sampled ``uniform`` amplitude has its upper bound
  capped at ``min(hi, mean, 1 - mean)``;
* a placement block with ``"clamp_vcpus": true`` shrinks each VM's
  vCPUs to the server's remaining ``int(vcpu_limit)`` and stops placing
  on a server once none is left.

Timeline grammar (``"at"`` accepts ``"+2h"``-style relative offsets or
plain seconds):

* ``arrival`` — mid-run VM arrivals on selected servers, with optional
  conditional triggers: ``"when"`` (checked before any sampling) and
  ``"require_headroom"`` (checked per sampled instance; draws are
  consumed either way, keeping compilation deterministic under drops);
* ``migrate`` — a live migration of an initially placed VM;
* ``ambient_step`` / ``cooling_derate`` / ``ambient_ramp`` — CRAC
  set-point events folded into a
  :class:`~repro.thermal.environment.SteppedEnvironment`.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import replace
from typing import Any, Callable

from repro.datacenter.server import ServerSpec
from repro.datacenter.vm import VmSpec
from repro.datacenter.workload import ConstantTask, PeriodicTask, RampTask, Task
from repro.errors import ConfigurationError, ScenarioSpecError
from repro.experiments.scenarios import FleetScenario
from repro.rng import RngFactory, RngStream
from repro.scenarios.catalog import Catalog, HardwareType, default_catalog
from repro.thermal.environment import (
    ConstantEnvironment,
    EnvironmentProfile,
    SinusoidalEnvironment,
    SteppedEnvironment,
)

#: ``"+2h"``-style offsets: optional sign, number, optional unit.
_OFFSET = re.compile(r"^([+-]?\d+(?:\.\d+)?)\s*(ms|s|m|h|d)?$")
_UNIT_S = {"ms": 0.001, "s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}

_TOP_KEYS = frozenset(
    {"name", "seed", "duration", "servers", "placements", "environment",
     "timeline", "servers_per_rack"}
)
_SERVER_KEYS = frozenset(
    {"type", "count", "classes", "each", "name", "cpu_cores", "ghz_per_core",
     "memory_gb", "fan_count", "fan_speed", "cpu_overcommit"}
)
_HARDWARE_FIELDS = ("cpu_cores", "ghz_per_core", "memory_gb", "fan_count",
                    "fan_speed", "cpu_overcommit")
_PLACEMENT_KEYS = frozenset({"servers", "stream", "vms", "clamp_vcpus"})
_VM_KEYS = frozenset({"name", "type", "vcpus", "memory_gb", "tasks", "count"})
_TASK_KINDS = ("constant", "periodic", "ramp")
_VM_FIELDS = ("vcpus", "memory_gb", "tasks")
_EVENT_KINDS = ("arrival", "migrate", "ambient_step", "cooling_derate",
                "ambient_ramp")
_ARRIVAL_KEYS = frozenset(
    {"servers", "stream", "count", "spacing", "vm", "when",
     "require_headroom"}
)
_MIGRATE_KEYS = frozenset({"vm", "to", "require_headroom"})
_RAMP_KEYS = frozenset({"delta_c", "steps", "spacing"})
_WHEN_KEYS = frozenset({"min_free_memory_gb", "min_free_vcpus"})
_DIST_KEYS = ("value", "uniform", "normal", "choice", "randint")


def parse_offset(value: Any, path: str = "offset") -> float:
    """Parse a time offset — plain seconds or a ``"+2h"``-style string.

    Accepted units: ``ms``, ``s``, ``m``, ``h``, ``d`` (default seconds).
    The sign survives parsing so callers can reject negative offsets
    with a precise message.
    """
    if isinstance(value, bool):
        raise ScenarioSpecError(f"{path}: expected a time offset, got {value!r}")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        match = _OFFSET.match(value.strip())
        if match is None:
            raise ScenarioSpecError(
                f"{path}: cannot parse time offset {value!r} "
                "(expected e.g. 600, '+2h', '+30m', '+45s')"
            )
        magnitude, unit = match.groups()
        return float(magnitude) * (_UNIT_S[unit] if unit else 1.0)
    raise ScenarioSpecError(f"{path}: expected a time offset, got {value!r}")


def _require_mapping(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioSpecError(f"{path}: expected a mapping, got {value!r}")
    return value


def _check_keys(mapping: dict, allowed: frozenset, path: str) -> None:
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ScenarioSpecError(
            f"{path}: unknown key(s) {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )


def _require_count(value: Any, path: str, default: int = 1,
                   rng: RngStream | None = None) -> int:
    """A literal count, or with ``rng`` a distribution drawn from it."""
    if rng is not None and isinstance(value, dict):
        value = _sample_int(value, rng, path)
    if value is None:
        return default
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ScenarioSpecError(f"{path}: expected an int >= 1, got {value!r}")
    return value


def sample_value(value: Any, rng: RngStream, path: str) -> Any:
    """Resolve a literal or a distribution document to one sample.

    Distributions: ``{"value": v}``, ``{"uniform": [lo, hi]}``,
    ``{"randint": [lo, hi]}``, ``{"choice": [...]}``, and
    ``{"normal": {"mean": m, "std": s, "min": lo, "max": hi}}`` (clamped
    when bounds are given). At most one draw per call, so spec authors
    can reason about per-stream draw order.
    """
    if isinstance(value, bool):
        raise ScenarioSpecError(f"{path}: expected a number, got {value!r}")
    if isinstance(value, (int, float)):
        return value
    if not isinstance(value, dict):
        raise ScenarioSpecError(
            f"{path}: expected a number or a distribution mapping, got {value!r}"
        )
    keys = [k for k in value if k in _DIST_KEYS]
    if len(keys) != 1 or len(value) != 1:
        raise ScenarioSpecError(
            f"{path}: a distribution needs exactly one of "
            f"{', '.join(_DIST_KEYS)}, got {sorted(value)}"
        )
    kind, params = keys[0], value[keys[0]]
    if kind == "value":
        return params
    if kind == "uniform":
        lo, hi = _pair(params, f"{path}.uniform")
        return rng.uniform(lo, hi)
    if kind == "randint":
        lo, hi = _pair(params, f"{path}.randint")
        if int(lo) != lo or int(hi) != hi:
            raise ScenarioSpecError(f"{path}.randint: bounds must be integers")
        return rng.randint(int(lo), int(hi))
    if kind == "choice":
        if not isinstance(params, list) or not params:
            raise ScenarioSpecError(f"{path}.choice: expected a non-empty list")
        return rng.choice(list(params))
    spec = _require_mapping(params, f"{path}.normal")
    _check_keys(spec, frozenset({"mean", "std", "min", "max"}), f"{path}.normal")
    if "mean" not in spec or "std" not in spec:
        raise ScenarioSpecError(f"{path}.normal: needs 'mean' and 'std'")
    drawn = rng.gauss(float(spec["mean"]), float(spec["std"]))
    if "min" in spec:
        drawn = max(drawn, float(spec["min"]))
    if "max" in spec:
        drawn = min(drawn, float(spec["max"]))
    return drawn


def _pair(params: Any, path: str) -> tuple[float, float]:
    if (
        not isinstance(params, (list, tuple))
        or len(params) != 2
        or not all(isinstance(p, (int, float)) and not isinstance(p, bool)
                   for p in params)
    ):
        raise ScenarioSpecError(f"{path}: expected [lo, hi], got {params!r}")
    lo, hi = float(params[0]), float(params[1])
    if hi < lo:
        raise ScenarioSpecError(f"{path}: lo must be <= hi, got [{lo}, {hi}]")
    return lo, hi


def _sample_number(value: Any, rng: RngStream, path: str,
                   allow_offset: bool = False) -> float:
    if allow_offset and isinstance(value, str):
        return parse_offset(value, path)
    sampled = sample_value(value, rng, path)
    if isinstance(sampled, bool) or not isinstance(sampled, (int, float)):
        raise ScenarioSpecError(f"{path}: sampled a non-number {sampled!r}")
    return float(sampled)


def _sample_int(value: Any, rng: RngStream, path: str) -> int:
    sampled = sample_value(value, rng, path)
    if isinstance(sampled, float) and sampled.is_integer():
        sampled = int(sampled)
    if isinstance(sampled, bool) or not isinstance(sampled, int):
        raise ScenarioSpecError(f"{path}: expected an integer, got {sampled!r}")
    return sampled


def _format_name(template: Any, path: str, **fields: Any) -> str:
    if not isinstance(template, str) or not template:
        raise ScenarioSpecError(
            f"{path}: expected a non-empty name template, got {template!r}"
        )
    try:
        return template.format(**fields)
    except (KeyError, IndexError, ValueError) as exc:
        raise ScenarioSpecError(
            f"{path}: bad name template {template!r} "
            f"(available fields: {', '.join(sorted(fields))}): {exc}"
        ) from exc


def _resolve_servers(selector: Any, n_servers: int, names: list[str],
                     path: str) -> list[int]:
    """Resolve a server selector to a list of indices (in selector order)."""
    if selector == "all":
        return list(range(n_servers))
    if isinstance(selector, bool):
        raise ScenarioSpecError(f"{path}: bad server selector {selector!r}")
    if isinstance(selector, int):
        selector = {"indices": [selector]}
    if not isinstance(selector, dict) or len(selector) != 1:
        raise ScenarioSpecError(
            f"{path}: expected 'all', an index, or one of "
            "{'range': [lo, hi]}, {'indices': [...]}, {'names': [...]}, "
            f"got {selector!r}"
        )
    (kind, value), = selector.items()
    if kind == "range":
        lo, hi = _pair(value, f"{path}.range")
        if int(lo) != lo or int(hi) != hi:
            raise ScenarioSpecError(f"{path}.range: bounds must be integers")
        lo, hi = int(lo), int(hi)
        if not 0 <= lo <= hi <= n_servers:
            raise ScenarioSpecError(
                f"{path}.range: [{lo}, {hi}) outside the fleet's "
                f"[0, {n_servers})"
            )
        return list(range(lo, hi))
    if kind == "indices":
        if not isinstance(value, list) or not value:
            raise ScenarioSpecError(f"{path}.indices: expected a non-empty list")
        indices = []
        for i in value:
            if isinstance(i, bool) or not isinstance(i, int) \
                    or not 0 <= i < n_servers:
                raise ScenarioSpecError(
                    f"{path}.indices: index {i!r} outside [0, {n_servers})"
                )
            indices.append(i)
        return indices
    if kind == "names":
        if not isinstance(value, list) or not value:
            raise ScenarioSpecError(f"{path}.names: expected a non-empty list")
        index_of = {name: i for i, name in enumerate(names)}
        indices = []
        for name in value:
            if name not in index_of:
                raise ScenarioSpecError(f"{path}.names: unknown server {name!r}")
            indices.append(index_of[name])
        return indices
    raise ScenarioSpecError(f"{path}: unknown selector kind {kind!r}")


# -- compilation state ---------------------------------------------------------


class _Committed:
    """Conservative per-server resource ledger through the timeline.

    Accepted arrivals and migrations-in add to a server forever (nothing
    is ever subtracted for migrations-out), so an admission against this
    ledger over-approximates every instantaneous runtime state — the
    compile-time guarantee that a compiled scenario cannot
    capacity-fault mid-run.
    """

    def __init__(self, servers: list[ServerSpec]) -> None:
        self.servers = servers
        self.memory_gb = [0.0] * len(servers)
        self.vcpus = [0] * len(servers)

    def add(self, index: int, vm: VmSpec) -> None:
        self.memory_gb[index] += vm.memory_gb
        self.vcpus[index] += vm.vcpus

    def free(self, index: int) -> tuple[float, float]:
        spec = self.servers[index]
        return (
            spec.capacity.memory_gb - self.memory_gb[index],
            spec.vcpu_limit - self.vcpus[index],
        )

    def fits(self, index: int, vm: VmSpec) -> bool:
        free_memory, free_vcpus = self.free(index)
        return (
            vm.memory_gb <= free_memory + 1e-9
            and vm.vcpus <= free_vcpus + 1e-9
        )


# -- sub-compilers -------------------------------------------------------------


def _group_classes(entry: dict, fields: dict, factory: RngFactory,
                   path: str) -> list[dict]:
    """The hardware fixed per server of one server group, one dict each.

    A plain group is ``count`` servers with nothing fixed. A ``classes``
    group forms the product of its ``choice`` fields (first field
    outermost), shuffles it on the ``classes`` stream, and emits
    ``each`` servers for each of the first ``classes`` combinations.
    """
    if "classes" not in entry:
        if "each" in entry:
            raise ScenarioSpecError(f"{path}.each: only valid with 'classes'")
        return [{}] * _require_count(entry.get("count"), f"{path}.count")
    if "count" in entry:
        raise ScenarioSpecError(
            f"{path}: a classes group takes 'classes' and 'each', not 'count'"
        )
    n_classes = _require_count(entry["classes"], f"{path}.classes")
    each = _require_count(entry.get("each"), f"{path}.each")
    keys = [key for key in _HARDWARE_FIELDS
            if isinstance(fields[key], dict) and set(fields[key]) == {"choice"}]
    options = []
    for key in keys:
        choices = fields[key]["choice"]
        if not isinstance(choices, list) or not choices:
            raise ScenarioSpecError(
                f"{path}.{key}.choice: expected a non-empty list"
            )
        options.append(choices)
    combos = [dict(zip(keys, values)) for values in itertools.product(*options)]
    if n_classes > len(combos):
        raise ScenarioSpecError(
            f"{path}.classes: {n_classes} classes exceed the {len(combos)} "
            "distinct hardware combinations of its choice fields"
        )
    factory.stream("classes").shuffle(combos)
    return [combo for combo in combos[:n_classes] for _ in range(each)]


def _compile_servers(entries: Any, catalog: Catalog, factory: RngFactory,
                     path: str) -> list[ServerSpec]:
    """Server groups → specs. Distribution-valued hardware fields draw
    per server from the ``hardware`` stream, in field order."""
    if not isinstance(entries, list) or not entries:
        raise ScenarioSpecError(
            f"{path}: expected a non-empty list of server groups"
        )
    specs: list[ServerSpec] = []
    seen: set[str] = set()
    for gi, entry in enumerate(entries):
        gpath = f"{path}[{gi}]"
        entry = _require_mapping(entry, gpath)
        _check_keys(entry, _SERVER_KEYS, gpath)
        if "type" in entry:
            hw = catalog.hardware_type(entry["type"])
            fields = {key: getattr(hw, key) for key in _HARDWARE_FIELDS}
        else:
            missing = [k for k in ("cpu_cores", "ghz_per_core", "memory_gb")
                       if k not in entry]
            if missing:
                raise ScenarioSpecError(
                    f"{gpath}: inline hardware needs "
                    f"{', '.join(missing)} (or give a catalog 'type')"
                )
            fields = {"fan_count": 4, "fan_speed": 0.7, "cpu_overcommit": 2.0}
        for key in _HARDWARE_FIELDS:
            if key in entry:
                fields[key] = entry[key]
        template = entry.get("name", "server-{index:03d}")
        for fixed in _group_classes(entry, fields, factory, gpath):
            index = len(specs)
            name = _format_name(template, f"{gpath}.name", index=index,
                                group_index=gi)
            if name in seen:
                raise ScenarioSpecError(
                    f"{gpath}: duplicate server name {name!r}"
                )
            seen.add(name)
            drawn = dict(fields, **fixed)
            for key in _HARDWARE_FIELDS:
                if isinstance(drawn[key], dict):
                    drawn[key] = sample_value(drawn[key],
                                              factory.stream("hardware"),
                                              f"{gpath}.{key}")
            try:
                sku = HardwareType(name=entry.get("type", "inline"), **drawn)
                specs.append(sku.server_spec(name))
            except (ConfigurationError, TypeError) as exc:
                raise ScenarioSpecError(f"{gpath}: {exc}") from exc
    return specs


def _cap_amplitude(doc: Any, mean: float, path: str) -> Any:
    """Cap a ``uniform`` amplitude's upper bound at ``min(hi, mean,
    1 - mean)``, so the sampled load never leaves [0, 1]."""
    if not isinstance(doc, dict) or set(doc) != {"uniform"}:
        return doc
    lo, hi = _pair(doc["uniform"], f"{path}.uniform")
    cap = min(hi, mean, 1.0 - mean)
    if cap < lo:
        raise ScenarioSpecError(
            f"{path}.uniform: lower bound {lo} exceeds the cap "
            f"min(hi, mean, 1 - mean) = {cap} at mean {mean}"
        )
    return {"uniform": [lo, cap]}


def _compile_task(entry: Any, rng: RngStream, path: str) -> list[Task]:
    """One task document → tasks (``count`` repeats, one draw set each).

    ``{"one_of": [task, ...]}`` picks one alternative with one
    ``choice`` draw, then compiles it.
    """
    entry = _require_mapping(entry, path)
    if "one_of" in entry:
        alternatives = entry["one_of"]
        if set(entry) != {"one_of"} or not isinstance(alternatives, list) \
                or not alternatives:
            raise ScenarioSpecError(
                f"{path}: 'one_of' takes a non-empty list of tasks and "
                "nothing else"
            )
        pick = rng.choice(list(range(len(alternatives))))
        return _compile_task(alternatives[pick], rng,
                             f"{path}.one_of[{pick}]")
    kinds = [k for k in entry if k in _TASK_KINDS]
    extra = sorted(set(entry) - {"count"} - set(kinds))
    if len(kinds) != 1 or extra:
        raise ScenarioSpecError(
            f"{path}: a task needs exactly one of "
            f"{', '.join(_TASK_KINDS)} (plus optional 'count'); "
            f"got {sorted(entry)}"
        )
    kind = kinds[0]
    count = _require_count(entry.get("count"), f"{path}.count")
    tasks: list[Task] = []
    for _ in range(count):
        try:
            if kind == "constant":
                tasks.append(ConstantTask(
                    level=_sample_number(entry[kind], rng, f"{path}.constant")
                ))
            elif kind == "periodic":
                params = _require_mapping(entry[kind], f"{path}.periodic")
                _check_keys(params,
                            frozenset({"mean", "amplitude", "period", "phase"}),
                            f"{path}.periodic")
                mean = _sample_number(params.get("mean", 0.5), rng,
                                      f"{path}.periodic.mean")
                amplitude = _sample_number(
                    _cap_amplitude(params.get("amplitude", 0.2), mean,
                                   f"{path}.periodic.amplitude"),
                    rng, f"{path}.periodic.amplitude",
                )
                period = _sample_number(params.get("period", 300.0), rng,
                                        f"{path}.periodic.period",
                                        allow_offset=True)
                phase = _sample_number(params.get("phase", 0.0), rng,
                                       f"{path}.periodic.phase",
                                       allow_offset=True)
                tasks.append(PeriodicTask(mean=mean, amplitude=amplitude,
                                          period_s=period, phase_s=phase))
            else:
                params = _require_mapping(entry[kind], f"{path}.ramp")
                _check_keys(params,
                            frozenset({"start_level", "end_level", "ramp"}),
                            f"{path}.ramp")
                start = _sample_number(params.get("start_level", 0.2), rng,
                                       f"{path}.ramp.start_level")
                end = _sample_number(params.get("end_level", 0.8), rng,
                                     f"{path}.ramp.end_level")
                ramp = _sample_number(params.get("ramp", 600.0), rng,
                                      f"{path}.ramp.ramp", allow_offset=True)
                tasks.append(RampTask(start_level=start, end_level=end,
                                      ramp_s=ramp))
        except ScenarioSpecError:
            raise
        except ConfigurationError as exc:
            raise ScenarioSpecError(f"{path}.{kind}: {exc}") from exc
    return tasks


def _compile_vm(entry: dict, rng: RngStream, catalog: Catalog,
                server_index: int, server_name: str, vm_index: int,
                path: str) -> VmSpec:
    """One VM instance. Its fields draw in document key order."""
    _check_keys(entry, _VM_KEYS, path)
    vcpus_doc = entry.get("vcpus")
    memory_doc = entry.get("memory_gb")
    if "type" in entry:
        vm_type = catalog.vm_type(entry["type"])
        if vcpus_doc is None:
            vcpus_doc = vm_type.vcpus
        if memory_doc is None:
            memory_doc = vm_type.memory_gb
    if vcpus_doc is None or memory_doc is None:
        raise ScenarioSpecError(
            f"{path}: needs 'vcpus' and 'memory_gb' (or a catalog 'type')"
        )
    if "name" not in entry:
        raise ScenarioSpecError(f"{path}: needs a 'name' template")
    name = _format_name(entry["name"], f"{path}.name",
                        server_index=server_index, server_name=server_name,
                        vm_index=vm_index)
    task_docs = entry.get("tasks", [])
    if not isinstance(task_docs, list):
        raise ScenarioSpecError(f"{path}.tasks: expected a list")
    order = [key for key in entry if key in _VM_FIELDS]
    values: dict[str, Any] = {}
    for key in order + [key for key in _VM_FIELDS if key not in order]:
        if key == "vcpus":
            values[key] = _sample_int(vcpus_doc, rng, f"{path}.vcpus")
        elif key == "memory_gb":
            values[key] = _sample_number(memory_doc, rng, f"{path}.memory_gb")
        else:
            values[key] = tuple(
                task for ti, task_doc in enumerate(task_docs)
                for task in _compile_task(task_doc, rng, f"{path}.tasks[{ti}]")
            )
    try:
        return VmSpec(name=name, **values)
    except ConfigurationError as exc:
        raise ScenarioSpecError(f"{path}: {exc}") from exc


def _compile_environment(doc: Any, path: str) -> EnvironmentProfile:
    if doc is None:
        return ConstantEnvironment(22.0)
    doc = _require_mapping(doc, path)
    if len(doc) != 1:
        raise ScenarioSpecError(
            f"{path}: expected exactly one of 'constant', 'sinusoidal', "
            f"'stepped', got {sorted(doc)}"
        )
    (kind, value), = doc.items()
    try:
        if kind == "constant":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ScenarioSpecError(
                    f"{path}.constant: expected a temperature in degC, "
                    f"got {value!r}"
                )
            return ConstantEnvironment(float(value))
        if kind == "sinusoidal":
            params = _require_mapping(value, f"{path}.sinusoidal")
            _check_keys(params,
                        frozenset({"mean", "amplitude", "period", "phase"}),
                        f"{path}.sinusoidal")
            return SinusoidalEnvironment(
                mean_c=float(params.get("mean", 22.0)),
                amplitude_c=float(params.get("amplitude", 1.5)),
                period_s=parse_offset(params.get("period", 86400.0),
                                      f"{path}.sinusoidal.period"),
                phase_s=parse_offset(params.get("phase", 0.0),
                                     f"{path}.sinusoidal.phase"),
            )
        if kind == "stepped":
            params = _require_mapping(value, f"{path}.stepped")
            _check_keys(params, frozenset({"initial", "steps"}),
                        f"{path}.stepped")
            steps = []
            for si, step in enumerate(params.get("steps", [])):
                if not isinstance(step, (list, tuple)) or len(step) != 2:
                    raise ScenarioSpecError(
                        f"{path}.stepped.steps[{si}]: expected [time, temp]"
                    )
                time_s = parse_offset(step[0], f"{path}.stepped.steps[{si}]")
                if time_s < 0:
                    raise ScenarioSpecError(
                        f"{path}.stepped.steps[{si}]: negative step time "
                        f"{time_s}s"
                    )
                steps.append((time_s, float(step[1])))
            return SteppedEnvironment(
                initial_c=float(params.get("initial", 22.0)),
                steps=tuple(steps),
            )
    except ScenarioSpecError:
        raise
    except ConfigurationError as exc:
        raise ScenarioSpecError(f"{path}.{kind}: {exc}") from exc
    raise ScenarioSpecError(
        f"{path}: unknown environment kind {kind!r} "
        "(expected constant, sinusoidal, or stepped)"
    )


def _event_offset(doc: dict, duration_s: float, path: str,
                  end_open: bool = True) -> float:
    if "at" not in doc:
        raise ScenarioSpecError(f"{path}: timeline events need an 'at' offset")
    time_s = parse_offset(doc["at"], f"{path}.at")
    if time_s < 0:
        raise ScenarioSpecError(
            f"{path}.at: negative offset {time_s}s — events cannot precede "
            "the start of the run"
        )
    if end_open and time_s >= duration_s:
        raise ScenarioSpecError(
            f"{path}.at: t={time_s}s is at or past the end of the "
            f"{duration_s}s run and would silently never fire"
        )
    return time_s


def _fold_ambient_events(
    environment: EnvironmentProfile,
    events: list[tuple[float, str, Any, str]],
) -> EnvironmentProfile:
    """Fold ambient timeline events into a stepped environment.

    Relative events (``cooling_derate``, ``ambient_ramp``) apply on top
    of whatever temperature is in effect at their fire time, so events
    compose with the base profile and with each other chronologically.
    """
    if isinstance(environment, ConstantEnvironment):
        initial = environment.temperature_c
        steps: list[tuple[float, float]] = []
    elif isinstance(environment, SteppedEnvironment):
        initial = environment.initial_c
        steps = list(environment.steps)
    else:
        first_path = min(events, key=lambda e: e[0])[3]
        raise ScenarioSpecError(
            f"{first_path}: ambient timeline events need a constant or "
            "stepped base environment (sinusoidal profiles cannot be "
            "step-merged)"
        )

    def temperature_at(time_s: float) -> float:
        current = initial
        for start, value in sorted(steps, key=lambda s: s[0]):
            if time_s >= start:
                current = value
        return current

    for time_s, kind, body, path in sorted(events, key=lambda e: e[0]):
        if kind in ("ambient_step", "cooling_derate"):
            if isinstance(body, bool) or not isinstance(body, (int, float)):
                what = ("delta" if kind == "cooling_derate" else "set-point")
                raise ScenarioSpecError(
                    f"{path}.{kind}: expected a temperature {what} in degC, "
                    f"got {body!r}"
                )
            if kind == "ambient_step":
                steps.append((time_s, float(body)))
            else:
                steps.append((time_s, temperature_at(time_s) + float(body)))
        else:  # ambient_ramp
            params = _require_mapping(body, f"{path}.ambient_ramp")
            _check_keys(params, _RAMP_KEYS, f"{path}.ambient_ramp")
            if "delta_c" not in params:
                raise ScenarioSpecError(f"{path}.ambient_ramp: needs 'delta_c'")
            delta_c = params["delta_c"]
            if isinstance(delta_c, bool) or not isinstance(delta_c, (int, float)):
                raise ScenarioSpecError(
                    f"{path}.ambient_ramp.delta_c: expected degC, "
                    f"got {delta_c!r}"
                )
            n_steps = _require_count(params.get("steps"),
                                     f"{path}.ambient_ramp.steps", default=4)
            spacing = parse_offset(params.get("spacing", 60.0),
                                   f"{path}.ambient_ramp.spacing")
            if spacing <= 0:
                raise ScenarioSpecError(
                    f"{path}.ambient_ramp.spacing: must be > 0 s, "
                    f"got {spacing}s"
                )
            base_c = temperature_at(time_s)
            for k in range(1, n_steps + 1):
                steps.append(
                    (time_s + (k - 1) * spacing,
                     base_c + float(delta_c) * k / n_steps)
                )
    return SteppedEnvironment(
        initial_c=initial, steps=tuple(sorted(steps, key=lambda s: s[0]))
    )


def _compile_arrival(body: Any, time_s: float, duration_s: float,
                     names: list[str], committed: _Committed,
                     catalog: Catalog, stream_for: Callable,
                     register: Callable, arrivals: list, path: str) -> None:
    body = _require_mapping(body, path)
    _check_keys(body, _ARRIVAL_KEYS, path)
    if "servers" not in body or "vm" not in body:
        raise ScenarioSpecError(f"{path}: needs 'servers' and 'vm'")
    selected = _resolve_servers(body["servers"], len(names), names,
                                f"{path}.servers")
    count = _require_count(body.get("count"), f"{path}.count")
    spacing = parse_offset(body.get("spacing", 0.0), f"{path}.spacing")
    if spacing < 0:
        raise ScenarioSpecError(f"{path}.spacing: negative spacing {spacing}s")
    when = body.get("when")
    if when is not None:
        when = _require_mapping(when, f"{path}.when")
        _check_keys(when, _WHEN_KEYS, f"{path}.when")
    require_headroom = bool(body.get("require_headroom", False))
    vm_entry = _require_mapping(body["vm"], f"{path}.vm")
    if "count" in vm_entry:
        raise ScenarioSpecError(
            f"{path}.vm: use the arrival's 'count', not a VM 'count'"
        )
    for index in selected:
        if when is not None:
            # Conditional trigger: evaluated against the committed ledger
            # BEFORE any sampling, so a skipped server consumes no draws.
            free_memory, free_vcpus = committed.free(index)
            if free_memory < float(when.get("min_free_memory_gb", 0.0)):
                continue
            if free_vcpus < float(when.get("min_free_vcpus", 0.0)):
                continue
        rng = stream_for(body, index, path)
        for j in range(count):
            arrival_time = time_s + j * spacing
            if arrival_time >= duration_s:
                raise ScenarioSpecError(
                    f"{path}: arrival #{j} on {names[index]!r} lands at "
                    f"t={arrival_time}s, at or past the end of the "
                    f"{duration_s}s run, and would silently never fire"
                )
            vm = _compile_vm(vm_entry, rng, catalog, index, names[index], j,
                             f"{path}.vm")
            if not committed.fits(index, vm):
                if require_headroom:
                    continue  # deterministic drop; draws already consumed
                free_memory, free_vcpus = committed.free(index)
                raise ScenarioSpecError(
                    f"{path}: server {names[index]!r} lacks committed "
                    f"headroom for arrival {vm.name!r} (needs "
                    f"{vm.memory_gb:.1f} GiB/{vm.vcpus} vCPUs, has "
                    f"{free_memory:.1f} GiB/{free_vcpus:.0f} vCPUs); set "
                    "'require_headroom' to drop instead"
                )
            register(index, vm, f"{path}.vm", False)
            arrivals.append((arrival_time, names[index], vm))


# -- the compiler --------------------------------------------------------------


def compile_spec(doc: dict, catalog: Catalog | None = None) -> FleetScenario:
    """Compile a declarative scenario document onto a :class:`FleetScenario`.

    Deterministic: equal ``(doc, catalog)`` always yield an equal
    scenario. Raises :class:`~repro.errors.ScenarioSpecError` with a
    path-qualified message on any invalid document.
    """
    catalog = catalog if catalog is not None else default_catalog()
    doc = _require_mapping(doc, "spec")
    _check_keys(doc, _TOP_KEYS, "spec")
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise ScenarioSpecError("spec.name: expected a non-empty string")
    seed = doc.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ScenarioSpecError(f"spec.seed: expected an int, got {seed!r}")
    if "duration" not in doc:
        raise ScenarioSpecError("spec.duration: required")
    duration_s = parse_offset(doc["duration"], "spec.duration")
    if duration_s <= 0:
        qualifier = " (negative duration offset)" if duration_s < 0 else ""
        raise ScenarioSpecError(
            f"spec.duration: must be > 0 s, got {duration_s}s{qualifier}"
        )
    servers_per_rack = _require_count(doc.get("servers_per_rack"),
                                      "spec.servers_per_rack", default=16)

    factory = RngFactory(seed)
    servers = _compile_servers(doc.get("servers"), catalog, factory,
                               "spec.servers")
    names = [spec.name for spec in servers]
    placements: list[list[VmSpec]] = [[] for _ in servers]
    committed = _Committed(servers)
    vm_names: set[str] = set()
    initial_home: dict[str, int] = {}

    def stream_for(block: dict, index: int, path: str) -> RngStream:
        template = block.get("stream", "vms/{server_index}")
        return factory.stream(_format_name(
            template, f"{path}.stream", server_index=index,
            server_name=names[index],
        ))

    def register(index: int, vm: VmSpec, path: str, initial: bool) -> None:
        if vm.name in vm_names:
            raise ScenarioSpecError(
                f"{path}: duplicate VM name {vm.name!r} — names must be "
                "fleet-unique (migrations address VMs by name)"
            )
        vm_names.add(vm.name)
        committed.add(index, vm)
        if initial:
            placements[index].append(vm)
            initial_home[vm.name] = index

    def place(index: int, entries: list[tuple[dict, str]], rng: RngStream,
              clamp: bool) -> None:
        """One server's share of a placement block. With ``clamp``, each
        VM's vCPUs shrink to the server's remaining ``int(vcpu_limit)``
        and the server takes no more VMs once none is left."""
        for vm_entry, vpath in entries:
            count = _require_count(vm_entry.get("count"), f"{vpath}.count",
                                   rng=rng)
            for _ in range(count):
                left = int(servers[index].vcpu_limit) - committed.vcpus[index]
                if clamp and left < 1:
                    return
                vm = _compile_vm(vm_entry, rng, catalog, index, names[index],
                                 len(placements[index]), vpath)
                if clamp and vm.vcpus > left:
                    vm = replace(vm, vcpus=left)
                register(index, vm, vpath, True)

    # Initial placements.
    blocks = doc.get("placements", [])
    if not isinstance(blocks, list):
        raise ScenarioSpecError("spec.placements: expected a list")
    for bi, block in enumerate(blocks):
        bpath = f"spec.placements[{bi}]"
        block = _require_mapping(block, bpath)
        _check_keys(block, _PLACEMENT_KEYS, bpath)
        if "servers" not in block or "vms" not in block:
            raise ScenarioSpecError(f"{bpath}: needs 'servers' and 'vms'")
        selected = _resolve_servers(block["servers"], len(servers), names,
                                    f"{bpath}.servers")
        vm_entries = block["vms"]
        if not isinstance(vm_entries, list) or not vm_entries:
            raise ScenarioSpecError(f"{bpath}.vms: expected a non-empty list")
        entries = [
            (_require_mapping(vm_entry, f"{bpath}.vms[{vi}]"),
             f"{bpath}.vms[{vi}]")
            for vi, vm_entry in enumerate(vm_entries)
        ]
        clamp = bool(block.get("clamp_vcpus", False))
        for index in selected:
            place(index, entries, stream_for(block, index, bpath), clamp)

    # Static capacity: every placement must fit its server outright.
    for index, spec in enumerate(servers):
        free_memory, free_vcpus = spec.static_headroom(placements[index])
        if free_memory < -1e-9:
            used = spec.capacity.memory_gb - free_memory
            raise ScenarioSpecError(
                f"spec.placements: server {spec.name!r} is overcommitted on "
                f"memory: {used:.1f} GiB placed vs "
                f"{spec.capacity.memory_gb:.1f} GiB capacity "
                "(memory is a hard admission constraint)"
            )
        if free_vcpus < -1e-9:
            used = spec.vcpu_limit - free_vcpus
            raise ScenarioSpecError(
                f"spec.placements: server {spec.name!r} is overcommitted on "
                f"vCPUs: {used:.0f} placed vs limit {spec.vcpu_limit:.0f} "
                f"({spec.capacity.cpu_cores} cores x "
                f"{spec.cpu_overcommit} overcommit)"
            )

    environment = _compile_environment(doc.get("environment"),
                                       "spec.environment")

    # Timeline.
    arrivals: list[tuple[float, str, VmSpec]] = []
    migrations: list[tuple[float, str, str]] = []
    ambient_events: list[tuple[float, str, Any, str]] = []
    migrated: set[str] = set()
    events = doc.get("timeline", [])
    if not isinstance(events, list):
        raise ScenarioSpecError("spec.timeline: expected a list")
    for ei, event in enumerate(events):
        epath = f"spec.timeline[{ei}]"
        event = _require_mapping(event, epath)
        kinds = [k for k in event if k in _EVENT_KINDS]
        if len(kinds) != 1 or set(event) - {"at"} - set(kinds):
            raise ScenarioSpecError(
                f"{epath}: an event needs 'at' plus exactly one of "
                f"{', '.join(_EVENT_KINDS)}; got {sorted(event)}"
            )
        kind = kinds[0]
        body = event[kind]
        if kind == "arrival":
            time_s = _event_offset(event, duration_s, epath)
            _compile_arrival(body, time_s, duration_s, names, committed,
                             catalog, stream_for, register, arrivals,
                             f"{epath}.arrival")
        elif kind == "migrate":
            time_s = _event_offset(event, duration_s, epath)
            body = _require_mapping(body, f"{epath}.migrate")
            _check_keys(body, _MIGRATE_KEYS, f"{epath}.migrate")
            vm_name = body.get("vm")
            destination = body.get("to")
            if not isinstance(vm_name, str) or not isinstance(destination, str):
                raise ScenarioSpecError(
                    f"{epath}.migrate: needs 'vm' and 'to' names"
                )
            if vm_name not in initial_home:
                extra = (
                    " (mid-run arrivals cannot be migrated — only initially "
                    "placed VMs are addressable at build time)"
                    if vm_name in vm_names else ""
                )
                raise ScenarioSpecError(
                    f"{epath}.migrate: VM {vm_name!r} is not initially "
                    f"placed{extra}"
                )
            if destination not in names:
                raise ScenarioSpecError(
                    f"{epath}.migrate: unknown destination {destination!r}"
                )
            source_index = initial_home[vm_name]
            dest_index = names.index(destination)
            if dest_index == source_index:
                raise ScenarioSpecError(
                    f"{epath}.migrate: VM {vm_name!r} already lives on "
                    f"{destination!r}"
                )
            if vm_name in migrated:
                raise ScenarioSpecError(
                    f"{epath}.migrate: VM {vm_name!r} is already scheduled "
                    "to migrate once"
                )
            vm = next(v for v in placements[source_index] if v.name == vm_name)
            if not committed.fits(dest_index, vm):
                if body.get("require_headroom"):
                    continue  # deterministic drop, by request
                free_memory, free_vcpus = committed.free(dest_index)
                raise ScenarioSpecError(
                    f"{epath}.migrate: destination {destination!r} lacks "
                    f"committed headroom for {vm_name!r} (needs "
                    f"{vm.memory_gb:.1f} GiB/{vm.vcpus} vCPUs, has "
                    f"{free_memory:.1f} GiB/{free_vcpus:.0f} vCPUs); set "
                    "'require_headroom' to drop instead"
                )
            migrated.add(vm_name)
            committed.add(dest_index, vm)
            migrations.append((time_s, vm_name, destination))
        else:
            # Ambient events may land at/after the end (harmlessly inert).
            time_s = _event_offset(event, duration_s, epath, end_open=False)
            ambient_events.append((time_s, kind, body, epath))

    if ambient_events:
        environment = _fold_ambient_events(environment, ambient_events)

    try:
        return FleetScenario(
            name=name,
            server_specs=tuple(servers),
            vm_specs=tuple(tuple(group) for group in placements),
            environment=environment,
            duration_s=duration_s,
            seed=seed,
            migrations=tuple(migrations),
            arrivals=tuple(arrivals),
            servers_per_rack=servers_per_rack,
        )
    except ScenarioSpecError:
        raise
    except ConfigurationError as exc:
        raise ScenarioSpecError(f"spec: {exc}") from exc
