"""Retraining plans: sliding-window record sets from live telemetry.

Retraining needs exactly what the original profiling campaign produced
— labelled Eq. (2) records — but harvested from the running fleet
instead of a dedicated experiment. For each stale class the
:class:`RetrainPlanner` turns the trailing telemetry window of every
tracked server into one record: the server's *current* hardware + VM
inputs (:func:`~repro.core.monitor.record_for_server`), the window-mean
ambient as δ_env, and the Eq. (1) window mean of the sampled CPU
temperature as the ψ_stable label — Ilager et al.'s "retrain
periodically from live measurements", in this codebase's record schema.

A server only contributes a record when its label is trustworthy: it
must have enough matured samples in the window and (by default) an
unchanged VM count across it — a mid-window arrival or eviction would
average two different thermal plateaus into one bogus label. Classes
left with too few clean records are skipped with a reason, so a
lifecycle round degrades to "wait for more data" instead of fitting an
overconfident model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.monitor import record_for_server
from repro.core.records import ExperimentRecord
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class RetrainPlannerConfig:
    """Knobs of the sliding-window record harvest."""

    #: Length of the trailing telemetry window labelling each record (s).
    window_s: float = 1800.0
    #: Minimum matured CPU-temperature samples a server needs in the
    #: window for its Eq. (1) mean to be a meaningful label.
    min_samples: int = 20
    #: Classes with fewer clean records than this are skipped.
    min_class_records: int = 4
    #: Skip servers whose VM set changed inside the window (their
    #: window mean averages two different steady states). Detected via
    #: the fleet's retarget log — every VM-set change retargets the
    #: server's curve — with the telemetry vm-count series as a backstop
    #: (the log is empty when no probe drives the fleet, and the count
    #: catches pre-tracking placements; offsetting add+remove churn
    #: leaves the count unchanged but still shows up as retargets).
    require_stable_vm_set: bool = True

    def __post_init__(self) -> None:
        if self.window_s <= 0:
            raise ConfigurationError(f"window_s must be > 0, got {self.window_s}")
        if self.min_samples < 1:
            raise ConfigurationError(
                f"min_samples must be >= 1, got {self.min_samples}"
            )
        if self.min_class_records < 2:
            raise ConfigurationError(
                f"min_class_records must be >= 2, got {self.min_class_records}"
            )


@dataclass(frozen=True)
class ClassRecordSet:
    """Fresh labelled records for one server class."""

    key: str
    server_names: tuple[str, ...]
    records: tuple[ExperimentRecord, ...]

    def __post_init__(self) -> None:
        if len(self.server_names) != len(self.records):
            raise ConfigurationError(
                f"{len(self.server_names)} servers but {len(self.records)} records"
            )

    @property
    def n_records(self) -> int:
        """Number of labelled records in the set."""
        return len(self.records)


@dataclass(frozen=True)
class RetrainPlan:
    """One lifecycle round's worth of retraining work."""

    time_s: float
    window_s: float
    classes: tuple[ClassRecordSet, ...]
    #: (class key, human-readable reason) for classes that yielded no set.
    skipped: tuple[tuple[str, str], ...]

    @property
    def n_records(self) -> int:
        """Total labelled records across all classes."""
        return sum(record_set.n_records for record_set in self.classes)

    @property
    def keys(self) -> list[str]:
        """Class keys with a record set, in plan order."""
        return [record_set.key for record_set in self.classes]


class RetrainPlanner:
    """Assembles sliding-window record sets for stale classes."""

    def __init__(self, config: RetrainPlannerConfig | None = None) -> None:
        self.config = config or RetrainPlannerConfig()

    def plan(self, time_s: float, stale_keys: list[str], sim, fleet) -> RetrainPlan:
        """Harvest one labelled record per eligible server of each stale class.

        ``sim`` supplies the cluster (current VM sets), telemetry (the
        sampled temperature/vm-count series), and environment profile;
        ``fleet`` maps tracked servers to their model keys. Servers and
        classes that cannot produce a clean record are skipped, never
        guessed.
        """
        config = self.config
        if time_s < config.window_s:
            # A partial window would average the fleet's initial thermal
            # transient into every label — refuse to plan until a full
            # window of telemetry exists.
            return RetrainPlan(
                time_s=time_s,
                window_s=config.window_s,
                classes=(),
                skipped=tuple(
                    (key, f"telemetry window not yet full ({time_s:.0f}s "
                          f"< {config.window_s:.0f}s)")
                    for key in stale_keys
                ),
            )
        telemetry = sim.telemetry
        t0 = max(0.0, time_s - config.window_s)
        env_mean = sim.environment.mean_over(t0, time_s)
        names = fleet.names
        keys = fleet.model_keys
        retargeted_in_window: set[str] = {
            name
            for name, retarget_time_s, _, _ in getattr(
                fleet, "retarget_log", []
            )
            if t0 < retarget_time_s <= time_s + 1e-9
        }
        by_class: dict[str, list[str]] = {}
        for name, key in zip(names, keys):
            by_class.setdefault(key, []).append(name)

        class_sets: list[ClassRecordSet] = []
        skipped: list[tuple[str, str]] = []
        for key in stale_keys:
            members = by_class.get(key)
            if not members:
                skipped.append((key, "no tracked servers"))
                continue
            kept: list[str] = []
            records: list[ExperimentRecord] = []
            cpu = telemetry.window_stats(
                "cpu_temperature", members, t0, time_s + 1e-9
            )
            if config.require_stable_vm_set:
                counts = telemetry.window_stats(
                    "vm_count", members, t0, time_s + 1e-9
                )
            for i, name in enumerate(members):
                if cpu.counts[i] < config.min_samples:
                    continue
                if config.require_stable_vm_set:
                    if name in retargeted_in_window:
                        continue  # VM-set change inside the window
                    if counts.counts[i] and counts.lows[i] != counts.highs[i]:
                        continue  # VM churn inside the window: label unsafe
                server = sim.cluster.server(name)
                record = record_for_server(server, env_mean).with_output(
                    float(cpu.means[i])
                )
                record.metadata["retrain_window_s"] = config.window_s
                record.metadata["retrain_time_s"] = time_s
                kept.append(name)
                records.append(record)
            if len(records) < config.min_class_records:
                skipped.append(
                    (
                        key,
                        f"{len(records)} clean records < "
                        f"min_class_records={config.min_class_records}",
                    )
                )
                continue
            class_sets.append(
                ClassRecordSet(
                    key=key,
                    server_names=tuple(kept),
                    records=tuple(records),
                )
            )
        return RetrainPlan(
            time_s=time_s,
            window_s=config.window_s,
            classes=tuple(class_sets),
            skipped=tuple(skipped),
        )
