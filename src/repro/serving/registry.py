"""Model registry for the fleet prediction service.

Fleet-scale serving needs one place that owns the trained ψ_stable
models (Eq. 1–2): servers of the same hardware/VM class share one
ε-SVR, and models trained on the same profiling campaign share one
feature scaler (LIBSVM's svm-scale map must be the *training* map at
inference time, so sharing it is correctness, not just memory).

A :class:`ModelRegistry` maps string keys — typically a server class
such as ``"rack-a/16-core"`` — to :class:`ModelEntry` triples
``(extractor, scaler, svr)``. Lookups fall back to the ``"default"``
entry when a key is unknown, so a fleet can run with one global model
and specialize per class incrementally.

Entries are **immutable versions**. Registration snapshots the fitted
extractor/scaler/SVR state (components passed by reference would let a
later in-place ``fit`` of the same objects silently mutate live serving
— the stale-model family of bugs), and :meth:`ModelRegistry.swap`
publishes a retrained model as a *new* version of an existing key in
one atomic step. Aliases bind to the target *key*, not to one of its
entries, so they always follow the target's current version across
swaps. Callers that resolved an entry before a swap keep a fully
functional (superseded) model — mid-batch readers never observe a
half-published state.

A component that is already part of some entry (e.g. ``base.scaler``,
passed back to register another class on the same svm-scale map) is
shared as-is; anything else is copied on registration. Ownership is
read off the entries themselves, so there is no cache to keep fresh
and a registry serializes and deep-copies like any plain value.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from repro.core.features import FeatureExtractor
from repro.core.records import ExperimentRecord
from repro.core.stable import StableTemperaturePredictor
from repro.errors import ServingError
from repro.svm.scaling import MinMaxScaler
from repro.svm.svr import EpsilonSVR, predict_scaled

#: Fallback key used by :meth:`ModelRegistry.resolve`.
DEFAULT_KEY = "default"


@dataclass(frozen=True)
class ModelEntry:
    """One deployable stable-temperature model: extractor → scaler → SVR.

    Entries are immutable value objects owned by the registry — their
    components are frozen snapshots of the fitted state they were
    registered from, so refitting the source objects cannot change what
    an entry serves. ``version`` counts swaps of the entry's key,
    starting at 1.
    """

    extractor: FeatureExtractor
    scaler: MinMaxScaler
    model: EpsilonSVR
    version: int = 1

    def predict_records(self, records: list[ExperimentRecord]) -> np.ndarray:
        """ψ_stable forecasts for a batch of Eq. (2) records.

        The whole batch goes through one feature matrix, one scaler
        transform, and one (chunked) kernel evaluation — the same
        numerical path per row as a single-record call, so batched and
        looped predictions are bit-identical.
        """
        if not records:
            return np.empty(0, dtype=float)
        return self.predict_features(self.extractor.matrix(records))

    def predict_features(self, x: np.ndarray) -> np.ndarray:
        """ψ_stable forecasts for rows laid out like ``extractor.matrix``.

        :meth:`predict_records` is this over ``extractor.matrix(records)``;
        the what-if scorer passes rows built from fleet arrays instead.
        """
        return predict_scaled(self.scaler, self.model, x)


class ModelRegistry:
    """Keyed store of trained stable-temperature models.

    Usage::

        registry = ModelRegistry()
        registry.register("default", trained_predictor)
        registry.alias("rack-a/16-core", "default")   # follows "default"
        psi = registry.resolve("rack-b/unknown").predict_records(records)
        registry.swap("default", retrained_predictor)  # version 2, atomic

    Every component an entry holds is registry-owned: a caller's object
    is copied when it is registered, and a component some entry already
    holds is shared (see :meth:`_freeze`).
    """

    def __init__(self) -> None:
        #: Canonical key → version list; the last element is current.
        self._models: dict[str, list[ModelEntry]] = {}
        #: Alias key → target key (possibly itself an alias).
        self._aliases: dict[str, str] = {}

    # -- snapshotting --------------------------------------------------------

    def _freeze(self, component):
        """Registry-owned form of a fitted component.

        A component that is already the extractor, scaler or model of
        any version of any entry is shared as-is. Anything else is a
        caller's live object and is deep-copied, so refitting it in
        place later cannot change what an entry serves.
        """
        for versions in self._models.values():
            for entry in versions:
                if (
                    component is entry.extractor
                    or component is entry.scaler
                    or component is entry.model
                ):
                    return component
        return copy.deepcopy(component)

    def _successor(
        self,
        current: ModelEntry,
        model: EpsilonSVR,
        scaler: MinMaxScaler | None,
        extractor: FeatureExtractor | None,
        version: int,
    ) -> ModelEntry:
        """Entry serving ``model``; omitted components carry ``current``'s forward."""
        return ModelEntry(
            extractor=(
                current.extractor if extractor is None else self._freeze(extractor)
            ),
            scaler=current.scaler if scaler is None else self._freeze(scaler),
            model=self._freeze(model),
            version=version,
        )

    # -- registration -------------------------------------------------------

    def register(self, key: str, predictor: StableTemperaturePredictor) -> ModelEntry:
        """Register a fitted :class:`StableTemperaturePredictor` under ``key``.

        The predictor's fitted extractor/scaler/SVR are **snapshotted**
        at registration — refitting ``predictor`` in place afterwards
        leaves the served entry untouched. Raises
        :class:`~repro.errors.NotFittedError` when the predictor has not
        been trained and :class:`~repro.errors.ServingError` on duplicate
        keys.
        """
        return self.register_model(
            key,
            predictor.svr,
            scaler=predictor.scaler,
            extractor=predictor.extractor,
        )

    def register_model(
        self,
        key: str,
        model: EpsilonSVR,
        scaler: MinMaxScaler,
        extractor: FeatureExtractor | None = None,
    ) -> ModelEntry:
        """Register raw fitted components under ``key`` (version 1).

        Components are snapshotted, except that passing another entry's
        ``scaler`` (or ``extractor``) shares that entry's frozen copy,
        which is how per-class models trained on one svm-scale map are
        deployed.
        """
        if not key:
            raise ServingError("model key must be non-empty")
        if key in self:
            raise ServingError(f"model key {key!r} already registered")
        entry = ModelEntry(
            extractor=self._freeze(extractor or FeatureExtractor()),
            scaler=self._freeze(scaler),
            model=self._freeze(model),
            version=1,
        )
        self._models[key] = [entry]
        return entry

    def swap(self, key: str, predictor: StableTemperaturePredictor) -> ModelEntry:
        """Atomically publish a retrained predictor as ``key``'s next version."""
        return self.swap_model(
            key,
            predictor.svr,
            scaler=predictor.scaler,
            extractor=predictor.extractor,
        )

    def swap_model(
        self,
        key: str,
        model: EpsilonSVR,
        scaler: MinMaxScaler | None = None,
        extractor: FeatureExtractor | None = None,
    ) -> ModelEntry:
        """Atomically publish raw fitted components as ``key``'s next version.

        ``key`` must name a registered model (swap an alias's *target*,
        not the alias — aliases re-resolve on their own). Omitting
        ``scaler``/``extractor`` carries the current version's frozen
        components forward, preserving the deployed svm-scale map. The
        new entry is snapshotted first and published with one list
        append, so concurrent readers see either the old or the new
        version, never an intermediate; superseded entries stay valid
        for callers that already resolved them.
        """
        if key in self._aliases:
            raise ServingError(
                f"cannot swap alias {key!r}; swap its target "
                f"{self._canonical(key)!r} instead"
            )
        versions = self._models.get(key)
        if versions is None:
            raise ServingError(
                f"cannot swap unregistered key {key!r}; "
                f"registered keys: {self.keys()}"
            )
        current = versions[-1]
        entry = self._successor(
            current, model, scaler, extractor, version=current.version + 1
        )
        versions.append(entry)
        return entry

    def promote(
        self,
        key: str,
        model: EpsilonSVR,
        scaler: MinMaxScaler | None = None,
        extractor: FeatureExtractor | None = None,
    ) -> ModelEntry:
        """Give alias ``key`` its own model (version 1), atomically.

        The lifecycle path for a class that was aliased to the default
        at campaign time (too few records) and has since drifted enough
        to earn its own model: the alias binding is replaced by a fresh
        version-1 entry. Omitted ``scaler``/``extractor`` inherit the
        old target's frozen components, preserving the deployed
        svm-scale map. Raises on keys that are not aliases.
        """
        target = self._aliases.get(key)
        if target is None:
            raise ServingError(
                f"cannot promote {key!r}: not an alias"
                + (" (already a model key)" if key in self._models else "")
            )
        entry = self._successor(
            self._require(target), model, scaler, extractor, version=1
        )
        # Publish, then drop the alias binding: a reader between the two
        # statements still resolves through the (now shadowed) alias to
        # a valid entry.
        self._models[key] = [entry]
        del self._aliases[key]
        return entry

    def is_alias(self, key: str) -> bool:
        """Whether ``key`` is an alias binding (not its own model)."""
        return key in self._aliases

    def alias(self, key: str, existing_key: str) -> ModelEntry:
        """Serve ``key`` with whatever ``existing_key`` currently resolves to.

        The alias binds to the *key*, not to its current entry: after a
        :meth:`swap` of ``existing_key`` (before or after the alias was
        created) the alias follows the new version. Returns the target's
        current entry.
        """
        if key in self:
            raise ServingError(f"model key {key!r} already registered")
        entry = self._require(existing_key)
        self._aliases[key] = existing_key
        return entry

    # -- lookup --------------------------------------------------------------

    def _canonical(self, key: str) -> str:
        """Follow alias indirection to the canonical model key.

        Chains cannot cycle: :meth:`alias` binds only a new key to an
        existing one, :meth:`promote` only removes aliases, and model
        keys are never removed.
        """
        while key in self._aliases:
            key = self._aliases[key]
        return key

    def _require(self, key: str) -> ModelEntry:
        versions = self._models.get(self._canonical(key))
        if versions is None:
            raise ServingError(
                f"unknown model key {key!r}; registered keys: {self.keys()}"
            )
        return versions[-1]

    def canonical_key(self, key: str) -> str:
        """The model key whose entry :meth:`resolve` serves for ``key``.

        Follows alias indirection and falls back to ``"default"`` (the
        one place that rule is written), so ``(canonical_key(key),
        resolve(key).version)`` uniquely identifies a served snapshot —
        the generation token the serving front-end keys its result cache
        by. Versions only grow per canonical key (``swap`` appends,
        ``promote`` replaces an *alias* — never a model key — with a
        fresh version-1 history), so a token can never silently come to
        mean a different model.
        """
        canonical = self._canonical(key)
        if canonical in self._models:
            return canonical
        fallback = self._canonical(DEFAULT_KEY)
        if fallback in self._models:
            return fallback
        raise ServingError(
            f"unknown model key {key!r} and no {DEFAULT_KEY!r} fallback; "
            f"registered keys: {self.keys()}"
        )

    def resolve(self, key: str) -> ModelEntry:
        """Current entry for ``key``, falling back to ``"default"``.

        Aliases follow their target key's *current* version. Raises
        :class:`~repro.errors.ServingError` when neither ``key`` nor the
        default entry exists.
        """
        return self._models[self.canonical_key(key)][-1]

    def versions(self, key: str) -> list[ModelEntry]:
        """All versions of the model :meth:`resolve` serves for ``key``, oldest first."""
        return list(self._models[self.canonical_key(key)])

    def current_version(self, key: str) -> int:
        """Version number :meth:`resolve` currently serves for ``key``."""
        return self.resolve(key).version

    def keys(self) -> list[str]:
        """All registered keys (models and aliases), sorted."""
        return sorted([*self._models, *self._aliases])

    def __contains__(self, key: str) -> bool:
        return key in self._models or key in self._aliases

    def __len__(self) -> int:
        return len(self._models) + len(self._aliases)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ModelRegistry(keys={self.keys()})"
