"""Bit-identity pins for ψ_stable prediction.

Every public prediction surface ends in the same svm-scale map and
ε-SVR kernel expansion: ``EpsilonSVR.predict`` behind
``MinMaxScaler.transform``, ``StableTemperaturePredictor.predict`` and
``predict_many``, and ``ModelEntry.predict_records`` and
``predict_features``. These tests pin their outputs to fixed bits
(``float.hex`` of every value, hashed), so a rewrite of that path must
reproduce the same floats, not merely close ones. The cases cover:

* 1-, 2- and 3-row inputs, a 1-D row, ``chunk_size=1`` and an input
  longer than ``predict_chunk_rows``;
* scalers with constant feature columns and an all-zero-dual model
  (``n_support == 0``);
* RBF, linear and polynomial kernels;
* each model again after a ``pickle`` round trip, a ``copy.deepcopy``
  and a registry snapshot, each taken after the model has already
  served a one-row prediction.

The kernel Gram goes through BLAS, so the pinned digests belong to one
NumPy/BLAS build, like the perfbench output digests.
"""

import copy
import hashlib
import pickle

import numpy as np
import pytest

from repro.core.stable import StableTemperaturePredictor
from repro.serving.registry import ModelRegistry
from repro.svm.kernels import LinearKernel, PolynomialKernel, RbfKernel
from repro.svm.scaling import MinMaxScaler
from repro.svm.svr import EpsilonSVR
from tests.conftest import make_record


def _digest(values) -> str:
    text = "\n".join(float(v).hex() for v in values)
    return hashlib.sha256(text.encode()).hexdigest()


# -- the ψ_stable predictor and its served entry --------------------------------


def _training_records():
    kinds = ("constant", "bursty", "periodic")
    return [
        make_record(
            psi=38.0 + 1.7 * i + 0.4 * (i % 3),
            n_vms=2 + i % 7,
            fan_count=3 + i % 3,
            env=20.0 + 0.5 * (i % 5),
            util=0.15 + 0.04 * i,
            kind=kinds[i % 3],
        )
        for i in range(18)
    ]


def _query_records():
    kinds = ("constant", "periodic", "bursty", "ramp")
    return [
        make_record(
            psi=None,
            n_vms=1 + k % 11,
            fan_count=2 + k % 4,
            env=18.0 + 0.7 * (k % 9),
            util=0.1 + 0.021 * k,
            kind=kinds[k % 4],
        )
        for k in range(40)
    ]


def _fitted_predictor() -> StableTemperaturePredictor:
    predictor = StableTemperaturePredictor(c=10.0, gamma=0.05, epsilon=0.1)
    return predictor.fit(_training_records())


def _served(model, records) -> list[float]:
    """Every output of a predictor or a registry entry, flattened.

    A predictor and the entry registered from it answer the same
    questions with the same bits, so both flatten to one digest.
    """
    if isinstance(model, StableTemperaturePredictor):
        one, many = model.predict, model.predict_many
    else:
        one, many = (lambda r: model.predict_records([r])[0]), model.predict_records
    x = model.extractor.matrix(records)
    out = [one(r) for r in records[:3]]
    for n in (1, 2, 3, len(records)):
        out.extend(many(records[:n]))
    out.extend(model.predict_features(x[0]))
    for n in (1, 2, 3, len(records)):
        out.extend(model.predict_features(x[:n]))
    return out


def _warm(model, records):
    """Serve one single-row prediction, populating any per-call scratch."""
    _served(model, records[:1])
    return model


def _transported_predictor(transport: str, records):
    predictor = _warm(_fitted_predictor(), records)
    if transport == "fresh":
        return predictor
    if transport == "pickle":
        return pickle.loads(pickle.dumps(predictor))
    if transport == "deepcopy":
        return copy.deepcopy(predictor)
    registry = ModelRegistry()
    entry = _warm(registry.register("rack", predictor), records)
    if transport == "registry":
        return entry
    if transport == "entry-pickle":
        return pickle.loads(pickle.dumps(entry))
    assert transport == "registry-deepcopy"
    return copy.deepcopy(registry).resolve("rack")


PREDICTOR_PIN = "674404eef875c3ad8ad7c0962c39c07edeaa7ce42e452a3bed30dd8cf5dbf739"


@pytest.mark.parametrize(
    "transport",
    ["fresh", "pickle", "deepcopy", "registry", "entry-pickle", "registry-deepcopy"],
)
def test_predictor_and_entry_pinned(transport):
    records = _query_records()
    model = _transported_predictor(transport, records)
    assert _digest(_served(model, records)) == PREDICTOR_PIN


def test_predictor_scaler_has_constant_columns():
    """The training records share cores, GHz, memory and fan speed, so
    the served svm-scale map carries constant columns."""
    scaler = _fitted_predictor().scaler
    x = scaler.transform(_fitted_predictor().extractor.matrix(_query_records()))
    assert np.all(x[:, 0] == 0.0) and np.all(x[:, 2] == 0.0)


# -- bare ε-SVRs over every kernel ------------------------------------------------


KERNELS = {
    "rbf": (lambda: RbfKernel(gamma=0.3), 0.1),
    "linear": (lambda: LinearKernel(), 0.1),
    "poly": (lambda: PolynomialKernel(degree=2, gamma=0.2, coef0=1.0), 0.1),
    "rbf-zero-dual": (lambda: RbfKernel(gamma=0.3), 1e3),
}


def _fitted_pair(name: str) -> tuple[MinMaxScaler, EpsilonSVR]:
    make_kernel, epsilon = KERNELS[name]
    rng = np.random.default_rng(23)
    raw = rng.normal(loc=4.0, scale=2.0, size=(30, 6))
    raw[:, 3] = 7.5  # a constant feature column
    y = 40.0 + 3.0 * raw[:, 0] - 2.0 * np.sin(raw[:, 1]) + 0.5 * raw[:, 2] * raw[:, 4]
    scaler = MinMaxScaler().fit(raw)
    svr = EpsilonSVR(
        kernel=make_kernel(), c=10.0, epsilon=epsilon,
        max_iter=50_000, on_no_convergence="ignore",
    )
    return scaler, svr.fit(scaler.transform(raw), y)


def _queries() -> np.ndarray:
    rng = np.random.default_rng(29)
    q = rng.normal(loc=4.0, scale=2.5, size=(EpsilonSVR.predict_chunk_rows + 5, 6))
    q[::3, 3] = 7.5
    return q


def _scored(scaler: MinMaxScaler, svr: EpsilonSVR, q: np.ndarray) -> list[float]:
    out = [float(v) for v in np.ravel(scaler.transform(q[0]))]
    out.append(svr.predict(scaler.transform(q[0])))
    for n in (1, 2, 3):
        out.extend(svr.predict(scaler.transform(q[:n])))
    out.extend(svr.predict(scaler.transform(q[:7]), chunk_size=1))
    out.extend(svr.predict(scaler.transform(q[:7]), chunk_size=3))
    scaled = scaler.transform(q)
    out.extend(np.ravel(scaled[:50]))
    out.extend(svr.predict(scaled))
    return out


def _transported_pair(name: str, transport: str, q: np.ndarray):
    scaler, svr = _fitted_pair(name)
    _scored(scaler, svr, q[:3])
    if transport == "fresh":
        return scaler, svr
    if transport == "pickle":
        return pickle.loads(pickle.dumps((scaler, svr)))
    if transport == "deepcopy":
        return copy.deepcopy((scaler, svr))
    assert transport == "registry"
    entry = ModelRegistry().register_model("rack", svr, scaler=scaler)
    return entry.scaler, entry.model


SVR_PINS = {
    "rbf": "1e58eb5c75fd1da50c5d8068125716fd50d581bcfcf74abf2a38d198aa53f800",
    "linear": "7f6ec7cf247aa99dafc55d039148fbf698eec597b9fef9e928f444e2bac68036",
    "poly": "565466f764049b9435aa45bc16d6ffee0b75e3fa0834e0aaff1daa4fa252e4f1",
    "rbf-zero-dual": "7e8dea2632bcfe41f3193d48e1159f1fd10d145a569b2ab27c8bc8b2afe0c5ba",
}


@pytest.mark.parametrize("transport", ["fresh", "pickle", "deepcopy", "registry"])
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_bare_svr_pinned(name, transport):
    q = _queries()
    scaler, svr = _transported_pair(name, transport, q)
    assert _digest(_scored(scaler, svr, q)) == SVR_PINS[name]


def test_zero_dual_model_has_no_support_vectors():
    _, svr = _fitted_pair("rbf-zero-dual")
    assert svr.n_support == 0
    assert all(_fitted_pair(name)[1].n_support > 0 for name in ("rbf", "linear", "poly"))
