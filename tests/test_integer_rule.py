"""The one integer rule (``linalg._integers``) and the one shape rule
(``linalg._shape``) at every entry point that reads a dimension, count,
index or seed: a bool, a float, a string or None is rejected with a
``PurifyLabError`` that names the argument, and a NumPy integer gives the
result of the Python int."""

import numpy as np
import pytest

from purifylab import theory
from purifylab.channels import ChoiOperator, KrausSet, PurificationVector
from purifylab.channels import depolarizing_choi, max_entangled_purification
from purifylab.ensembles import EnsembleSpec
from purifylab.errors import DomainError, InvalidDims
from purifylab.metrics import _chunk_map, estimate_average_error, orbit_bruteforce
from purifylab.metrics import parse_strategy, second_moment_operator
from purifylab.strategies import tomography_estimate

SPEC = EnsembleSpec(2, 2, 2, seed=3)
SMALL = EnsembleSpec(1, 2, 1, seed=3)
DEP = depolarizing_choi(1, 2)
ORBIT = max_entangled_purification(1, 2)  # d_e = 2, so the grid is scanned

# entry point -> (call of the value under test, a valid value, error class,
# the name its message must hold)
ENTRY_POINTS = {
    "spec-d_i": (lambda x: EnsembleSpec(x, 2, 2), 1, InvalidDims, "d_i"),
    "spec-d_o": (lambda x: EnsembleSpec(2, x, 2), 3, InvalidDims, "d_o"),
    "spec-d_e": (lambda x: EnsembleSpec(2, 2, x), 2, InvalidDims, "d_e"),
    "spec-seed": (lambda x: EnsembleSpec(2, 2, 2, seed=x), 5, InvalidDims, "seed"),
    "stream-index": (lambda x: SPEC.stream(x), 4, InvalidDims, "index"),
    "stream-purpose": (lambda x: SPEC.stream(0, x), 1, InvalidDims, "purpose"),
    "streams-lo": (lambda x: list(SPEC.streams(x, 3)), 1, InvalidDims, "lo"),
    "streams-hi": (lambda x: list(SPEC.streams(0, x)), 3, InvalidDims, "hi"),
    "streams-purpose": (lambda x: list(SPEC.streams(0, 2, x)), 2, InvalidDims, "purpose"),
    "choi-d_i": (lambda x: ChoiOperator(x, 2, np.eye(2)), 1, InvalidDims, "d_i"),
    "choi-d_o": (lambda x: ChoiOperator(1, x, np.eye(2)), 2, InvalidDims, "d_o"),
    "purification-d_i": (lambda x: PurificationVector(x, 2, 1, np.ones(2)), 1,
                         InvalidDims, "d_i"),
    "purification-d_o": (lambda x: PurificationVector(1, x, 1, np.ones(2)), 2,
                         InvalidDims, "d_o"),
    "purification-d_e": (lambda x: PurificationVector(1, 2, x, np.ones(2)), 1,
                         InvalidDims, "d_e"),
    "kraus-d_i": (lambda x: KrausSet(x, 2, (np.eye(2, 1),)), 1, InvalidDims, "d_i"),
    "kraus-d_o": (lambda x: KrausSet(1, x, (np.eye(2, 1),)), 2, InvalidDims, "d_o"),
    "chunk-map-workers": (lambda x: list(_chunk_map(lambda lo, hi: (lo, hi), 600, x)), 1,
                          InvalidDims, "workers"),
    "reduce-n": (lambda x: estimate_average_error(parse_strategy("avg-ue", SPEC), SPEC, x),
                 5, InvalidDims, "count n"),
    "second-moment-n": (lambda x: second_moment_operator(SMALL, x), 3, InvalidDims, "count n"),
    "tomography-k": (lambda x: tomography_estimate(DEP, x, np.random.default_rng(4)), 8,
                     InvalidDims, "budget k"),
    "orbit-resolution": (lambda x: orbit_bruteforce(np.eye(4) / 4, ORBIT, resolution=x), 3,
                         InvalidDims, "resolution"),
    "eps-tomo-k": (lambda x: theory.eps_tomo_bound(2, 2, 2, x, 0.1, 1.0), 64, DomainError,
                   "budget k"),
    "eps-tomo-shape": (lambda x: theory.eps_tomo_bound(2, 2, x, 64, 0.1, 1.0), 3,
                       DomainError, "d_e"),
    "avg-purity-shape": (lambda x: theory.avg_purity(x, 2, 2), 2, DomainError, "d_i"),
    "sqrt-moment-shape": (lambda x: theory.sqrt_moment_asymptote(2, x, 8), 2, DomainError,
                          "d_o"),
}
BAD_VALUES = {"true": True, "np-true": np.True_, "float": 2.5, "str": "2", "none": None}
# k = None is tomography's infinite-copy surrogate, not a bad value
REJECTED = [pytest.param(entry, value, id=f"{entry}-{vid}") for entry in ENTRY_POINTS
            for vid, value in BAD_VALUES.items() if (entry, vid) != ("tomography-k", "none")]


def _same(a, b) -> bool:
    """Equal results: arrays bit for bit, records field by field."""
    if hasattr(a, "per_sample"):  # an ErrorReport
        return np.array_equal(a.per_sample, b.per_sample) and a.mean == b.mean
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("entry, value", REJECTED)
def test_rejects_non_integers_naming_the_argument(entry, value):
    call, _, error, name = ENTRY_POINTS[entry]
    with pytest.raises(error, match=name):
        call(value)


@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=ENTRY_POINTS)
def test_numpy_integer_gives_the_python_result(entry):
    call, good, _, _ = ENTRY_POINTS[entry]
    assert _same(call(np.int64(good)), call(good))


@pytest.mark.parametrize("make", [
    lambda x: ChoiOperator(x, x, np.eye(4)),
    lambda x: PurificationVector(x, x, x, np.ones(8)),
    lambda x: KrausSet(x, x, (np.eye(2),)),
], ids=["choi", "purification", "kraus"])
def test_channel_records_store_python_ints(make):
    record = make(np.int64(2))
    ints = [v for v in vars(record).values() if isinstance(v, (int, np.integer))]
    assert ints and all(type(v) is int for v in ints)
