"""Exported frozen dataclasses check and own their fields.

Every exported frozen dataclass checks its fields in its own
`__post_init__`, so its constructor is the one way to build it. Every
ndarray field is stored read-only, so neither the library nor a caller can
edit it in place, and an edit to an array the caller passed in reaches
neither the stored values nor anything computed from them. A new class or
array field fails these tests until it follows the rule or is named below
with its reason.
"""

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

import lthead
from lthead import (ClassStats, DataError, FeatureDataset, LossSpec,
                    TextClassEmbeddings, zero_shot_classify)

# class name: (the caller's arrays by argument name, the constructor)
BUILDERS = {
    "ClassStats": (lambda: {"counts": np.array([150, 30, 5])}, ClassStats),
    "FeatureDataset": (
        lambda: {"features": np.arange(8.0).reshape(4, 1, 2),
                 "labels": np.array([0, 1, 0, 2])},
        lambda features, labels: FeatureDataset(features, labels, 3)),
    "LossSpec": (
        lambda: {"weights": np.ones(3), "biases": np.log([150.0, 30.0, 5.0]),
                 "margins": np.zeros(3)},
        lambda **vecs: LossSpec("lade", **vecs)),
    "TextClassEmbeddings": (lambda: {"matrix": np.eye(3) + 1.0},
                            TextClassEmbeddings),
}
# Array fields stored as read-only views of the caller's array, not copies,
# so a caller's own later edit reaches them; each with its reason.
KEPT_AS_GIVEN = {
    ("FeatureDataset", "features"): "a copy would cost about 232 µs at "
                                    "criterion 5's size (README, data)",
}


def _frozen_dataclasses() -> dict[str, type]:
    return {name: obj for name, obj in vars(lthead).items()
            if isinstance(obj, type) and dataclasses.is_dataclass(obj)
            and obj.__dataclass_params__.frozen}


def _array_dataclasses() -> dict[str, list[str]]:
    """Each exported frozen dataclass with an ndarray field: its array fields."""
    found = {}
    for name, obj in _frozen_dataclasses().items():
        arrays = [f.name for f in dataclasses.fields(obj) if f.type == "Array"]
        if arrays:
            found[name] = arrays
    return found


def _public_state(obj) -> dict:
    """Every public non-callable attribute: fields, properties and caches."""
    return {attr: getattr(obj, attr) for attr in dir(obj)
            if not attr.startswith("_") and not callable(getattr(obj, attr))}


@pytest.mark.parametrize("name", _frozen_dataclasses())
def test_checks_its_own_fields(name):
    assert "__post_init__" in vars(_frozen_dataclasses()[name])


def test_every_array_dataclass_has_a_builder():
    found = _array_dataclasses()
    assert set(found) == set(BUILDERS)
    for name, field in KEPT_AS_GIVEN:
        assert field in found[name]


@pytest.mark.parametrize("name", _array_dataclasses())
def test_array_fields_are_read_only(name):
    make_args, build = BUILDERS[name]
    obj = build(**make_args())
    for field in _array_dataclasses()[name]:
        value = getattr(obj, field)
        assert isinstance(value, np.ndarray)
        assert not value.flags.writeable, f"{name}.{field}"
        with pytest.raises(ValueError, match="read-only"):
            value[...] = 0


@pytest.mark.parametrize("name", BUILDERS)
def test_caller_edits_after_construction_miss_the_object(name):
    make_args, build = BUILDERS[name]
    args = make_args()
    obj = build(**args)
    state = _public_state(obj)  # fills any cached layout first
    for arg, array in args.items():
        if (name, arg) not in KEPT_AS_GIVEN:
            array[...] = -1
    npt.assert_equal(_public_state(obj), state)
    npt.assert_equal(state, _public_state(build(**make_args())))


def test_kept_as_given_shares_the_callers_array():
    features = np.arange(8.0).reshape(4, 1, 2)
    ds = FeatureDataset(features, [0, 1, 0, 2], 3)
    assert features.flags.writeable  # the caller's array keeps its flag
    features[0, 0, 0] = 9.0
    assert ds.features[0, 0, 0] == 9.0


def test_class_stats_derives_its_fields():
    stats = ClassStats([150, 30, 5])
    assert stats.counts.dtype == np.int64
    npt.assert_array_equal(stats.counts, [150, 30, 5])
    assert stats.priors.tobytes() == (np.array([150, 30, 5]) / 185).tobytes()
    npt.assert_array_equal(stats.groups, ["many", "medium", "few"])
    with pytest.raises(TypeError):  # priors and groups come from the counts
        ClassStats([1, 2], priors=np.array([0.5, 0.5]))


def test_class_stats_checks_its_counts():
    with pytest.raises(DataError,
                       match="^counts must be nonnegative with a positive total$"):
        ClassStats([0, 0])


def test_text_embeddings_normalize_their_rows():
    # unnormalized rows would answer class 1: 0.2 * 10 > 1
    matrix = np.array([[1.0, 0.0], [0.0, 10.0]])
    emb = TextClassEmbeddings(matrix)
    assert emb.matrix.tobytes() == (
        matrix / np.sqrt(np.sum(matrix ** 2, axis=1, keepdims=True))).tobytes()
    npt.assert_array_equal(zero_shot_classify([[1.0, 0.2]], emb), [0])
    npt.assert_array_equal(
        zero_shot_classify([[1.0, 0.2]], TextClassEmbeddings.from_matrix(matrix)), [0])
