"""Exported frozen dataclasses own their arrays.

Every ndarray field of an exported frozen dataclass is stored read-only, so
neither the library nor a caller can edit it in place, and an edit to an
array the caller passed in reaches neither the stored values nor anything
computed from them. A new class or array field fails these tests until it
follows the rule or is named below with its reason.
"""

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

import lthead
from lthead import (FeatureDataset, LossSpec, TextClassEmbeddings,
                    stats_from_counts)

# class name: (the caller's arrays by argument name, the constructor)
BUILDERS = {
    "ClassStats": (lambda: {"counts": np.array([150, 30, 5])},
                   stats_from_counts),
    "FeatureDataset": (
        lambda: {"features": np.arange(8.0).reshape(4, 1, 2),
                 "labels": np.array([0, 1, 0, 2])},
        lambda features, labels: FeatureDataset(features, labels, 3)),
    "LossSpec": (
        lambda: {"weights": np.ones(3), "biases": np.log([150.0, 30.0, 5.0]),
                 "margins": np.zeros(3)},
        lambda **vecs: LossSpec("lade", **vecs)),
    "TextClassEmbeddings": (lambda: {"matrix": np.eye(3) + 1.0},
                            TextClassEmbeddings.from_matrix),
}
# Array fields kept as given, each with its reason.
KEPT_AS_GIVEN = {
    ("FeatureDataset", "features"): "a copy would cost about 232 µs at "
                                    "criterion 5's size (README, data)",
}


def _array_dataclasses() -> dict[str, list[str]]:
    """Each exported frozen dataclass with an ndarray field: its array fields."""
    found = {}
    for name, obj in vars(lthead).items():
        if (isinstance(obj, type) and dataclasses.is_dataclass(obj)
                and obj.__dataclass_params__.frozen):
            arrays = [f.name for f in dataclasses.fields(obj)
                      if f.type == "Array"]
            if arrays:
                found[name] = arrays
    return found


def _public_state(obj) -> dict:
    """Every public non-callable attribute: fields, properties and caches."""
    return {attr: getattr(obj, attr) for attr in dir(obj)
            if not attr.startswith("_") and not callable(getattr(obj, attr))}


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
        if (name, field) not in KEPT_AS_GIVEN:
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
