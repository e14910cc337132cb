"""The value types' contract: each of latkit's eight immutable types behaves
as the frozen dataclass of the same fields in ``reference_values`` does,
and survives copy, deep copy and pickle."""

import copy
import dataclasses
import pickle
from fractions import Fraction as F

import pytest

from latkit import (
    Decomposition,
    EnumerationRequest,
    GeneratingSet,
    InsertionRecord,
    LatticeBasis,
    MinimaResult,
    ReductionParams,
    UpdateTrace,
)

import reference_values

B = LatticeBasis([(1, F(1, 2)), (0, 2)])


def cases():
    """For each type: a value, one built apart with equal fields, and one
    that differs in a field."""
    def make():
        return {
            "LatticeBasis": (LatticeBasis([(1, F(1, 2)), (0, 2)]),
                             LatticeBasis([(1, 0), (0, 2)])),
            "GeneratingSet": (
                GeneratingSet([(1, 0), (-1, 0)], F(3, 2), complete=True),
                GeneratingSet([(1, 0), (-1, 0)], F(3, 2))),
            "MinimaResult": (MinimaResult((F(1, 4),), [(F(1, 2), 0)], 1),
                             MinimaResult((F(1, 4),), [(F(1, 2), 0)], 1,
                                          partial=True)),
            "ReductionParams": (ReductionParams(delta=F(1, 2)),
                                ReductionParams()),
            "EnumerationRequest": (EnumerationRequest(B, 4, cap=10),
                                   EnumerationRequest(B, 4)),
            "InsertionRecord": (InsertionRecord(0, True, 1, F(1, 4)),
                                InsertionRecord(1, True, 1, F(1, 4))),
            "UpdateTrace": (UpdateTrace(((0, True, 1, 1),), 2, 0),
                            UpdateTrace(((0, True, 1, 1),), 2, 1)),
            "Decomposition": (Decomposition((B,)), Decomposition(())),
        }
    first, second = make(), make()
    return [pytest.param(first[k][0], second[k][0], first[k][1], id=k)
            for k in first]


def reference(x):
    """The frozen dataclass of ``x``'s name, on ``x``'s field values."""
    ref = getattr(reference_values, type(x).__name__)
    return ref(*(getattr(x, f.name) for f in dataclasses.fields(ref)))


def field_tuple(x):
    return tuple(getattr(x, f.name) for f in dataclasses.fields(reference(x)))


def test_every_value_type_is_covered():
    assert {p.id for p in cases()} == {
        name for name, obj in vars(reference_values).items()
        if dataclasses.is_dataclass(obj)}


@pytest.mark.parametrize("x, same, other", cases())
def test_fields_are_the_dataclass_fields(x, same, other):
    names = tuple(f.name for f in dataclasses.fields(reference(x)))
    assert type(x).__slots__ == names
    assert not hasattr(x, "__dict__")


@pytest.mark.parametrize("x, same, other", cases())
def test_equality_and_hash(x, same, other):
    assert same is not x
    assert x == same and not x != same
    assert x != other and not x == other
    assert hash(x) == hash(same) == hash(field_tuple(x)) == hash(reference(x))
    # Another class, even one of equal fields, is never equal.
    ref = reference(x)
    assert x != ref and ref != x
    assert not x == field_tuple(x)
    assert x.__eq__(ref) is NotImplemented


@pytest.mark.parametrize("x, same, other", cases())
def test_repr(x, same, other):
    if type(x) is LatticeBasis:
        assert repr(x) == ("LatticeBasis([(Fraction(1, 1), Fraction(1, 2)), "
                           "(Fraction(0, 1), Fraction(2, 1))])")
    else:
        assert repr(x) == repr(reference(x))


@pytest.mark.parametrize("x, same, other", cases())
def test_fields_are_frozen(x, same, other):
    ref = reference(x)
    for f in dataclasses.fields(ref):
        value = getattr(x, f.name)
        with pytest.raises(dataclasses.FrozenInstanceError) as want:
            setattr(ref, f.name, value)
        with pytest.raises(dataclasses.FrozenInstanceError) as got:
            setattr(x, f.name, value)
        assert str(got.value) == str(want.value)
        with pytest.raises(dataclasses.FrozenInstanceError) as want:
            delattr(ref, f.name)
        with pytest.raises(dataclasses.FrozenInstanceError) as got:
            delattr(x, f.name)
        assert str(got.value) == str(want.value)
        assert getattr(x, f.name) is value
    with pytest.raises(dataclasses.FrozenInstanceError):
        x.extra = 1
    assert x == same


@pytest.mark.parametrize("x, same, other", cases())
@pytest.mark.parametrize("round_trip", [
    copy.copy,
    copy.deepcopy,
    *(lambda y, p=p: pickle.loads(pickle.dumps(y, p))
      for p in range(pickle.HIGHEST_PROTOCOL + 1)),
], ids=["copy", "deepcopy",
        *(f"pickle{p}" for p in range(pickle.HIGHEST_PROTOCOL + 1))])
def test_copy_and_pickle(x, same, other, round_trip):
    y = round_trip(x)
    assert type(y) is type(x)
    assert y == x and hash(y) == hash(x) and repr(y) == repr(x)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(y, dataclasses.fields(reference(x))[0].name, None)


def test_keyword_construction():
    assert ReductionParams(delta=F(3, 4)) == ReductionParams()
    req = EnumerationRequest(basis=B, bound_sq="4", cap=7)
    assert (req.bound_sq, req.cap) == (F(4), 7)
    assert EnumerationRequest(B, 4).cap == 10**6
    assert InsertionRecord(index=0, was_update=True, rank_after=1,
                           volume_sq_after=F(1)).rank_after == 1
    assert UpdateTrace(steps=(), scale=1, swaps=0).update_count == 0
    assert Decomposition(components=(B,)).r == 1
