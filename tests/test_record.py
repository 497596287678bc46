"""The value semantics that the program relies on in its immutable
records: equality within one class only, the hash of the field tuple
(set and dict iteration orders, and so outputs, depend on it), refusal
of assignment, the Name(field=value, ...) repr, defaults and
__post_init__."""

import json
from importlib.resources import files

import pytest

from mcclass.combi import Composition, IndexTuple, Permutation
from mcclass.interp import OrbitProblem
from mcclass.report import ReportEntry
from mcclass.ring import Cocharacter


def _a2():
    data = files("mcclass.data").joinpath("a2quiver.json").read_text(encoding="utf-8")
    return OrbitProblem.from_json(json.loads(data))


def test_equality_is_by_fields_within_one_class():
    assert Permutation((2, 1, 3)) == Permutation([2, 1, 3])
    assert Permutation((2, 1, 3)) != Permutation((1, 2, 3))
    assert IndexTuple((1, 2), [[3], [1, 2]]) == IndexTuple(Composition((1, 2)), [[3], [2, 1]])
    assert ReportEntry((1, 2), "c", True) == ReportEntry((1, 2), "c", True, None)
    assert ReportEntry((1, 2), "c", True) != ReportEntry((1, 2), "c", False)
    # equal field values in different classes
    assert Permutation((1, 2)) != Cocharacter((1, 2))
    assert Cocharacter((1, 2)) != Permutation((1, 2))
    assert Permutation((1, 2)) != ((1, 2),)


@pytest.mark.parametrize("record, fields", [
    (Permutation((3, 1, 2)), ((3, 1, 2),)),
    (IndexTuple((1, 2), [[2], [1, 3]]), (Composition((1, 2)), ((2,), (1, 3)))),
    (Composition((2, 1)), ((2, 1),)),
    (ReportEntry(("p",), "support", False, {"k": 1}), (("p",), "support", False, {"k": 1})),
    (Cocharacter((0, -1, 2)), ((0, -1, 2),)),
], ids=["Permutation", "IndexTuple", "Composition", "ReportEntry", "Cocharacter"])
def test_hash_is_the_hash_of_the_field_tuple(record, fields):
    if any(isinstance(f, dict) for f in fields):
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(fields)


@pytest.mark.parametrize("record, field", [
    (Permutation((1, 2)), "word"),
    (IndexTuple((1, 1), [[1], [2]]), "blocks"),
    (ReportEntry((), "c", True), "witness"),
    (Cocharacter((1,)), "weights"),
    (_a2(), "orbits"),
    (_a2(), "restriction_maps"),
], ids=["Permutation", "IndexTuple", "ReportEntry", "Cocharacter", "OrbitProblem",
        "OrbitProblem-maps"])
def test_assignment_and_deletion_raise(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.unknown = 1


def test_repr_names_the_fields():
    assert repr(Permutation((2, 1))) == "Permutation(word=(2, 1))"
    assert repr(IndexTuple((1, 1), [[2], [1]])) == (
        "IndexTuple(mu=Composition(parts=(1, 1)), blocks=((2,), (1,)))")
    assert repr(ReportEntry((1,), "c", True)) == (
        "ReportEntry(pair=(1,), check='c', ok=True, witness=None)")
    assert repr(Cocharacter((1, 2))) == "Cocharacter(weights=(1, 2))"


def test_defaults_keywords_and_missing_arguments():
    e = ReportEntry(check="c", pair=(1,), ok=False)
    assert e.witness is None
    assert e == ReportEntry((1,), "c", False)
    assert ReportEntry((1,), "c", False, witness={"a": 1}).witness == {"a": 1}
    with pytest.raises(TypeError):
        ReportEntry((1,), "c")
    with pytest.raises(TypeError):
        ReportEntry((1,), "c", True, None, "extra")
    with pytest.raises(TypeError):
        ReportEntry((1,), "c", True, pair=(2,))
    with pytest.raises(TypeError):
        ReportEntry((1,), "c", True, unknown=1)


def test_cocharacter_coerces_its_weights_to_ints():
    d = Cocharacter(["1", 2.0, -3])
    assert d.weights == (1, 2, -3)
    assert all(type(w) is int for w in d.weights)
    assert Cocharacter(weights=[True, 0]).weights == (1, 0)


def test_restriction_maps_are_left_out_of_equality_and_repr():
    a, b = _a2(), _a2()
    # each load compiles maps of its own, which compare by identity
    assert a.restriction_maps["omega1"] is not b.restriction_maps["omega1"]
    assert a.restriction_maps["omega1"] != b.restriction_maps["omega1"]
    assert a == b
    assert repr(a) == repr(b)
    assert "restriction_maps" not in repr(a)
    assert repr(a).startswith("OrbitProblem(ansatz=SymmetricAnsatz(groups=")
