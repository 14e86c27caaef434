"""The value classes: equality and hash by fields, immutability, and the
checks their constructors make."""
import copy
import pickle

import pytest

import braidbu.decide as dec
from braidbu.covering import EdgePath
from braidbu.errors import InvalidParameterError
from braidbu.fundgroup import GeneratorId
from braidbu.graphs import ORD_INF, Edge, Graph, TreeOrder
from braidbu.oracle import Report
from braidbu.perms import Perm
from braidbu.words import FreeWord


E1, E2 = Edge("e1", 0, 1, 1, True), Edge("e2", 1, 2, 2, True)
WORD = FreeWord((("x1", 1),))
HOM = dec.GroupHom({"x1": 1})

# class: (its fields, the same fields with the first one changed)
VALUES = {
    Perm: (((2, 1, 3),), ((1, 2, 3),)),
    FreeWord: (((("a", 1), ("b", -1)),), ((("a", 1),),)),
    GeneratorId: (("fm", Perm((2, 1)), 1), ("quotient", Perm((2, 1)), 1)),
    dec.ActionData: ((3, 2, (1, 0)), (4, 2, (1, 0))),
    Graph: ((3, (E1, E2)), (4, (E1, E2, Edge("e3", 2, 3, 3, True)))),
    Edge: (("a", 0, 1, ORD_INF, False), ("b", 0, 1, ORD_INF, False)),
    TreeOrder: (((0, 1), (None, 0), (None, "e1"), {"e1": 1}), ((1, 0), (None, 0), (None, "e1"), {"e1": 1})),
    EdgePath: (((0,), (((0,), 1),), (1,)), ((2,), (((0,), 1),), (1,))),
    dec.GroupHom: (({"x1": WORD},), ({"x1": WORD.inverse()},)),
    dec.Witness: ((HOM, HOM), (dec.GroupHom({"x1": 2}), HOM)),
    dec.BUVerdict: ((False, None), (True, None)),
    dec.VerifyResult: ((False, ("bad",)), (True, ("bad",))),
}
FIRST_FIELD = {Perm: "images", FreeWord: "letters", GeneratorId: "space", dec.ActionData: "n", Graph: "num_vertices"}


def _hashable(fields) -> bool:
    try:
        hash(fields)
    except TypeError:  # a record holding a dict is unhashable, as it always was
        return False
    return True


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
class TestValueContract:
    def test_equal_fields_give_equal_objects_and_hashes(self, cls):
        fields, _ = VALUES[cls]
        a, b = cls(*fields), cls(*fields)
        assert a == b and not a != b
        if _hashable(fields):
            # the hash of the field tuple, so set and dict orders do not move
            assert hash(a) == hash(b) == hash(fields)

    def test_a_changed_field_gives_an_unequal_object(self, cls):
        fields, changed = VALUES[cls]
        assert cls(*fields) != cls(*changed)

    def test_fields_cannot_be_assigned(self, cls):
        fields, changed = VALUES[cls]
        obj = cls(*fields)
        field = FIRST_FIELD.get(cls) or cls._fields[0]
        with pytest.raises(AttributeError):
            setattr(obj, field, changed[0])
        with pytest.raises(AttributeError):
            delattr(obj, field)
        assert getattr(obj, field) == fields[0]

    def test_copies_and_pickles_are_equal(self, cls):
        obj = cls(*VALUES[cls][0])
        assert copy.copy(obj) == obj == copy.deepcopy(obj) == pickle.loads(pickle.dumps(obj))


def test_defaults_and_truth():
    assert FreeWord() == FreeWord(()) and FreeWord().is_identity()
    assert dec.BUVerdict(True).witness is None
    assert dec.VerifyResult(True).failures == ()
    assert not dec.VerifyResult(False) and dec.VerifyResult(True)


def test_perm_order_is_that_of_its_images():
    perms = [Perm((3, 1, 2)), Perm((1, 2, 3)), Perm((2, 1, 3))]
    assert sorted(perms) == [Perm((1, 2, 3)), Perm((2, 1, 3)), Perm((3, 1, 2))]
    assert Perm((1, 2)) < Perm((2, 1)) <= Perm((2, 1)) and Perm((2, 1)) > Perm((1, 2)) >= Perm((1, 2))


def test_explicit_classes_carry_no_instance_dict():
    for obj in (Perm((1,)), FreeWord(), GeneratorId("fm", Perm((1,)), 1), dec.ActionData(2, 1, (1,))):
        assert not hasattr(obj, "__dict__")


def test_report_is_mutable_with_lists_of_its_own():
    a, b = Report("x"), Report("x")
    a.records.append(("k", "v"))
    assert b.records == [] and b.checks == []
    assert a != b and Report("x", [("k", "v")]) == a


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: Perm((1, 1, 3)), ValueError, "not a permutation of 1..3: (1, 1, 3)"),
        (lambda: Perm((0, 1)), ValueError, "not a permutation of 1..2: (0, 1)"),
        (lambda: Graph(0, ()), InvalidParameterError, "graph needs at least one vertex"),
        (lambda: Graph(2, (Edge("e", 1, 1, 1, True),)), InvalidParameterError, "bad endpoints on edge e: 1,1"),
        (lambda: Graph(2, (Edge("e f", 0, 1, 1, True),)), InvalidParameterError, "bad edge name 'e f'"),
        (lambda: Graph(3, (E1, E1)), InvalidParameterError, "duplicate edge name e1"),
        (lambda: Graph(2, (Edge("e", 0, 1, ORD_INF, True),)), InvalidParameterError,
         "tree edge e cannot have infinite ordinal"),
        (lambda: Graph(2, (Edge("e", 0, 1, 1, False),)), InvalidParameterError,
         "non-tree edge e must have infinite ordinal"),
        (lambda: Graph(3, (E1, Edge("e2", 1, 2, 1, True))), InvalidParameterError,
         "tree edge ordinals must be pairwise distinct"),
        (lambda: Graph(2, (E1, Edge("c", 0, 1, ORD_INF, False), Edge("d", 0, 1, ORD_INF, False))),
         InvalidParameterError, "at most one non-tree edge is supported"),
        (lambda: Graph(3, (E1,)), InvalidParameterError, "tree edges must number V-1"),
        (lambda: Graph(3, (E1, Edge("e2", 0, 1, 2, True))), InvalidParameterError, "tree edges contain a cycle"),
        (lambda: dec.ActionData(1, 1, (1,)), InvalidParameterError, "need n >= 2, got 1"),
        (lambda: dec.ActionData(2, 2, (1,)), InvalidParameterError, "theta must list one value per generator"),
        (lambda: dec.ActionData(2, 0, ()), InvalidParameterError, "theta must list one value per generator"),
        (lambda: dec.ActionData(4, 2, (2, 0)), InvalidParameterError, "theta is not surjective onto Z_n"),
    ],
)
def test_bad_input_is_refused_with_its_message(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error and str(info.value) == message

