"""The contract of the package's immutable records: GaussianInt, Domino,
Tiling, LShapeSpec, SparseMatrix and DecompositionReport.  A field can be neither
assigned nor deleted; records compare, hash, order and print as below;
each constructor names what it refuses."""

import copy
import operator
import pickle
import random

import pytest

from residue_tilings.board import Board, LShapeSpec, rectangle
from residue_tilings.decomp import verify_decomposition
from residue_tilings.gaussian import GaussianInt
from residue_tilings.kasteleyn import SparseMatrix
from residue_tilings.tiling import Domino, Tiling


def report():
    return verify_decomposition(rectangle(2, 2), Board([(1, 1), (2, 1)]))


RECORDS = {
    "GaussianInt": (lambda: GaussianInt(3, -4), ("re", "im")),
    "Domino": (lambda: Domino((1, 1), (2, 1)), ("a", "b")),
    "Tiling": (lambda: Tiling(rectangle(2, 1), [Domino((1, 1), (2, 1))]), ("board", "dominoes")),
    "LShapeSpec": (lambda: LShapeSpec([2, 1], [3, 0]), ("a", "b")),
    "SparseMatrix": (lambda: SparseMatrix([{0: -1, 1: 2}, {}]), ("columns",)),
    "DecompositionReport": (report, ("board", "subset", "closure", "lhs", "rhs", "terms")),
}


@pytest.mark.parametrize("name", RECORDS)
def test_fields_can_be_neither_assigned_nor_deleted(name):
    make, fields = RECORDS[name]
    record = make()
    for field in fields + ("extra",):
        before = getattr(record, field, None)
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field, None) is before


@pytest.mark.parametrize("name", ["GaussianInt", "Domino", "Tiling", "LShapeSpec", "SparseMatrix"])
def test_records_equal_by_their_fields(name):
    make, fields = RECORDS[name]
    record, again = make(), make()
    assert record is not again and record == again and not record != again
    # equal fields of another type do not make an equal record
    assert record != tuple(getattr(record, field) for field in fields)
    assert copy.copy(record) == record == pickle.loads(pickle.dumps(record))


def test_records_hash_by_their_fields():
    assert hash(GaussianInt(3, -4)) == hash(GaussianInt(3, -4)) == hash((3, -4))
    for k in (-7, 0, 1, 2**70):
        assert hash(GaussianInt(k)) == hash(k) and GaussianInt(k) == k
    assert len({Domino((1, 1), (2, 1)), Domino((1, 1), (2, 1)), Domino((1, 1), (1, 2))}) == 2
    assert LShapeSpec([2], [3]) == LShapeSpec((2,), (3,))
    assert hash(LShapeSpec([2], [3])) == hash(LShapeSpec((2,), (3,)))
    assert isinstance(LShapeSpec([2], [3]).a, tuple)
    # a matrix holds dicts, so it compares but cannot be hashed
    with pytest.raises(TypeError):
        hash(SparseMatrix([{}]))


def test_reports_compare_by_identity():
    one, two = report(), report()
    assert one == one and one != two and hash(one) != hash(two)
    assert len({one, two, one}) == 2


def test_dominoes_order_as_their_cell_pairs():
    rng = random.Random(0)
    dominoes = []
    for _ in range(200):
        i, j = rng.randint(1, 6), rng.randint(1, 6)
        dominoes.append(Domino((i, j), (i + 1, j)) if rng.random() < 0.5
                        else Domino((i, j), (i, j + 1)))
    key = operator.attrgetter("a", "b")
    assert sorted(dominoes) == sorted(dominoes, key=key)
    for x, y in zip(dominoes, reversed(dominoes)):
        for op in (operator.lt, operator.le, operator.gt, operator.ge):
            assert op(x, y) == op(key(x), key(y))
    with pytest.raises(TypeError):
        dominoes[0] < ((1, 1), (2, 1))


@pytest.mark.parametrize("make", [lambda: GaussianInt(1) < GaussianInt(2),
                                  lambda: LShapeSpec([1], [1]) <= LShapeSpec([1], [1]),
                                  lambda: report() > report()],
                         ids=["GaussianInt", "LShapeSpec", "DecompositionReport"])
def test_other_records_are_unordered(make):
    with pytest.raises(TypeError):
        make()


def test_repr_names_each_field():
    assert repr(GaussianInt(1)) == "GaussianInt(re=1, im=0)"
    assert repr(GaussianInt(0, -2)) == "GaussianInt(re=0, im=-2)"
    assert repr(Domino((1, 1), (1, 2))) == "Domino(a=(1, 1), b=(1, 2))"
    assert repr(Tiling(rectangle(2, 1), [Domino((1, 1), (2, 1))])) == (
        "Tiling(board=Board([(1, 1), (2, 1)]), dominoes=(Domino(a=(1, 1), b=(2, 1)),))")
    assert repr(LShapeSpec([2], [3])) == "LShapeSpec(a=(2,), b=(3,))"
    assert repr(SparseMatrix([{0: -1, 1: 2}, {}])) == "SparseMatrix(columns=({0: -1, 1: 2}, {}))"
    assert repr(report()).startswith(
        "DecompositionReport(board=Board([(1, 1), (1, 2), (2, 1), (2, 2)]), "
        "subset=Board([(1, 1), (2, 1)]), closure=Board([(1, 1), (1, 2), (2, 1), (2, 2)]), "
        "lhs=GaussianInt(re=0, im=0), rhs=GaussianInt(re=0, im=0), "
        "terms=((Board([(1, 1), (2, 1)]), GaussianInt(re=0, im=1), GaussianInt(re=0, im=1)), ")
    assert str(GaussianInt(3, -1)) == "3-i"


@pytest.mark.parametrize("make, message", [
    (lambda: GaussianInt(1.0), "components must be ints"),
    (lambda: GaussianInt(1, "x"), "components must be ints"),
    (lambda: Domino((1, 1), (3, 1)), r"cells \(1, 1\) and \(3, 1\) do not form a domino"),
    (lambda: Domino((2, 1), (1, 1)), r"cells \(2, 1\) and \(1, 1\) do not form a domino"),
    (lambda: Domino((1, 1), (2, 2)), r"cells \(1, 1\) and \(2, 2\) do not form a domino"),
    (lambda: LShapeSpec([1.0], [1]), "arm lengths must be ints"),
    (lambda: LShapeSpec([1], [1, 2]), "arm length lists must have equal length"),
    (lambda: LShapeSpec([-1], [1]), "arm lengths must be non-negative"),
    (lambda: SparseMatrix([[0]]), r"column \[0\] is not a dict"),
    (lambda: SparseMatrix([{2: 1}]), r"row index 2 is not an int in range\(1\)"),
    (lambda: SparseMatrix([{True: 1}]), r"row index True is not an int in range\(1\)"),
    (lambda: SparseMatrix([{0: 1.5}]), "entry 1.5 is not an int"),
])
def test_constructors_name_what_they_refuse(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()
