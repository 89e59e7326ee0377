"""The library's result and value types are records: frozen named tuples.

Their fields, in declaration order, are the wire schema the envelope writer
renders, so the order is pinned here, with the read-only fields, the
normalising constructors and their refusals.
"""

import copy
import pickle

import pytest

from wcatalan.arith import IntPolynomial, ValueTable
from wcatalan.errors import DomainError
from wcatalan.morse import Mod3rPeriodCheck, PadicConflict, PadicFit, ValuationProfile
from wcatalan.orbits import OrbitShape
from wcatalan.periodicity import PeriodReport, PQPair, PurePeriodicityCheck
from wcatalan.weights import (
    ConditionReport,
    ConditionWitness,
    EpsilonSequence,
    WeightFunction,
)

PERIOD = PeriodReport(27, 1, 2, 200, True)
# one instance of each record type, with its fields in declaration order
RECORDS = [
    (ValueTable(3, (1, 2, 4)), ("base_point", "values")),
    (IntPolynomial((1, -1)), ("coefficients",)),
    (WeightFunction.polynomial([1, 4, 4], label="m"),
     ("kind", "coefficients", "table", "label")),
    (EpsilonSequence(2, (1, 0, 1)), ("base", "bits")),
    (ConditionWitness("b0-odd", None, 0, 2), ("clause", "order", "x", "value")),
    (ConditionReport("ps", False, "all-x", (0, 3), {"b0-odd": False},
                     (ConditionWitness("b0-odd", None, 0, 2),)),
     ("theorem", "holds", "scope", "window", "clauses", "witnesses")),
    (PQPair(IntPolynomial((1,)), IntPolynomial((1, -1)), 1), ("P", "Q", "truncation")),
    (PERIOD, ("modulus", "preperiod", "period", "window", "certified")),
    (PurePeriodicityCheck(False, ("deg P = 1 is not strictly below deg Q = 1",)),
     ("sufficient", "reasons")),
    (ValuationProfile("cb", 2, "preset:morse", "exact", range(1, 3), [0, None], [3, 0]),
     ("expression", "p", "weight_id", "mode", "n_range", "valuations", "value_bits")),
    (PadicConflict(3, 8, 4), ("n", "expected", "observed")),
    (PadicFit(2, (1, 1), 2, 3, 4, False, (PadicConflict(3, 8, 4),)),
     ("p", "digits_lsb_first", "certified_depth", "residue", "modulus", "consistency",
      "conflicts")),
    (Mod3rPeriodCheck(3, 2, True, PERIOD), ("r", "bound", "divides", "report")),
    (OrbitShape(2, ((), ())), ("q", "key")),
]
IDS = [type(obj).__name__ for obj, _ in RECORDS]


@pytest.mark.parametrize("obj, fields", RECORDS, ids=IDS)
def test_fields_are_in_declaration_order(obj, fields):
    assert type(obj)._fields == fields
    assert list(obj._asdict()) == list(fields)
    assert obj._asdict() == {name: getattr(obj, name) for name in fields}


@pytest.mark.parametrize("obj, fields", RECORDS, ids=IDS)
def test_fields_are_read_only(obj, fields):
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
    with pytest.raises(AttributeError):
        obj.extra = None  # no instance dict either


@pytest.mark.parametrize("obj, fields", RECORDS, ids=IDS)
def test_copies_and_pickles_keep_the_fields(obj, fields):
    for clone in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(clone) is type(obj)
        assert [getattr(clone, name) for name in fields] == [
            getattr(obj, name) for name in fields
        ]


def test_weight_defaults():
    b = WeightFunction("table", table=(1, 2))
    assert (b.coefficients, b.label) == (None, "")
    assert WeightFunction("polynomial", (1,)) == WeightFunction("polynomial", (1,), None, "")


def test_sequence_records_are_their_entries():
    table, eps = ValueTable(5, [1, 2, 4]), EpsilonSequence(2, (1, 0, 1, 1))
    assert table.values == (1, 2, 4) and len(table) == 3
    assert len(eps) == 4 and eps[0] == 1 and list(eps) == [1, 0, 1, 1]


def test_value_table_refusals():
    with pytest.raises(DomainError, match="^base point must be nonnegative$"):
        ValueTable(-1, (1,))
    with pytest.raises(DomainError, match="^value table must be non-empty$"):
        ValueTable(0, ())
    with pytest.raises(DomainError, match="^value table must be non-empty$"):
        ValueTable(base_point=0, values=iter(()))


def test_polynomial_strips_trailing_zeros():
    assert IntPolynomial([1, 0, 2, 0, 0]).coefficients == (1, 0, 2)
    assert IntPolynomial(coefficients=(0, 0)).coefficients == ()
    assert IntPolynomial((0,)).degree == -1
    assert IntPolynomial((3, 0)) == IntPolynomial((3,))


def test_orbit_shape_refuses_branching_below_two():
    for q in (1, 0, -2):
        with pytest.raises(DomainError, match=f"^branching must be at least 2, got {q}$"):
            OrbitShape(q, ())
    with pytest.raises(DomainError, match="^branching must be at least 2, got 1$"):
        OrbitShape.leaf(1)
