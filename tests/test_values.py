"""The value classes compare and hash by their fields: two instances are equal
exactly when they have the same class and equal fields, and the hash is that
of the field tuple, so set and dict orders do not depend on how the classes
are written."""

import re

import pytest

from roofcalc.bundles import BundleExpr
from roofcalc.bwb import BottResult
from roofcalc.errors import DominanceError, PlethysmRequiredError, RankError
from roofcalc.hodge import PairReport, ZeroLocusSpec
from roofcalc.lr import SchurSum
from roofcalc.motive import EPoly
from roofcalc.parser import parse_bundle
from roofcalc.roofs import MarkedDynkin, RoofRecord
from roofcalc.verify import CheckResult
from roofcalc.weights import BoxSet, DoubleWeight
from roofcalc.windows import Collection, VanishingFailure, VanishingReport

W = DoubleWeight((1, 0), (0, 0, 0))
O2, O3 = parse_bundle("O(2)", 1, 6), parse_bundle("O(3)", 1, 6)

# (class, field names in constructor order, arguments, index of the field
# to change, its other value); pytest names a row by its index, so a new row
# goes at the end and a deleted row's place is taken by the last one
CASES = [
    (DoubleWeight, ("upper", "lower"), ((2, 1), (1, 0)), 1, (1, 1)),
    (BoxSet, ("rows", "cap", "members"), (1, 1, ((1,), (0,))), 1, 2),
    (
        BottResult,
        ("acyclic", "degree", "weight", "dimension"),
        (False, 1, (1, 0), 3),
        1,
        2,
    ),
    (SchurSum, ("rank", "terms"), (2, (((1, 0), 1),)), 0, 3),
    (BundleExpr, ("k", "n", "terms"), (2, 5, ((W, 1),)), 2, ((W, 2),)),
    (ZeroLocusSpec, ("k", "n", "bundle"), (1, 6, O2), 2, O3),
    (
        VanishingFailure,
        ("lam", "lam_prime", "m", "degree", "weight"),
        ((1, 0), (0, 0), 1, 2, (1, 0, 0)),
        2,
        2,
    ),
    (EPoly, ("coeffs",), ((((0, 0), 1), ((1, 1), 1)),), 0, (((0, 0), 1),)),
    (
        MarkedDynkin,
        ("label", "nodes", "edges", "marked"),
        ("A2", (1, 2), ((1, 2, 1, None),), frozenset({1})),
        3,
        frozenset({2}),
    ),
    (
        RoofRecord,
        ("group", "family", "type_label", "roof", "marks", "base1", "base2",
         "fiber_dim1", "fiber_dim2"),
        ("A3", "A", "A3", "P(T_P3)", (1, 3), "P3", "P3", 2, 2),
        8,
        3,
    ),
    (Collection, ("k", "n", "members"), (1, 4, (W,)), 0, 2),
]


@pytest.mark.parametrize("cls, names, args, i, other", CASES, ids=lambda c: getattr(c, "__name__", None))
def test_value_semantics(cls, names, args, i, other):
    x, y = cls(*args), cls(**dict(zip(names, args)))
    changed = cls(*args[:i], other, *args[i + 1:])
    fields = tuple(getattr(x, name) for name in names)
    assert fields == args
    assert x is not y and x == y and not x != y
    assert hash(x) == hash(y) == hash(fields)
    assert x != changed and not x == changed
    assert hash(changed) == hash(tuple(getattr(changed, name) for name in names))
    assert len({x, y, changed}) == 2

    twin = object.__new__(type("Twin", (cls,), {"__slots__": ()}))
    for name, value in zip(names, args):
        object.__setattr__(twin, name, value)
    assert x != twin and twin != x
    assert x != fields


def test_classes_with_the_same_fields_differ():
    c, e = Collection(2, 5, ((W, 1),)), BundleExpr(2, 5, ((W, 1),))
    assert c != e and e != c and hash(c) == hash(e)


def test_defaults():
    assert BottResult(True) == BottResult(True, None, None, None)
    assert MarkedDynkin("A1", (1,), ()).marked == frozenset()


def test_mutable_reports_get_fresh_lists():
    a, b = VanishingReport("minus", 4, 1), VanishingReport("minus", 4, 1)
    assert (a.checked_pairs, a.failures, a.tail_certified) == (0, [], True)
    assert a.failures is not b.failures
    p, q = PairReport(None, None), PairReport(None, None)
    assert (p.v1, p.v2, p.shift, p.failures) == ([], [], 0, [])
    assert p.v1 is not q.v1 and p.v2 is not q.v2 and p.failures is not q.failures
    assert CheckResult("x", True, "got 1").detail == "got 1"


def test_public_constructors_validate():
    with pytest.raises(DominanceError, match=re.escape("upper block (0, 1) is not")):
        DoubleWeight((0, 1), (0,))
    with pytest.raises(DominanceError, match=re.escape("lower block (0, 1) is not")):
        DoubleWeight((1, 0), (0, 1))
    with pytest.raises(RankError, match="rank 3 exceeds dim G = 2"):
        ZeroLocusSpec(1, 3, parse_bundle("O(1)+O(1)+O(1)", 1, 3))
    with pytest.raises(RankError, match=re.escape("bundle on G(1, 3), spec says G(1,4)")):
        ZeroLocusSpec(1, 4, parse_bundle("O(1)", 1, 3))
    with pytest.raises(RankError, match=re.escape("(-1|0,0) is not globally generated")):
        ZeroLocusSpec(1, 3, parse_bundle("O(-1)", 1, 3))
    with pytest.raises(PlethysmRequiredError):
        ZeroLocusSpec(2, 5, parse_bundle("S[2]Q", 2, 5))


def test_trusted_constructor_skips_the_check():
    w = DoubleWeight._trusted((0, 1), (0,))
    assert (w.upper, w.lower) == ((0, 1), (0,))
