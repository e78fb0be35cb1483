"""The record classes derive from the two bases of ``qlocus.records``,
plain classes with ``__slots__``, so that a CLI start never imports
``dataclasses``.  They keep the contract the decorators gave them: every
``Frozen`` record refuses assignment, the ``Value`` records (alphabets
among them, whose ring compares by identity) compare and hash by their
fields, and every constructor takes keywords and keeps its defaults.
Every record of the package is listed below, so a new one cannot skip
these tests."""
import importlib
import pkgutil

import pytest

import qlocus
from qlocus.alphabets import Alphabet, difference
from qlocus.gysin import FlagSetup, GrassmannSetup, RepeatedPushforward
from qlocus.locus import ClassExpression, LocusProblem
from qlocus.partitions import Partition
from qlocus.polyring import Ring
from qlocus.records import Frozen, Value
from qlocus.verify import (
    CaseResult,
    FlagModel,
    IdentityCheck,
    PushforwardCheck,
    PushforwardInstance,
    run_suites,
)

RING = Ring([("a", 3)])
A = Alphabet(RING, (0, 1))
SETUP = GrassmannSetup((0, 1, 2), 1)

FROZEN = [
    (A, "pos"),
    (SETUP, "q"),
    (RepeatedPushforward(SETUP, RING.one), "factor"),
    (FlagSetup((0, 1, 2), (3,), 1), "p"),
    (LocusProblem(4, 3, 2, "sym"), "r"),
    (ClassExpression("Q", ()), "kind"),
    (CaseResult("schur.resultant", "n=1 m=1", True), "ok"),
    (PushforwardInstance(RING, 1), "ctop_rq"),
    (FlagModel(2, 0, 1), "rs_diff"),
    (Partition((2, 1)), "parts"),
    (PushforwardCheck(1, 0, Partition(), 1, RING.one, RING.one), "computed"),
    (IdentityCheck("sym", 2, 0, 1, RING.one, RING.one, RING.one), "rhs"),
]


@pytest.mark.parametrize("record, field", FROZEN, ids=[type(r).__name__ for r, _ in FROZEN])
def test_frozen_records_refuse_assignment(record, field):
    before = getattr(record, field)
    message = f"{type(record).__name__} is immutable"
    with pytest.raises(AttributeError, match=message):
        setattr(record, field, None)
    with pytest.raises(AttributeError, match=message):
        record.extra = 1
    assert getattr(record, field) is before


# (fields, the same with one field changed) for each value record
VALUES = [
    (LocusProblem, (4, 3, 2, "sym"), (4, 3, 2, "skew")),
    (ClassExpression, ("Q", ((Partition((1,)), Partition(()), 1),)), ("P", ())),
    (GrassmannSetup, ((0, 1, 2), 1), ((0, 1, 2), 2)),
    (FlagSetup, ((0, 1, 2), (3,), 1), ((0, 1, 2), (3,), 0)),
    (Alphabet, (RING, (0, 1)), (RING, (0, 1), True)),
]


@pytest.mark.parametrize("cls, fields, other", VALUES, ids=[v[0].__name__ for v in VALUES])
def test_value_records_compare_and_hash_by_fields(cls, fields, other):
    a, b = cls(*fields), cls(*fields)
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != cls(*other)
    assert a != fields


def test_value_records_of_another_type_differ():
    class Point(Value):
        __slots__ = ("x",)

        def __init__(self, x):
            self._set(x=x)

    class Tagged(Point):
        __slots__ = ()

    assert Point(1) == Point(1) and Point(1) != Point(2)
    assert Point(1) != Tagged(1) and Tagged(1) != Point(1)


def _records(cls):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("qlocus."):
            yield sub
        yield from _records(sub)


def test_every_record_of_the_package_is_under_contract():
    for info in pkgutil.iter_modules(qlocus.__path__):
        importlib.import_module(f"qlocus.{info.name}")
    records = set(_records(Frozen)) - {Value}
    assert records == {type(r) for r, _ in FROZEN}
    assert {cls for cls in records if issubclass(cls, Value)} == {v[0] for v in VALUES}


def test_alphabets_compare_by_value_within_one_ring():
    B = Alphabet(RING, (2,))
    assert Alphabet(RING, (0, 1)) == A and difference(A, B) == difference(A, B)
    assert hash(difference(A, B)) == hash(difference(A, B))
    # a difference holds its roots flat and in lowest terms: (A + B) - A
    # is the alphabet B the constructor builds
    assert difference(Alphabet(RING, (0, 1, 2)), A) == B
    # the same layout on another ring is another alphabet
    other = Ring([("a", 3)])
    assert Alphabet(other, (0, 1)) != A
    assert difference(Alphabet(other, (0, 1)), Alphabet(other, (2,))) != difference(A, B)
    assert len({A, Alphabet(RING, (0, 1)), Alphabet(other, (0, 1))}) == 2


def test_keyword_construction_and_defaults():
    a = Alphabet(ring=RING, variables=(2,), values=(5,))
    assert (a.pos, a.neg) == (((2, False), 5), ())
    assert Alphabet(RING, (0,)).pos == ((0, False),)
    assert Alphabet(RING, variables=(0,), negated=True).pos == ((0, True),)
    assert LocusProblem(e=4, f=3, r=2, symmetry="sym") == LocusProblem(4, 3, 2, "sym")
    assert ClassExpression(kind="P", terms=()) == ClassExpression("P", ())
    assert GrassmannSetup(variables=(0, 1), q=1).e == 2
    assert FlagSetup(f_vars=(0, 1, 2), k_vars=(), p=1).n == 0
    assert RepeatedPushforward(setup=SETUP, factor=RING.one).setup is SETUP
    chk = PushforwardCheck(e=1, q=0, I=Partition(), d=1, computed=RING.one, expected=RING.one)
    assert chk.ok
    ident = IdentityCheck("sym", 2, 0, 1, lhs=RING.one, middle=RING.one, rhs=RING.one)
    assert ident.ok
    assert CaseResult(name="n", params="p", ok=False).render() == "CASE n p : FAIL"


def test_constructors_keep_their_checks():
    with pytest.raises(ValueError, match="symmetry must be"):
        LocusProblem(4, 3, 2, "symmetric")
    with pytest.raises(ValueError, match="need 0 <= 2p < f"):
        FlagSetup((0, 1), (2,), 1)
    with pytest.raises(ValueError, match="out of range"):
        GrassmannSetup((0, 1), 3)


def test_run_suites_passes_only_the_bounds_a_suite_takes():
    default = [c.render() for c in run_suites(["schur"])]
    # suite_schur takes max_n only: max_e is refused, and so is a name
    # that is one of its local variables rather than a parameter
    with pytest.raises(ValueError, match=r"takes no max_e, n \(it takes max_n\)"):
        run_suites(["schur"], max_e=1, n=1)
    assert [c.render() for c in run_suites(["schur"], max_e=None)] == default
    # a bound is refused only when no named suite takes it, and each
    # suite still gets only its own
    both = run_suites(["schur", "chern"], max_n=1, max_f=1)
    alone = run_suites(["schur"], max_n=1) + run_suites(["chern"], max_n=1, max_f=1)
    assert [c.render() for c in both] == [c.render() for c in alone]
    assert len(run_suites(["schur"], max_n=2)) < len(default)
