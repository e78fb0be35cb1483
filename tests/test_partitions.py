import math

import pytest
from hypothesis import given, strategies as st

from qlocus.partitions import (
    Partition,
    complement_conjugate,
    rectangle,
    rectangle_partitions,
    staircase,
    strict_partitions_bounded,
    subpartitions,
)


partitions = st.lists(
    st.integers(min_value=0, max_value=8), min_size=0, max_size=6
).map(lambda parts: Partition(tuple(sorted(parts, reverse=True))))


def test_normalization_strips_trailing_zeros():
    assert Partition((3, 1, 0, 0)) == Partition((3, 1))
    assert Partition(()).length == 0
    assert Partition((0,)).parts == ()


def test_rejects_bad_sequences():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, -1))


@pytest.mark.parametrize("parts", [(2.7,), (2.0, 1), (3, 1.5), ("2",), (True,)])
def test_rejects_non_integer_parts(parts):
    # a float part was once truncated without a word: (2.7,) gave [2]
    with pytest.raises(ValueError):
        Partition(parts)
    assert Partition.parse("[3, 1]") == Partition((3, 1))


def test_basic_accessors():
    I = Partition((4, 2, 1))
    assert I.weight == 7
    assert I.length == 3
    assert I.part(1) == 4
    assert I.part(3) == 1
    assert I.part(5) == 0
    # parts are numbered from 1: part 0 or -1 is an error, not a zero
    for i in (0, -1):
        with pytest.raises(ValueError, match="has no part"):
            I.part(i)
    assert I.padded(5) == (4, 2, 1, 0, 0)


def test_parse_and_str_round_trip():
    for text in ("[]", "[3]", "[6,5,2]"):
        assert str(Partition.parse(text)) == text
    assert Partition.parse("[3, 1]") == Partition((3, 1))
    with pytest.raises(ValueError):
        Partition.parse("3,1")


def test_conjugate_known():
    assert Partition((4, 2, 1)).conjugate() == Partition((3, 2, 1, 1))
    assert Partition(()).conjugate() == Partition(())
    assert rectangle(3, 5).conjugate() == rectangle(5, 3)


@given(partitions)
def test_conjugate_is_an_involution(I):
    assert I.conjugate().conjugate() == I


@given(partitions)
def test_conjugate_preserves_weight(I):
    assert I.conjugate().weight == I.weight


def test_containment_and_add():
    assert Partition((3, 1)).contains(Partition((2, 1)))
    assert not Partition((3, 1)).contains(Partition((2, 2)))
    assert Partition((3, 1)).add(Partition((1, 1))) == Partition((4, 2))
    assert staircase(2).add(Partition((2, 2))) == Partition((4, 3))


@given(partitions, partitions)
def test_add_weight_is_additive(I, J):
    assert I.add(J).weight == I.weight + J.weight


def test_strictness():
    assert Partition((4, 2, 1)).is_strict()
    assert not Partition((2, 2)).is_strict()
    assert Partition(()).is_strict()


def test_remove_part():
    P = Partition((5, 3, 1))
    assert P.remove_part(2) == Partition((5, 1))
    assert (P.remove_part(1), P.remove_part(3)) == (Partition((3, 1)), Partition((5, 3)))
    # no part 0, -1 or 4: slicing would drop the wrong part or none at all
    for i in (0, -1, 4):
        with pytest.raises(ValueError, match="has no part"):
            P.remove_part(i)
    with pytest.raises(ValueError, match="has no part"):
        Partition(()).remove_part(1)


def test_staircase():
    assert staircase(4) == Partition((4, 3, 2, 1))
    assert staircase(0) == Partition(())
    assert staircase(-1) == Partition(())


def test_rectangle_partitions_enumeration():
    got = rectangle_partitions(2, 2)
    assert got == [
        Partition((2, 2)),
        Partition((2, 1)),
        Partition((2,)),
        Partition((1, 1)),
        Partition((1,)),
        Partition(()),
    ]


@given(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4))
def test_rectangle_partitions_count(rows, cols):
    # number of partitions in an a x b box is binomial(a + b, a)
    got = rectangle_partitions(rows, cols)
    assert len(got) == math.comb(rows + cols, rows)
    assert len(set(got)) == len(got)
    for I in got:
        assert I.length <= rows
        assert I.part(1) <= cols


@given(
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
    st.data(),
)
def test_complement_conjugate_is_an_involution(n, q, data):
    # I lives in a box with q rows and n columns, its image in the
    # transposed box, and complementing twice is the identity.
    choices = rectangle_partitions(q, n)
    I = data.draw(st.sampled_from(choices))
    CI = complement_conjugate(I, n, q)
    assert CI.length <= n and CI.part(1) <= q
    assert complement_conjugate(CI, q, n) == I


def test_complement_conjugate_known():
    # (3,1) inside a 2-row, 3-column box: conjugate is (2,1,1), complement
    # of that in the transposed (3-row, 2-column) box is (1,1)
    assert complement_conjugate(Partition((3, 1)), 3, 2) == Partition((1, 1))
    assert complement_conjugate(Partition(()), 3, 2) == Partition((2, 2, 2))
    with pytest.raises(ValueError):
        complement_conjugate(Partition((4,)), 3, 2)


def test_subpartitions():
    got = subpartitions(Partition((2, 1)))
    assert got == [
        Partition((2, 1)),
        Partition((2,)),
        Partition((1, 1)),
        Partition((1,)),
        Partition(()),
    ]


@given(partitions)
def test_subpartitions_all_contained(I):
    subs = subpartitions(I)
    assert len(set(subs)) == len(subs)
    for J in subs:
        assert I.contains(J)


def test_strict_partitions_bounded():
    got = strict_partitions_bounded(3, 2, 5)
    assert Partition((3, 2)) in got
    assert Partition(()) in got
    for I in got:
        assert I.is_strict()
        assert I.part(1) <= 3 and I.length <= 2 and I.weight <= 5
    # strict partitions with parts <= 3, length <= 2, weight <= 5:
    # (), (1), (2), (3), (2,1), (3,1), (3,2)
    assert len(got) == 7
