import pytest
from hypothesis import given, strategies as st

from roofcalc.errors import NotGloballyGeneratedError, RankError
from roofcalc.weights import (
    DoubleWeight,
    bar_move,
    enumerate_box,
    is_dominant,
)

from oracles import brute_force_box


class TestEnumerateBox:
    def test_zero_one_columns(self):
        box = enumerate_box(4, 1)
        assert box == (
            (1, 1, 1, 1),
            (1, 1, 1, 0),
            (1, 1, 0, 0),
            (1, 0, 0, 0),
            (0, 0, 0, 0),
        )

    def test_g25_lower_components(self):
        # the ten lower blocks of the twisted tilting generator on G(2,5)
        box = enumerate_box(3, 2)
        assert len(box) == 10
        assert set(box) == {
            (0, 0, 0), (1, 0, 0), (2, 0, 0), (1, 1, 0), (2, 1, 0),
            (2, 2, 0), (1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2),
        }

    def test_brute_force_agreement(self):
        box = enumerate_box(2, 3)
        assert len(box) == 10
        assert set(box) == brute_force_box(2, 3)

    @pytest.mark.parametrize("a", range(1, 9))
    @pytest.mark.parametrize("b", range(1, 9))
    def test_counts(self, a, b):
        from math import comb

        assert len(enumerate_box(a, b)) == comb(a + b, b)

    def test_invalid_rank(self):
        with pytest.raises(RankError):
            enumerate_box(0, 2)

    def test_descending_order(self):
        members = enumerate_box(3, 3)
        assert list(members) == sorted(members, reverse=True)


class TestBarMove:
    def test_fourth_diagram(self):
        w = DoubleWeight((1,), (1, 0, 0, 0))
        assert bar_move(w) == DoubleWeight((1, 1), (0, 0, 0))

    def test_first_diagram(self):
        w = DoubleWeight((1,), (0, 0, 0, 0))
        assert bar_move(w) == DoubleWeight((1, 0), (0, 0, 0))

    def test_trivial_bundle(self):
        w = DoubleWeight((0,), (0, 0, 0, 0))
        assert bar_move(w) == DoubleWeight((0, 0), (0, 0, 0))

    def test_not_globally_generated(self):
        # the dual quotient bundle is not fully ordered
        with pytest.raises(NotGloballyGeneratedError):
            bar_move(DoubleWeight((0, 0), (1, 0, 0)))

    def test_rank_error(self):
        with pytest.raises(RankError):
            bar_move(DoubleWeight((1, 1), (1,)))

    @given(
        st.lists(st.integers(min_value=-3, max_value=4), min_size=4, max_size=7).map(
            lambda xs: tuple(sorted(xs, reverse=True))
        ),
        st.integers(min_value=1, max_value=2),
    )
    def test_preserves_total_sequence(self, concat, k):
        if k >= len(concat) - 1:
            k = 1
        w = DoubleWeight(concat[:k], concat[k:])
        moved = bar_move(w)
        assert sorted(moved.concat()) == sorted(w.concat())
        assert moved.concat() == w.concat()
        assert moved.is_fully_ordered()


DOMINANT_BLOCK = st.lists(
    st.integers(min_value=-3, max_value=3), min_size=1, max_size=5
).map(lambda xs: tuple(sorted(xs, reverse=True)))


class TestIsFullyOrdered:
    @given(DOMINANT_BLOCK, DOMINANT_BLOCK)
    def test_matches_the_total_sequence(self, upper, lower):
        # blocks of length 1 cover k = 1 and n - k = 1
        w = DoubleWeight(upper, lower)
        assert w.is_fully_ordered() == is_dominant(w.concat())

    @pytest.mark.parametrize(
        "upper,lower,ordered",
        [
            ((1,), (1, 0, 0), True),  # k = 1
            ((0,), (1, 0, 0), False),
            ((2, 1, 1), (1,), True),  # n - k = 1
            ((2, 1, 0), (1,), False),
            ((0,), (0,), True),  # G(1,2)
        ],
    )
    def test_edge_ranks(self, upper, lower, ordered):
        assert DoubleWeight(upper, lower).is_fully_ordered() is ordered
