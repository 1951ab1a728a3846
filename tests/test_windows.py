import pytest

from roofcalc import bundles
from roofcalc.bwb import bott
from roofcalc.errors import RankError
from roofcalc.weights import DoubleWeight, bar_move, dual_schur_q, enumerate_box
from roofcalc.windows import (
    bar_moved_collection,
    check_tilting_minus,
    check_tilting_plus,
    kapranov_collection,
)

# the negative control check_tilting_minus(4, 8, box_cap=2), as
# (lam, lam', m, degree, weight) in the order recorded
NEGATIVE_CONTROL_FAILURES = [
    ((2, 2, 0), (2, 2, 2), 0, 1, (0, 2, 0, 0)),
    ((2, 2, 0), (2, 2, 1), 0, 1, (1, 3, 1, 0)),
    ((2, 2, 0), (2, 2, 0), 0, 1, (2, 4, 2, 0)),
    ((2, 2, 0), (2, 1, 1), 0, 1, (1, 3, 0, 0)),
    ((2, 2, 0), (2, 1, 0), 0, 1, (2, 4, 1, 0)),
    ((2, 2, 0), (2, 0, 0), 0, 1, (2, 4, 0, 0)),
    ((2, 1, 0), (2, 2, 2), 0, 1, (0, 2, 1, 0)),
    ((2, 1, 0), (2, 2, 1), 0, 1, (1, 3, 2, 0)),
    ((2, 1, 0), (2, 2, 1), 0, 1, (0, 2, 0, 0)),
    ((2, 1, 0), (2, 2, 0), 0, 1, (2, 4, 3, 0)),
    ((2, 1, 0), (2, 2, 0), 0, 1, (1, 3, 1, 0)),
    ((2, 1, 0), (2, 1, 1), 0, 1, (1, 3, 1, 0)),
    ((2, 1, 0), (2, 1, 0), 0, 1, (2, 4, 2, 0)),
    ((2, 1, 0), (2, 1, 0), 0, 1, (1, 3, 0, 0)),
    ((2, 1, 0), (2, 0, 0), 0, 1, (2, 4, 1, 0)),
    ((2, 0, 0), (2, 2, 1), 0, 1, (0, 2, 1, 0)),
    ((2, 0, 0), (2, 2, 0), 0, 1, (1, 3, 2, 0)),
    ((2, 0, 0), (2, 2, 0), 0, 1, (0, 2, 0, 0)),
    ((2, 0, 0), (2, 1, 1), 0, 1, (1, 3, 2, 0)),
    ((2, 0, 0), (2, 1, 0), 0, 1, (2, 4, 3, 0)),
    ((2, 0, 0), (2, 1, 0), 0, 1, (1, 3, 1, 0)),
    ((2, 0, 0), (2, 0, 0), 0, 1, (2, 4, 2, 0)),
    ((1, 1, 0), (2, 2, 2), 0, 1, (-1, 1, 0, 0)),
    ((1, 1, 0), (2, 2, 1), 0, 1, (0, 2, 1, 0)),
    ((1, 1, 0), (2, 2, 0), 0, 1, (1, 3, 2, 0)),
    ((1, 1, 0), (2, 1, 1), 0, 1, (0, 2, 0, 0)),
    ((1, 1, 0), (2, 1, 0), 0, 1, (1, 3, 1, 0)),
    ((1, 1, 0), (2, 0, 0), 0, 1, (1, 3, 0, 0)),
    ((1, 0, 0), (2, 2, 1), 0, 1, (-1, 1, 0, 0)),
    ((1, 0, 0), (2, 2, 0), 0, 1, (0, 2, 1, 0)),
    ((1, 0, 0), (2, 1, 1), 0, 1, (0, 2, 1, 0)),
    ((1, 0, 0), (2, 1, 0), 0, 1, (1, 3, 2, 0)),
    ((1, 0, 0), (2, 1, 0), 0, 1, (0, 2, 0, 0)),
    ((1, 0, 0), (2, 0, 0), 0, 1, (1, 3, 1, 0)),
    ((0, 0, 0), (2, 1, 1), 0, 1, (-1, 1, 0, 0)),
    ((0, 0, 0), (2, 1, 0), 0, 1, (0, 2, 1, 0)),
    ((0, 0, 0), (2, 0, 0), 0, 1, (0, 2, 0, 0)),
]


class TestKapranovCollection:
    def test_g25_members(self):
        got = {(w.upper, w.lower) for w in kapranov_collection(2, 5)}
        assert got == {
            ((2, 2), (0, 0, 0)), ((2, 2), (1, 0, 0)), ((2, 2), (2, 0, 0)),
            ((2, 2), (1, 1, 0)), ((2, 2), (2, 1, 0)), ((2, 2), (2, 2, 0)),
            ((2, 2), (1, 1, 1)), ((2, 2), (2, 1, 1)), ((2, 2), (2, 2, 1)),
            ((2, 2), (2, 2, 2)),
        }

    def test_projective_line(self):
        got = [(w.upper, w.lower) for w in kapranov_collection(1, 2)]
        assert sorted(got) == [((1,), (0,)), ((1,), (1,))]

    def test_p4_collection(self):
        kap = kapranov_collection(1, 5)
        assert len(kap) == 5
        assert all(w.upper == (1,) for w in kap)
        assert {w.lower for w in kap} == {
            (0, 0, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0), (1, 1, 1, 1),
        }

    def test_canonical_descending_order(self):
        members = kapranov_collection(2, 6).members
        keys = [(w.upper, w.lower) for w in members]
        assert keys == sorted(keys, reverse=True)


class TestBarMovedCollection:
    def test_g25_barmoved(self):
        got = {(w.upper, w.lower) for w in bar_moved_collection(kapranov_collection(2, 5))}
        assert got == {
            ((2, 2, 0), (0, 0)), ((2, 2, 1), (0, 0)), ((2, 2, 2), (0, 0)),
            ((2, 2, 1), (1, 0)), ((2, 2, 2), (1, 0)), ((2, 2, 2), (2, 0)),
            ((2, 2, 1), (1, 1)), ((2, 2, 2), (1, 1)), ((2, 2, 2), (2, 1)),
            ((2, 2, 2), (2, 2)),
        }

    def test_p4_barmoved(self):
        got = [(w.upper, w.lower) for w in bar_moved_collection(kapranov_collection(1, 5))]
        assert set(got) == {
            ((1, 0), (0, 0, 0)), ((1, 1), (0, 0, 0)), ((1, 1), (1, 0, 0)),
            ((1, 1), (1, 1, 0)), ((1, 1), (1, 1, 1)),
        }

    def test_member_count_preserved(self):
        for n in range(3, 8):
            c = kapranov_collection(1, n)
            assert len(bar_moved_collection(c)) == len(c)

    def test_singleton_trivial(self):
        from roofcalc.windows import Collection

        c = Collection(1, 4, (DoubleWeight((0,), (0, 0, 0)),))
        moved = bar_moved_collection(c)
        assert moved.members == (DoubleWeight((0, 0), (0, 0)),)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_bar_move_preserves_cohomology(self, n):
        for w in kapranov_collection(1, n):
            before = bott(w)
            after = bott(bar_move(w))
            assert (before.acyclic, before.degree, before.dimension) == (
                after.acyclic, after.degree, after.dimension,
            )


class TestTiltingChecks:
    def test_minus_side_small(self):
        rep = check_tilting_minus(5, 8)
        assert rep.passed
        assert rep.checked_pairs == 25
        assert rep.tail_certified

    def test_minus_side_smallest(self):
        rep = check_tilting_minus(4, 8)
        assert rep.passed

    def test_plus_side_small(self):
        rep = check_tilting_plus(5, 8)
        assert rep.passed and rep.tail_certified

    def test_plus_side_larger(self):
        rep = check_tilting_plus(7, 6)
        assert rep.passed

    def test_negative_control(self):
        rep = check_tilting_minus(4, 8, box_cap=2)
        assert len(rep.failures) >= 1
        # every recorded failure reproduces standalone
        f = rep.failures[0]
        lam_bar, top = dual_schur_q(f.lam)
        expr = bundles.tensor(
            bundles.twist(bundles.irreducible(1, 4, (0,), lam_bar), top),
            bundles.tensor(
                bundles.irreducible(1, 4, (0,), f.lam_prime),
                bundles.sym_power(
                    bundles.twist(bundles.quotient_dual(1, 4), 2), f.m
                ),
            ),
        )
        degrees = set()
        for w, _ in expr.terms:
            res = bott(w)
            if not res.acyclic:
                degrees.add(res.degree)
        assert f.degree in degrees

    def test_negative_control_pinned(self):
        rep = check_tilting_minus(4, 8, box_cap=2)
        assert rep.checked_pairs == 100
        assert len(rep.failures) == 37
        assert rep.tail_certified
        assert rep.failures[0].as_dict() == {
            "lam": [2, 2, 0], "lamPrime": [2, 2, 2], "m": 0, "degree": 1,
            "weight": [0, 2, 0, 0],
        }
        got = [
            (f.lam, f.lam_prime, f.m, f.degree, f.weight) for f in rep.failures
        ]
        assert got == NEGATIVE_CONTROL_FAILURES

    @pytest.mark.parametrize("n", range(4, 9))
    @pytest.mark.parametrize("box_cap", [1, 2])
    def test_dual_schur_q_matches_dual(self, n, box_cap):
        # the folded twist of dual_schur_q against first-principles duality,
        # over the minus side's labels
        for lam in enumerate_box(n - 1, box_cap):
            lam_bar, top = dual_schur_q(lam)
            assert bundles.twist(
                bundles.irreducible(1, n, (0,), lam_bar), top
            ) == bundles.dual(bundles.irreducible(1, n, (0,), lam)), lam

    def test_preconditions(self):
        with pytest.raises(RankError):
            check_tilting_minus(2, 8)
        with pytest.raises(RankError):
            check_tilting_plus(3, 8)
        with pytest.raises(RankError):
            check_tilting_minus(5, -1)
