import re
from collections import Counter
from functools import partial

import pytest

from roofcalc import bundles, windows
from roofcalc.bwb import bott
from roofcalc.errors import NotGloballyGeneratedError, RankError
from roofcalc.weights import DoubleWeight, bar_move, enumerate_box, negate_reverse
from roofcalc.windows import (
    VanishingFailure,
    bar_moved_collection,
    check_tilting_minus,
    check_tilting_plus,
    kapranov_collection,
)

from oracles import dual_schur_q


def check_pairs_reference(report, members, atom):
    """`windows._check_pairs` without its shortcuts: every pair is expanded
    on its own and Bott runs on every summand."""
    k, n = atom.ambient
    syms = [bundles.sym_power(atom, m) for m in range(report.m_max + 1)]
    exprs = [
        (label, bundles.irreducible(k, n, w.upper, w.lower)) for label, w in members
    ]
    for label, e in exprs:
        dual_expr = bundles.dual(e)
        for label_prime, e_prime in exprs:
            report.checked_pairs += 1
            pair_part = bundles.tensor(dual_expr, e_prime)
            for m, sym in enumerate(syms):
                expr = bundles.tensor(pair_part, sym)
                for w, _ in expr.terms:
                    res = bott(w)
                    if not res.acyclic and res.degree > 0:
                        report.failures.append(
                            VanishingFailure(label, label_prime, m, res.degree, w.concat())
                        )
            # expr is the m = m_max summand
            if not bundles.is_globally_generated(expr):
                report.tail_certified = False
    return report


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
        members = kapranov_collection(2, 6)
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
        moved = bar_moved_collection((DoubleWeight((0,), (0, 0, 0)),))
        assert moved == (DoubleWeight((0, 0), (0, 0)),)

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
        expr = bundles.tensor(
            bundles.dual(bundles.irreducible(1, 4, (0,), f.lam)),
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
        # bundles.dual against the closed form of the dual of S_lam Q*, over
        # the minus side's labels
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

    def test_atom_must_be_globally_generated(self):
        # the early stop rests on a globally generated atom; Q* on P^3 is not
        report = windows.VanishingReport(side="minus", n=4, m_max=2)
        members = [((0,), DoubleWeight((0,), (0, 0, 0)))]
        with pytest.raises(
            NotGloballyGeneratedError,
            match=re.escape("window check needs a globally generated atom, got (0|1,0,0)"),
        ):
            windows._check_pairs(report, members, bundles.quotient_dual(1, 4))
        assert report.checked_pairs == 0


class TestSharedExpansion:
    """`_check_pairs` expands every ordered pair on its own, stops a pair at
    the first degree where every summand is fully ordered, and runs Bott
    only on summands that are not fully ordered; the reports must not
    move."""

    # (side, n, m_max, box_cap), with m_max 8 unless the id names it; m_max
    # 0, 1 and 3 end the loop before, at and after the first fully ordered
    # degree of the products
    CASES = (
        [
            pytest.param(side, n, 8, box_cap, id=f"{side}-{n}-{box_cap}")
            for side, n, box_cap in (
                [("minus", n, 1) for n in range(3, 8)]
                + [("plus", n, 1) for n in range(4, 8)]
                + [("minus", 4, 2), ("minus", 5, 2), ("minus", 4, 3), ("minus", 6, 2)]
                + [("minus", 12, 1), ("plus", 10, 1)]
            )
        ]
        + [
            pytest.param(side, n, m_max, box_cap, id=f"{side}-{n}-{box_cap}-m{m_max}")
            for m_max in (0, 1, 3)
            for side, n, box_cap in (
                ("minus", 3, 1), ("minus", 5, 1), ("plus", 5, 1),
                ("minus", 4, 2), ("minus", 4, 3),
            )
        ]
        # m_max 1 ends before some pair's first fully ordered degree
        + [pytest.param("minus", 5, 1, 2, id="minus-5-2-m1")]
    )

    @staticmethod
    def report(side, n, m_max, box_cap):
        if side == "minus":
            return check_tilting_minus(n, m_max, box_cap=box_cap)
        return check_tilting_plus(n, m_max)

    @pytest.mark.parametrize("side,n,m_max,box_cap", CASES)
    def test_matches_reference(self, monkeypatch, side, n, m_max, box_cap):
        got = self.report(side, n, m_max, box_cap)
        monkeypatch.setattr(windows, "_check_pairs", check_pairs_reference)
        want = self.report(side, n, m_max, box_cap)
        assert (got.checked_pairs, got.tail_certified) == (
            want.checked_pairs, want.tail_certified,
        )
        assert got.failures == want.failures
        if box_cap > 1:
            assert want.failures

    # box cap 2 gives degrees whose multiplied terms also give fully ordered
    # summands; box cap 1 gives none
    @pytest.mark.parametrize(
        "side,n,box_cap",
        [
            pytest.param("minus", 8, 1, id="minus"),
            pytest.param("plus", 8, 1, id="plus"),
            pytest.param("minus", 5, 2, id="minus-5-2"),
        ],
    )
    def test_work_done_once(self, monkeypatch, side, n, box_cap):
        m_max = 8
        if side == "minus":
            k = 1
            weights = [DoubleWeight((0,), lam) for lam in enumerate_box(n - 1, box_cap)]
            atom = bundles.twist(bundles.quotient_dual(1, n), 2)
            check = partial(check_tilting_minus, box_cap=box_cap)
        else:
            k, weights = 2, list(bar_moved_collection(kapranov_collection(1, n)))
            atom = bundles.twist(bundles.tautological(2, n), 2)
            check = check_tilting_plus
        exprs = [bundles.irreducible(k, n, w.upper, w.lower) for w in weights]
        # degrees m >= 1 expanded per pair: those before the first fully
        # ordered one, which is known from the block margins alone
        expanded = 0
        for e in exprs:
            for e_prime in exprs:
                p = bundles.tensor(bundles.dual(e), e_prime)
                first = next(
                    (
                        m for m in range(m_max + 1)
                        if bundles.is_globally_generated(
                            bundles.tensor(p, bundles.sym_power(atom, m))
                        )
                    ),
                    m_max + 1,
                )
                expanded += max(first - 1, 0)
        syms = [list(bundles.sym_power(atom, m).terms) for m in range(1, m_max + 1)]
        bott_args = []
        products = []
        tensor_args = []
        blockwise, tensor = windows._blockwise, bundles.tensor

        def counted_bott(w):
            bott_args.append(w)
            return bott(w)

        def counted_blockwise(a_terms, b_terms, k, q):
            a_terms, b_terms = list(a_terms), list(b_terms)
            products.append((a_terms, b_terms))
            return blockwise(a_terms, b_terms, k, q)

        def counted_tensor(a, b):
            tensor_args.append((a, b))
            return tensor(a, b)

        monkeypatch.setattr(windows, "bott", counted_bott)
        monkeypatch.setattr(windows, "_blockwise", counted_blockwise)
        monkeypatch.setattr(bundles, "tensor", counted_tensor)
        report = check(n, m_max)
        assert bott_args
        assert not any(w.is_fully_ordered() for w in bott_args)
        pairs = len(exprs) ** 2
        assert report.checked_pairs == pairs
        assert expanded < pairs * m_max
        # one raw block product per expanded degree m >= 1
        assert len(products) == expanded
        assert all(b in syms for _, b in products)

        # the pair products dual(w_i) (x) w_j go through bundles.tensor, each
        # factor of one term; a member is known by its blocks up to a common
        # shift
        def key(up, lo):
            return tuple(e - lo[-1] for e in up + lo)

        index = {key(w.upper, w.lower): i for i, w in enumerate(weights)}

        def member(e):
            [(w, _)] = e.terms
            return index[key(w.upper, w.lower)]

        def dual(e):
            [(w, _)] = e.terms
            return index[key(negate_reverse(w.upper), negate_reverse(w.lower))]

        pair_products = Counter(frozenset((dual(a), member(b))) for a, b in tensor_args)
        # each unordered pair once: its transpose is read as the dual
        assert pair_products == Counter(
            frozenset((i, j)) for i in range(len(weights)) for j in range(i, len(weights))
        )
