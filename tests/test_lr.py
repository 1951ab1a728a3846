import hashlib
import io
import json
from contextlib import redirect_stdout
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from roofcalc.bwb import gl_dimension
from roofcalc.cli import main
from roofcalc.errors import AmbientMismatchError, RankError
from roofcalc import lr
from roofcalc.lr import lr_double_product, lr_product
from roofcalc.weights import DoubleWeight, enumerate_box

from oracles import partitions_up_to, schur_product_oracle


def pad(lam, rank):
    return tuple(lam) + (0,) * (rank - len(lam))


class TestLrProduct:
    def test_rank_two_truncation(self):
        # s_2 * s_11 = s_31 + s_211, the three-row term dies in two variables
        out = lr_product((2, 0), (1, 1), 2)
        assert dict(out) == {(3, 1): 1}

    def test_identity(self):
        out = lr_product((0, 0, 0), (3, 1, 0), 3)
        assert dict(out) == {(3, 1, 0): 1}

    def test_standard_square(self):
        out = lr_product((1, 0, 0), (1, 0, 0), 3)
        assert dict(out) == {(2, 0, 0): 1, (1, 1, 0): 1}

    def test_rank_mismatch(self):
        with pytest.raises(RankError):
            lr_product((1, 0), (1, 0, 0), 3)

    def test_oracle_agreement_small_rank(self):
        # the full sweep against the monomial-expansion oracle
        rank = 3
        for lam in partitions_up_to(6, rank):
            for mu in partitions_up_to(6 - sum(lam), rank):
                got = dict(lr_product(pad(lam, rank), pad(mu, rank), rank))
                want = {
                    pad(nu, rank): c
                    for nu, c in schur_product_oracle(lam, mu, rank).items()
                }
                assert got == want, (lam, mu)

    def test_negative_entries_by_shift(self):
        # S_{(1,-1)} (x) S_{(1,0)} computed directly vs shifted by det
        out = dict(lr_product((1, -1), (1, 0), 2))
        shifted = dict(lr_product((2, 0), (1, 0), 2))
        assert out == {tuple(e - 1 for e in nu): c for nu, c in shifted.items()}

    @given(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda r: st.tuples(
                st.lists(st.integers(0, 4), min_size=r, max_size=r).map(
                    lambda xs: tuple(sorted(xs, reverse=True))
                ),
                st.lists(st.integers(0, 4), min_size=r, max_size=r).map(
                    lambda xs: tuple(sorted(xs, reverse=True))
                ),
                st.just(r),
            )
        )
    )
    @settings(deadline=None, max_examples=60)
    def test_commutativity(self, args):
        lam, mu, rank = args
        assert lr_product(lam, mu, rank) == lr_product(mu, lam, rank)

    @given(
        st.lists(st.integers(0, 3), min_size=3, max_size=3).map(
            lambda xs: tuple(sorted(xs, reverse=True))
        ),
        st.lists(st.integers(0, 3), min_size=3, max_size=3).map(
            lambda xs: tuple(sorted(xs, reverse=True))
        ),
        st.integers(min_value=-3, max_value=3),
    )
    @settings(deadline=None, max_examples=60)
    def test_shift_equivariance(self, lam, mu, c):
        base = dict(lr_product(lam, mu, 3))
        shifted = dict(lr_product(tuple(e + c for e in lam), mu, 3))
        assert shifted == {tuple(e + c for e in nu): m for nu, m in base.items()}

    def test_dimension_sum_identity(self):
        # sum of multiplicities times dimensions equals the product dimension
        for rank in range(1, 6):
            for lam in partitions_up_to(6, rank):
                for mu in partitions_up_to(6, rank):
                    a, b = pad(lam, rank), pad(mu, rank)
                    total = sum(
                        c * gl_dimension(nu) for nu, c in lr_product(a, b, rank)
                    )
                    assert total == gl_dimension(a) * gl_dimension(b)


def dominant(rank, low, high):
    """Every non-increasing weight of length `rank` with entries in [low, high]."""
    return [
        tuple(reversed(c))
        for c in combinations_with_replacement(range(low, high + 1), rank)
    ]


def pieri_factors(rank, top):
    """Rows (m), columns (1^m) and (m^(rank-1), 0) for m <= top."""
    factors = set()
    for m in range(top + 1):
        factors.add(pad((m,), rank))
        factors.add(pad((m,) * (rank - 1), rank))
        if m <= rank:
            factors.add(pad((1,) * m, rank))
    return sorted(factors)


def tableau_rule(lam, mu, rank):
    """The tableau rule on the partitions shifted to end in 0, shifted back."""
    ca, cb = -lam[-1], -mu[-1]
    a = tuple(e + ca for e in lam)
    b = tuple(e + cb for e in mu)
    if (sum(b), b) > (sum(a), a):
        a, b = b, a
    return tuple(
        (tuple(e - ca - cb for e in nu), m) for nu, m in lr._lr_partitions(a, b, rank)
    )


class TestStripRules:
    """Products with a Pieri factor take the strip rules; the tableau rule
    and the Schur-polynomial oracle are their references."""

    @pytest.mark.parametrize("rank", range(1, 6))
    def test_match_the_tableau_rule(self, rank):
        terms = lr._lr_terms.__wrapped__  # uncached, so the sweep fills no cache
        for factor in pieri_factors(rank, 4):
            for lam in dominant(rank, -2, 4):
                want = tableau_rule(lam, factor, rank)
                assert all(m == 1 for _, m in want)
                for c in (-2, 0, 1):
                    # S_lam (x) S_(factor + c) is S_lam (x) S_factor (x) det^c
                    shifted = tuple(e + c for e in factor)
                    want_c = tuple((tuple(e + c for e in nu), m) for nu, m in want)
                    assert terms(lam, shifted, rank) == want_c, (lam, shifted)
                    assert terms(shifted, lam, rank) == want_c, (shifted, lam)

    @pytest.mark.parametrize("rank", range(1, 6))
    def test_det_power_is_a_shift(self, rank):
        # S_lam (x) det^c = S_(lam + c): one term, multiplicity 1
        terms = lr._lr_terms.__wrapped__
        for c in range(-3, 4):
            det = (c,) * rank
            for lam in dominant(rank, -2, 3):
                want = tableau_rule(lam, det, rank)
                assert want == ((tuple(e + c for e in lam), 1),)
                assert terms(lam, det, rank) == want, (lam, det)
                assert terms(det, lam, rank) == want, (det, lam)

    @pytest.mark.parametrize("rank", range(1, 4))
    def test_match_the_schur_polynomial_oracle(self, rank):
        for factor in pieri_factors(rank, 3):
            for lam in dominant(rank, 0, 2):
                want = schur_product_oracle(lam, factor, rank)
                assert lr._lr_terms.__wrapped__(lam, factor, rank) == tuple(
                    sorted(want.items(), reverse=True)
                ), (lam, factor)

    @pytest.mark.parametrize(
        "argv",
        [["pair", "--k", "4", "--n", "9"], ["windows", "--n", "9"]],
        ids=" ".join,
    )
    def test_hot_paths_never_reach_the_tableau_rule(self, monkeypatch, argv):
        def tableau_rule_called(*args):
            raise AssertionError(f"tableau rule reached with {args}")

        monkeypatch.setattr(lr, "_lr_partitions", tableau_rule_called)
        lr._lr_terms.cache_clear()  # a cached product would hide the rule it took
        with redirect_stdout(io.StringIO()):
            assert main(argv) == 0


class TestTableauGrid:
    """The tableau rule on every pair of a few boxes, ranks 4 to 6 and
    sizes up to 15, pinned by one digest; the oracle sweep above stops at
    rank 3 and size 6."""

    DIGEST = "4e8a848e7334fd386cb7a827edd28daced7421c74c8c40c5841d15061c2326be"

    def test_grid_digest(self):
        out = []
        for rank, rows, width in ((4, 4, 3), (6, 3, 3), (3, 3, 5)):
            box = [pad(w, rank) for w in enumerate_box(rows, width)]
            out += [lr._lr_partitions(a, b, rank) for a in box for b in box]
        assert len(out) == 4761
        assert hashlib.sha256(repr(out).encode()).hexdigest() == self.DIGEST


class TestDeepInputs:
    """Large ranks.  HALF is a column, so its square takes the vertical-strip
    rule; TALL is no Pieri factor, so its square takes the tableau rule with
    15 values over 30 rows."""

    HALF = (1,) * 30 + (0,) * 30  # wedge^30 of the standard rank-60 module
    TALL = (3,) * 15 + (0,) * 15

    def test_cli_rank_60(self, capsys):
        weight = ",".join(map(str, self.HALF))
        code = main(["lr", "--rank", "60", "--a", weight, "--b", weight])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        lines = captured.out.splitlines()
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert len(doc["outputs"]["terms"]) == 31

    def test_dimension_sum_rank_60(self):
        total = sum(
            c * gl_dimension(nu) for nu, c in lr_product(self.HALF, self.HALF, 60)
        )
        assert total == gl_dimension(self.HALF) ** 2

    def test_tableau_rule_rank_30(self):
        # both factors are TALL, so this is the Pieri check both ways round
        assert lr._pieri_terms(self.TALL, self.TALL) is None
        terms = lr_product(self.TALL, self.TALL, 30)
        assert len(terms) == 816
        total = sum(c * gl_dimension(nu) for nu, c in terms)
        assert total == gl_dimension(self.TALL) ** 2


class TestLrDoubleProduct:
    def test_displayed_two_term_product(self):
        a = DoubleWeight((2, 0), (1, 0, 0))
        b = DoubleWeight((1, 1), (1, 0, 0))
        out = lr_double_product(a, b)
        assert out[DoubleWeight((3, 1), (2, 0, 0))] == 1
        assert out[DoubleWeight((3, 1), (1, 1, 0))] == 1
        assert len(out) == 2

    def test_identity(self):
        w = DoubleWeight((2, 1), (1, 0, 0))
        out = lr_double_product(DoubleWeight((0, 0), (0, 0, 0)), w)
        assert out == {w: 1}

    def test_line_bundle_square(self):
        w = DoubleWeight((1, 1), (0, 0, 0))
        assert lr_double_product(w, w) == {DoubleWeight((2, 2), (0, 0, 0)): 1}

    def test_ambient_mismatch(self):
        a = DoubleWeight((1,), (0, 0))
        for b in (DoubleWeight((1, 0), (0,)), DoubleWeight((1,), (0,)), DoubleWeight((1,), (0, 0, 0))):
            with pytest.raises(AmbientMismatchError, match=r"\(1, 3\) vs"):
                lr_double_product(a, b)
