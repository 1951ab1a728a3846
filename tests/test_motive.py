from math import comb

import pytest

from roofcalc.errors import (
    AmbiguityError,
    ExcludedCaseError,
    InconsistentDataError,
    RankError,
)
from roofcalc.hodge import HodgeDiamond, ambient_diamond, hodge_numbers, pair_specs
from roofcalc.motive import (
    EPoly,
    derive_b2,
    epoly_flag,
    epoly_grassmannian,
    epoly_projective,
    verify_lemma_leq,
)


class TestEPolynomials:
    def test_projective_line(self):
        assert epoly_projective(1).as_dict() == {(0, 0): 1, (1, 1): 1}

    def test_empty_space(self):
        assert epoly_projective(-1).is_zero()

    def test_g25_diagonal(self):
        # partition counts in a 2x3 box
        assert epoly_grassmannian(2, 5).as_dict() == {
            (0, 0): 1, (1, 1): 1, (2, 2): 2, (3, 3): 2, (4, 4): 2, (5, 5): 1, (6, 6): 1,
        }

    def test_flag_state_count(self):
        assert sum(epoly_flag(1, 5).as_dict().values()) == comb(5, 2) * 2

    def test_euler_numbers(self):
        for k, n in [(1, 4), (2, 5), (3, 7)]:
            assert sum(epoly_grassmannian(k, n).as_dict().values()) == comb(n, k)
        assert sum(epoly_projective(4).as_dict().values()) == 5

    def test_gaussian_binomial_symmetry(self):
        # the diagonal of G(k,n) holds the Gaussian binomial [n choose k]_q,
        # and E(G(k,n)) is read off it without building the diamond
        for n in range(2, 11):
            for k in range(1, n):
                d = ambient_diamond(k, n)
                coeffs = d.diagonal()
                assert coeffs == coeffs[::-1]
                assert sum(coeffs) == comb(n, k)
                assert epoly_grassmannian(k, n) == d.epoly(), (k, n)

    @pytest.mark.parametrize("k,n", [(0, 3), (3, 3)])
    def test_grassmannian_out_of_range(self, k, n):
        with pytest.raises(RankError):
            epoly_grassmannian(k, n)
        with pytest.raises(RankError):
            ambient_diamond(k, n)

    def test_uv_swap_stability(self):
        p = (epoly_grassmannian(2, 6) * epoly_projective(3)).as_dict()
        assert {(v, u): c for (u, v), c in p.items()} == p


class TestVerifyLemma:
    @pytest.mark.parametrize("k,n", [(1, 5), (1, 6), (2, 5), (2, 6), (3, 7)])
    def test_residual_vanishes_on_computed_pairs(self, k, n):
        s1, s2 = pair_specs(k, n)
        ok, residual = verify_lemma_leq(k, n, hodge_numbers(s1), hodge_numbers(s2))
        assert ok and residual.is_zero()

    def test_broken_identity_detected(self):
        # empty zero loci with ambient terms that cannot cancel
        empty = HodgeDiamond([[(0, 0)]], [0])
        ok, residual = verify_lemma_leq(1, 5, empty, empty)
        assert not ok
        assert sum(residual.as_dict().values()) == comb(5, 2) * 1 - comb(5, 1) * 3

    def test_residual_symmetric_under_swap(self):
        s1, s2 = pair_specs(2, 5)
        _, residual = verify_lemma_leq(2, 5, hodge_numbers(s1), hodge_numbers(s2))
        swapped = {(v, u): c for (u, v), c in residual.as_dict().items()}
        assert swapped == residual.as_dict()

    def test_rejects_inexact(self):
        fuzzy = HodgeDiamond([[(0, 0)] * 3, [(0, 0), (1, 3), (0, 0)], [(0, 0)] * 3], [0] * 3)
        with pytest.raises(AmbiguityError):
            verify_lemma_leq(1, 5, fuzzy, fuzzy)


class TestDeriveB2:
    def test_published_values(self):
        assert derive_b2(1, 6) == 1
        assert derive_b2(2, 6) == 1

    def test_sweep(self):
        for k in range(1, 4):
            for n in range(2 * k + 1, 9):
                if (k + 1) * (n - k - 2) >= 2 and (k, n) != (1, 4):
                    if (k + 1) * (n - k - 2) > 2:
                        assert derive_b2(k, n) == 1, (k, n)

    def test_del_pezzo_excluded(self):
        with pytest.raises(ExcludedCaseError):
            derive_b2(1, 4)

    def test_points_excluded(self):
        with pytest.raises(ExcludedCaseError):
            derive_b2(1, 3)

    def test_bad_rank(self):
        with pytest.raises(RankError):
            derive_b2(3, 4)


class TestEPolyArithmetic:
    def test_ring_axioms_on_samples(self):
        a = epoly_grassmannian(2, 5)
        b = epoly_projective(2)
        c = EPoly.from_dict({(1, 0): 2, (0, 1): -2})
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a - a).is_zero()

    def test_diamond_roundtrip(self):
        d = ambient_diamond(2, 5)
        assert d.epoly() == epoly_grassmannian(2, 5)

    @pytest.mark.parametrize("k,n", [(1, 5), (1, 6), (2, 5), (2, 6), (3, 7)])
    def test_pair_diamonds_roundtrip(self, k, n):
        # the pair diamonds have middle rows off the diagonal, so this reads
        # every sign of the conversion, not only a Grassmannian's
        for spec in pair_specs(k, n):
            d = hodge_numbers(spec)
            back = HodgeDiamond.from_epoly(d.epoly(), d.meta)
            assert (back.grid, back.euler_columns, back.meta) == (
                d.grid, d.euler_columns, d.meta,
            )

    def test_from_epoly_rejects_wrong_sign(self):
        # h^{1,0} = (-1)^1 * 1 = -1
        with pytest.raises(InconsistentDataError, match=r"h\^\{1,0\} = -1 < 0"):
            HodgeDiamond.from_epoly(EPoly.from_dict({(1, 0): 1}), {})
