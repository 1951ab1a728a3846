import random
from itertools import combinations
from math import factorial, prod

import pytest

from roofcalc import bundles
from roofcalc.bwb import bott, euler_characteristic, gl_dimension, rho, tensor_cohomology
from roofcalc.errors import DominanceError
from roofcalc.weights import DoubleWeight

from oracles import count_ssyt, partitions_up_to


class TestBott:
    def test_sections_of_hyperplane_line(self):
        res = bott(DoubleWeight((1,), (0, 0, 0, 0)))
        assert (res.acyclic, res.degree, res.weight, res.dimension) == (
            False, 0, (1, 0, 0, 0, 0), 5,
        )

    def test_dual_quotient_is_acyclic(self):
        res = bott(DoubleWeight((0,), (1, 0, 0, 0)))
        assert res.acyclic
        # the shifted sequence has the repeat 4,4
        s = tuple(a + b for a, b in zip((0, 1, 0, 0, 0), rho(5)))
        assert s == (4, 4, 2, 1, 0)

    def test_canonical_bundle_g25(self):
        res = bott(DoubleWeight((-5, -5), (0, 0, 0)))
        assert (res.degree, res.weight, res.dimension) == (6, (-2,) * 5, 1)

    def test_dominant_weights_have_degree_zero(self):
        for w in [
            DoubleWeight((3, 1), (1, 0, 0)),
            DoubleWeight((2, 2, 2), (2, 1, 0, 0)),
            DoubleWeight((0,), (0, 0, 0)),
        ]:
            res = bott(w)
            assert not res.acyclic and res.degree == 0

    def test_serre_duality_sample(self):
        rng = random.Random(20240814)
        checked = 0
        while checked < 200:
            n = rng.randint(2, 7)
            k = rng.randint(1, n - 1)
            upper = tuple(sorted((rng.randint(-6, 6) for _ in range(k)), reverse=True))
            lower = tuple(
                sorted((rng.randint(-6, 6) for _ in range(n - k)), reverse=True)
            )
            w = DoubleWeight(upper, lower)
            res = bott(w)
            # the single-weight walk agrees with the Klimyk walk on the trivial character
            e = bundles.irreducible(k, n, w.upper, w.lower)
            assert tensor_cohomology(e, {(0,) * n: 1}) == (
                {} if res.acyclic else {res.degree: res.dimension}
            )
            # dual(E) (x) omega with omega = O(-n) is one irreducible term
            ((dual_w, _),) = bundles.twist(bundles.dual(e), -n).terms
            dual = bott(dual_w)
            dim_g = k * (n - k)
            if res.acyclic:
                assert dual.acyclic
            else:
                assert dual.degree == dim_g - res.degree
                assert dual.dimension == res.dimension
            checked += 1

    def test_degree_bounded_by_ambient_dimension(self):
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randint(2, 8)
            k = rng.randint(1, n - 1)
            w = DoubleWeight(
                tuple(sorted((rng.randint(-5, 5) for _ in range(k)), reverse=True)),
                tuple(sorted((rng.randint(-5, 5) for _ in range(n - k)), reverse=True)),
            )
            res = bott(w)
            if not res.acyclic:
                assert 0 <= res.degree <= k * (n - k)
                assert res.dimension >= 1


class TestGlDimension:
    def test_standard_representation(self):
        for n in range(1, 7):
            assert gl_dimension((1,) + (0,) * (n - 1)) == n

    def test_examples(self):
        assert gl_dimension((1, 1, 0, 0, 0)) == 10
        assert gl_dimension((2, 2, 0, 0, 0)) == 50

    def test_ssyt_counting_oracle(self):
        for n in range(1, 7):
            for lam in partitions_up_to(8, n):
                mu = tuple(lam) + (0,) * (n - len(lam))
                assert gl_dimension(mu) == count_ssyt(lam, n), (lam, n)

    def test_shift_invariance(self):
        assert gl_dimension((3, 2, 1)) == gl_dimension((1, 0, -1))

    def test_wide_constant_blocks(self):
        assert gl_dimension((0,) * 1300) == 1
        assert gl_dimension((1,) + (0,) * 1299) == 1300

    def test_rejects_non_dominant(self):
        with pytest.raises(DominanceError):
            gl_dimension((0, 1, 0))


class TestBundleCohomology:
    @staticmethod
    def totals(expr):
        """Per-degree dimensions of H^*(E): E (x) the trivial representation."""
        return tensor_cohomology(expr, {(0,) * expr.n: 1})

    def test_structure_sheaf(self):
        assert self.totals(bundles.line(2, 5, 0)) == {0: 1}

    def test_endomorphisms_of_tautological(self):
        # U (x) U* has a one-dimensional H^0 and nothing else
        for n in (4, 5, 6):
            u = bundles.tautological(2, n)
            assert self.totals(bundles.tensor(u, bundles.dual(u))) == {0: 1}

    def test_cotangent_has_only_h11(self):
        assert self.totals(bundles.cotangent_power(2, 5, 1)) == {1: 1}

    def test_euler_characteristic(self):
        def euler_characteristic(expr):
            return sum((-1) ** d * h for d, h in self.totals(expr).items())

        assert euler_characteristic(bundles.line(1, 3, 2)) == 6  # h^0(O_P2(2))
        assert euler_characteristic(bundles.line(1, 3, -3)) == 1  # Serre dual


class TestEulerCharacteristic:
    def test_alternating_sum_of_klimyk_totals(self):
        # random bases against virtual characters sum_s c_s wedge^s F, signs included
        from roofcalc.parser import parse_bundle

        rng = random.Random(8)
        for _ in range(150):
            n = rng.randint(2, 6)
            k = rng.randint(1, n - 1)
            expr = bundles.direct_sum(
                *(
                    bundles.irreducible(
                        k,
                        n,
                        sorted((rng.randint(-3, 3) for _ in range(k)), reverse=True),
                        sorted((rng.randint(-3, 3) for _ in range(n - k)), reverse=True),
                        rng.randint(1, 3),
                    )
                    for _ in range(rng.randint(1, 3))
                )
            )
            atoms = rng.sample(["UD", "U*O(1)", "QD*O(-1)", "Q", "O(2)", "O(-1)"], 2)
            wedges = bundles.wedge_characters(parse_bundle("+".join(atoms), k, n))
            coefficients = [rng.randint(-2, 2) for _ in wedges]
            character = {}
            for c, wedge in zip(coefficients, wedges):
                for nu, m in wedge.items():
                    character[nu] = character.get(nu, 0) + c * m
            want = sum(
                c * (-1) ** degree * dim
                for c, wedge in zip(coefficients, wedges)
                for degree, dim in tensor_cohomology(expr, wedge).items()
            )
            assert euler_characteristic(expr, character) == want
            # the unfiltered sum: every sequence, repeats included, whose
            # Vandermonde is then 0
            num = sum(
                mult * c * prod(a - b for a, b in combinations(seq, 2))
                for w, mult in expr.terms
                for nu, c in character.items()
                for seq in [[x + y + z for x, y, z in zip(w.concat(), nu, rho(n))]]
            )
            superfactorial = prod(factorial(i) for i in range(n))
            assert num % superfactorial == 0
            assert euler_characteristic(expr, character) == num // superfactorial

    def test_line_bundles_on_projective_space(self):
        # chi(P^m, O(t)) = C(m+t, m) as a polynomial in t, negative values included
        assert euler_characteristic(bundles.line(1, 5, 2), {(0,) * 5: 1}) == 15
        assert euler_characteristic(bundles.line(1, 5, -6), {(0,) * 5: 1}) == 5
        assert euler_characteristic(bundles.line(1, 4, -5), {(0,) * 4: 1}) == -4
        assert euler_characteristic(bundles.line(1, 4, -2), {(0,) * 4: 1}) == 0
