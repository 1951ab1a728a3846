import random
from collections import Counter
from itertools import combinations, compress
from math import factorial, prod

import pytest

from roofcalc import bundles
from roofcalc.bwb import (
    Character,
    _vandermonde,
    _walk,
    bott,
    euler_characteristic,
    gl_dimension,
    rho,
    tensor_cohomology,
)
from roofcalc.errors import DominanceError
from roofcalc.weights import DoubleWeight

from oracles import count_ssyt, expr_items, partitions_up_to


def irreducible_times(k, n, upper, lower, mult):
    """mult copies of the irreducible bundle labelled (upper|lower)."""
    return bundles.direct_sum(*[bundles.irreducible(k, n, upper, lower)] * mult)


def trivial(k, n):
    """The trivial character of GL(k) x GL(n-k), prepared for the walk."""
    return Character([{(0,) * n: 1}], k, n)


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
            assert tensor_cohomology(expr_items(e), trivial(k, n)) == (
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


def walk_bott(w):
    """Bott's algorithm read off the walk with the trivial character: the
    sorted seq, its inversions and the Weyl dimension, or acyclic."""
    n = w.n
    for _ in _walk([(w.concat(), 1)], trivial(w.k, n)):
        seq = tuple(a + r for a, r in zip(w.concat(), rho(n)))
        weight = tuple(e - r for e, r in zip(sorted(seq, reverse=True), rho(n)))
        degree = sum(a < b for a, b in combinations(seq, 2))
        return (False, degree, weight, gl_dimension(weight))
    return (True, None, None, None)


class TestBottAgainstTheWalk:
    """`bott` tests lam + rho for a repeat directly; the walk with the
    trivial character is its reference."""

    def test_random_double_weights(self):
        rng = random.Random(23)
        for n in range(2, 9):
            for k in range(1, min(n, 5)):
                for _ in range(40):
                    w = DoubleWeight(
                        tuple(sorted((rng.randint(-4, 4) for _ in range(k)), reverse=True)),
                        tuple(sorted((rng.randint(-4, 4) for _ in range(n - k)), reverse=True)),
                    )
                    res = bott(w)
                    got = (res.acyclic, res.degree, res.weight, res.dimension)
                    assert got == walk_bott(w), w


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
        return tensor_cohomology(expr_items(expr), trivial(expr.k, expr.n))

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
                    irreducible_times(
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
                for degree, dim in tensor_cohomology(
                    expr_items(expr), Character([wedge], k, n)
                ).items()
            )
            prepared = Character([character], k, n)
            assert euler_characteristic(expr_items(expr), prepared) == want
            # the same sum from the graded character, layer s weighted (-1)^s,
            # with no weights merged across layers
            graded = Character(
                [
                    {nu: (-1) ** s * c * m for nu, m in wedge.items()}
                    for s, (c, wedge) in enumerate(zip(coefficients, wedges))
                ],
                k,
                n,
            )
            assert euler_characteristic(expr_items(expr), graded) == want
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
            assert euler_characteristic(expr_items(expr), prepared) == num // superfactorial

    def test_line_bundles_on_projective_space(self):
        # chi(P^m, O(t)) = C(m+t, m) as a polynomial in t, negative values included
        def chi(n, t):
            return euler_characteristic(expr_items(bundles.line(1, n, t)), trivial(1, n))

        assert chi(5, 2) == 15
        assert chi(5, -6) == 5
        assert chi(4, -5) == -4
        assert chi(4, -2) == 0


def reference_walk(terms, n, layers):
    """The walk before collision bitsets: every (term, layer, nu), filtered by
    a set."""
    for w, mult in terms:
        for s, layer in enumerate(layers):
            for nu, c in layer.items():
                seq = tuple(a + b + r for a, b, r in zip(w.concat(), nu, rho(n)))
                if len(set(seq)) == n:
                    yield mult * (-1) ** s * c, s, seq


def walk_sequences(terms, character):
    """(mult * (-1)^s c, s, seq) for each (term, record) pair that
    `bwb._walk` keeps, seq = lam + nu + rho, read off the walk's keep flags;
    each kept record's product fixed * prod(gaps + offsets) is checked
    against the Vandermonde of its seq on the way."""
    n = character.n
    for w, mult in terms:
        for m, gaps, fixed, keep, live in _walk([(w.concat(), mult)], character):
            assert m == mult
            records = compress(range(len(keep)), keep)
            for r, offsets in zip(records, live, strict=True):
                nu = character.weights[r]
                seq = tuple(a + b + x for a, b, x in zip(w.concat(), nu, rho(n)))
                assert fixed * prod(map(sum, zip(gaps, offsets))) == _vandermonde(seq)
                yield mult * character.coefficients[r], character.layers[r], seq


class TestMaskedWalk:
    """`bwb._walk` keeps exactly the (term, record) pairs whose sequence has
    no repeat, the pairs the set test keeps."""

    AMBIENTS = [(k, n) for n in range(2, 9) for k in range(1, n)]

    @staticmethod
    def random_terms(rng, k, n):
        return [
            (
                DoubleWeight(
                    tuple(sorted((rng.randint(-4, 4) for _ in range(k)), reverse=True)),
                    tuple(sorted((rng.randint(-4, 4) for _ in range(n - k)), reverse=True)),
                ),
                rng.randint(1, 3),
            )
            for _ in range(rng.randint(1, 6))
        ]

    @staticmethod
    def assert_same_walk(terms, k, n, layers):
        got = Counter(walk_sequences(terms, Character(layers, k, n)))
        assert got == Counter(reference_walk(terms, n, layers)), (k, n, layers)

    def test_empty_and_trivial_characters(self):
        rng = random.Random(14)
        for k, n in self.AMBIENTS:
            terms = self.random_terms(rng, k, n)
            items = [(w.concat(), mult) for w, mult in terms]
            assert list(_walk(items, Character([], k, n))) == []
            assert list(_walk(items, Character([{}], k, n))) == []
            self.assert_same_walk(terms, k, n, [{(0,) * n: 1}])
            # identical columns: only the cross-block pairs can collide
            assert len(Character([{(0,) * n: 1}], k, n).pairs) == k * (n - k)

    def test_virtual_characters(self):
        rng = random.Random(15)
        for k, n in self.AMBIENTS:
            for _ in range(4):
                character = {
                    tuple(rng.randint(-3, 3) for _ in range(n)): rng.choice([-2, -1, 1, 3])
                    for _ in range(rng.randint(1, 12))
                }
                self.assert_same_walk(self.random_terms(rng, k, n), k, n, [character])

    def test_wedge_characters_of_atom_sums(self):
        from roofcalc.parser import parse_bundle

        rng = random.Random(16)
        shared = 0
        for text in ["UD+UD+UD", "UD+Q", "QD*O(2)", "U*O(1)+O(1)", "Q+Q"]:
            for k, n in rng.sample(self.AMBIENTS, 8):
                wedges = bundles.wedge_characters(parse_bundle(text, k, n))
                koszul = {}
                for s, wedge in enumerate(wedges):
                    self.assert_same_walk(self.random_terms(rng, k, n), k, n, [wedge])
                    for nu, c in wedge.items():
                        koszul[nu] = koszul.get(nu, 0) + (-1) ** s * c
                koszul = {nu: c for nu, c in koszul.items() if c}
                self.assert_same_walk(self.random_terms(rng, k, n), k, n, [koszul])
                # all layers under one layout, weights shared by two layers included
                self.assert_same_walk(self.random_terms(rng, k, n), k, n, wedges)
                shared += len(set().union(*wedges)) < sum(map(len, wedges))
        assert shared > 0

    def test_more_than_255_values_at_one_pair(self):
        # a pair's values are coded as bytes 255 at a time: the 600 values
        # -x at the cross pair (0, 1) take three passes, and the gaps 200, 5
        # and -250 there (s = lam + (2, 1, 0)) hit the first, second and third
        rng = random.Random(18)
        character = {(x, 0, rng.randint(-2, 2)): rng.choice([-1, 1, 2]) for x in range(-300, 300)}
        assert len(Character([character], 1, 3).dead[0]) > 2 * 255
        terms = self.random_terms(rng, 1, 3) + [
            (DoubleWeight((199,), (0, 0)), 1),
            (DoubleWeight((4,), (0, -3)), 1),
            (DoubleWeight((0,), (251, 0)), 2),
        ]
        self.assert_same_walk(terms, 1, 3, [character])

    def test_columns_that_hash_alike(self):
        # hash(-1) == hash(-2) in CPython, so the columns (-1, -1) and
        # (-2, -2) of the upper block hash alike; they differ, so their pair
        # stays active and moves the weights
        character = {(-1, -2, 0): 1, (-1, -2, 1): -1}
        assert (0, 1) in Character([character], 2, 3).pairs
        terms = [(DoubleWeight((2, 0), (0,)), 1), (DoubleWeight((1, 1), (0,)), 2)]
        self.assert_same_walk(terms, 2, 3, [character])

    def test_same_block_columns_in_lockstep(self):
        # nu_j - nu_i is a nonzero constant c for a same-block pair (i, j):
        # the pair can still collide, when s_i - s_j = c, so it stays active
        rng = random.Random(17)
        caught = 0
        for k, n in self.AMBIENTS:
            blocks = [range(k), range(k, n)]
            same = [(i, j) for b in blocks for i, j in combinations(b, 2)]
            if not same:
                continue
            for _ in range(6):
                i, j = rng.choice(same)
                step = rng.choice([-3, -2, -1, 1, 2, 3])
                character = {}
                for _ in range(rng.randint(1, 8)):
                    nu = [rng.randint(-2, 2) for _ in range(n)]
                    nu[j] = nu[i] + step
                    character[tuple(nu)] = rng.choice([-1, 1, 2])
                terms = self.random_terms(rng, k, n)
                self.assert_same_walk(terms, k, n, [character])
                for w, _ in terms:
                    s = [a + r for a, r in zip(w.concat(), rho(n))]
                    caught += s[i] - s[j] == step
        assert caught > 0
