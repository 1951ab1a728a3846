import random
from math import comb

import pytest

from roofcalc import bundles
from roofcalc.bwb import Character, tensor_cohomology
from roofcalc.errors import AmbientMismatchError, PlethysmRequiredError, RankError
from roofcalc.weights import DoubleWeight, enumerate_box, is_dominant, negate_reverse
from roofcalc.windows import bar_moved_collection, kapranov_collection

from roofcalc.parser import parse_bundle

from oracles import expr_items, projective_space_omega_cohomology, schur_polynomial


def recursive_power(a, m, label):
    """The binomial expansion as a recursion over the atoms: the reference
    for `bundles._graded_power`, which folds over them instead."""
    k, n = a.ambient
    if m == 0:
        return bundles.line(k, n, 0)
    atoms = bundles._atom_list(a)

    def factor(atom, j):
        w = bundles._atom_power(atom[0], atom[1], label(j), k, n)
        return bundles.zero(k, n) if w is None else bundles.irreducible(k, n, w.upper, w.lower)

    def rec(i, budget):
        if i == len(atoms) - 1:
            return factor(atoms[i], budget)
        out = bundles.zero(k, n)
        for j in range(budget + 1):
            head, tail = factor(atoms[i], j), rec(i + 1, budget - j)
            if not (head.is_zero() or tail.is_zero()):
                out = bundles.direct_sum(out, bundles.tensor(head, tail))
        return out

    return rec(0, m)


def atom_sym_table(kind, t, m, k, n):
    """Sym^m of the atom `kind` twisted by O(t), written out per kind: the
    reference for `bundles._atom_power` with the label (m,)."""
    lo0 = (0,) * (n - k)
    if kind == "O":
        return DoubleWeight((m * t,) * k, lo0)
    mt = m * t
    if kind == "UD":
        return DoubleWeight((mt + m,) + (mt,) * (k - 1), lo0)
    if kind == "U":
        return DoubleWeight((mt,) * (k - 1) + (mt - m,), lo0)
    if kind == "QD":
        return DoubleWeight((mt,) * k, (m,) + (0,) * (n - k - 1))
    if kind == "Q":
        return DoubleWeight((mt,) * k, (0,) * (n - k - 1) + (-m,))
    raise AssertionError(kind)


def atom_wedge_table(kind, t, m, k, n):
    """wedge^m of the atom `kind` twisted by O(t), None when it vanishes,
    written out per kind: the reference for `bundles._atom_power` with the
    label (1^m)."""
    r = bundles._atom_rank(kind, k, n)
    if m > r:
        return None
    if m == 0:
        return DoubleWeight((0,) * k, (0,) * (n - k))
    lo0 = (0,) * (n - k)
    mt = m * t
    if kind == "O":
        return DoubleWeight((t,) * k, lo0)
    if kind == "UD":
        return DoubleWeight(tuple(mt + 1 if i < m else mt for i in range(k)), lo0)
    if kind == "U":
        return DoubleWeight(tuple(mt if i < k - m else mt - 1 for i in range(k)), lo0)
    if kind == "QD":
        return DoubleWeight((mt,) * k, tuple(1 if i < m else 0 for i in range(n - k)))
    if kind == "Q":
        return DoubleWeight((mt,) * k, tuple(0 if i < n - k - m else -1 for i in range(n - k)))
    raise AssertionError(kind)


class TestTensor:
    def test_line_bundles(self):
        o1 = bundles.line(2, 5, 1)
        assert bundles.tensor(o1, o1) == bundles.line(2, 5, 2)

    def test_dual_sub_times_determinant(self):
        k, n = 2, 5
        ud = bundles.tautological_dual(k, n)
        det = bundles.line(k, n, 1)
        assert bundles.tensor(ud, det) == bundles.schur(k, n, "UD", (2, 1))

    def test_displayed_two_term_product(self):
        a = bundles.irreducible(2, 5, (2, 0), (1, 0, 0))
        b = bundles.irreducible(2, 5, (1, 1), (1, 0, 0))
        out = bundles.tensor(a, b)
        assert out.as_dict() == {
            DoubleWeight((3, 1), (2, 0, 0)): 1,
            DoubleWeight((3, 1), (1, 1, 0)): 1,
        }

    def test_associative_commutative(self):
        k, n = 2, 5
        a = bundles.quotient_dual(k, n)
        b = bundles.tautological(k, n)
        c = bundles.line(k, n, 1)
        assert bundles.tensor(a, b) == bundles.tensor(b, a)
        assert bundles.tensor(bundles.tensor(a, b), c) == bundles.tensor(
            a, bundles.tensor(b, c)
        )

    def test_ambient_mismatch(self):
        with pytest.raises(AmbientMismatchError):
            bundles.tensor(bundles.line(2, 5, 1), bundles.line(2, 6, 1))

    def test_twist_is_tensor_with_line(self):
        for e in [
            bundles.schur(2, 6, "QD", (2, 1, 0, 0)),
            bundles.tautological(3, 7),
            bundles.direct_sum(bundles.line(2, 5, 2), bundles.quotient(2, 5)),
            bundles.cotangent_power(2, 5, 3),
        ]:
            for t in range(-3, 4):
                assert bundles.twist(e, t) == bundles.tensor(e, bundles.line(e.k, e.n, t))


class TestDual:
    def test_line(self):
        assert bundles.dual(bundles.line(2, 6, 3)) == bundles.line(2, 6, -3)

    def test_schur_of_quotient(self):
        # (S_{(1,1,0)}Q*)* = S_{(1,0,0)}Q* (x) O(1)
        e = bundles.schur(2, 5, "QD", (1, 1, 0))
        want = bundles.twist(bundles.schur(2, 5, "QD", (1, 0, 0)), 1)
        assert bundles.dual(e) == want

    def test_involution(self):
        for e in [
            bundles.schur(2, 6, "QD", (2, 1, 0, 0)),
            bundles.twist(bundles.tautological(3, 7), 2),
            bundles.direct_sum(bundles.line(2, 5, 2), bundles.quotient(2, 5)),
        ]:
            assert bundles.dual(bundles.dual(e)) == e

    @staticmethod
    def reference(e):
        """Negate and reverse each block, then put the items in canonical
        form, merging equal terms."""
        items = (((negate_reverse(w.upper), negate_reverse(w.lower)), m) for w, m in e.terms)
        return bundles._expr(e.k, e.n, items)

    @staticmethod
    def pair_products():
        """dual(E) (x) E' over both Kapranov sides for n <= 7: the products
        the window check dualises."""
        sides = [
            (1, n, [DoubleWeight((0,), lam) for lam in enumerate_box(n - 1, 1)])
            for n in range(3, 8)
        ] + [
            (2, n, list(bar_moved_collection(kapranov_collection(1, n))))
            for n in range(4, 8)
        ]
        for k, n, members in sides:
            exprs = [bundles.irreducible(k, n, w.upper, w.lower) for w in members]
            for e in exprs:
                dual_e = TestDual.reference(e)
                for e_prime in exprs:
                    yield bundles.tensor(dual_e, e_prime)

    def test_matches_negate_reverse_reference(self):
        parsed = [
            parse_bundle(text, k, n)
            for text, k, n in [
                ("UD+UD+Q*O(1)", 2, 5), ("Wedge^2(UD+UD+QD)", 3, 7), ("Q+Q+Q*O(-2)+O(3)", 2, 6),
            ]
        ]
        assert all(max(m for _, m in e.terms) > 1 for e in parsed)
        products = list(self.pair_products())
        assert len(products) == sum(n * n for n in range(3, 8)) + sum(n * n for n in range(4, 8))
        for e in products + parsed:
            got = bundles.dual(e)
            assert got == self.reference(e), e
            assert bundles.dual(got) == e, e

    def test_empty_direct_sum_is_a_rank_error(self):
        with pytest.raises(RankError):
            bundles.direct_sum()


class TestSymWedge:
    def test_sym_of_twisted_quotient_dual(self):
        # Sym^m(Q*(2)) = S_{(m,0,...)}Q* (x) O(2m)
        for m in range(4):
            got = bundles.sym_power(bundles.twist(bundles.quotient_dual(1, 5), 2), m)
            want = bundles.twist(
                bundles.schur(1, 5, "QD", (m,) + (0,) * 3), 2 * m
            )
            assert got == want

    def test_wedge_zero_is_trivial(self):
        assert bundles.wedge_power(
            bundles.quotient(3, 7), 0
        ) == bundles.line(3, 7, 0)

    def test_top_wedge_of_twisted_sub(self):
        # rank-3 atom U(2) on G(3,7): top wedge is det U (x) O(6) = O(5)
        u2 = bundles.twist(bundles.tautological(3, 7), 2)
        assert bundles.wedge_power(u2, 3) == bundles.line(3, 7, 5)
        assert bundles.wedge_power(u2, 4).is_zero()

    def test_binomial_expansion_of_sums(self):
        k, n = 1, 3
        e = bundles.direct_sum(bundles.line(k, n, 1), bundles.line(k, n, 2))
        got = bundles.sym_power(e, 2)
        want = bundles.direct_sum(
            bundles.line(k, n, 2), bundles.line(k, n, 3), bundles.line(k, n, 4)
        )
        assert got == want

    def test_sym_rank_formula(self):
        for k, n, m in [(2, 5, 3), (3, 7, 2), (1, 4, 5)]:
            e = bundles.quotient_dual(k, n)
            r = bundles.rank(e)
            assert bundles.rank(bundles.sym_power(e, m)) == comb(r + m - 1, m)
            assert bundles.rank(bundles.wedge_power(e, min(m, r))) == comb(
                r, min(m, r)
            )

    def test_graded_power_matches_recursive_expansion(self):
        for k, n, parts in [
            (1, 3, [bundles.line(1, 3, 1), bundles.line(1, 3, 2)]),
            (2, 5, [bundles.line(2, 5, 2), bundles.quotient(2, 5)]),
            (2, 6, [bundles.line(2, 6, 1)] * 2 + [bundles.line(2, 6, 2)]),
            (2, 5, [bundles.tautological_dual(2, 5), bundles.quotient_dual(2, 5),
                    bundles.twist(bundles.tautological(2, 5), 1)]),
        ]:
            e = bundles.direct_sum(*parts)
            for m in range(5):
                assert bundles.sym_power(e, m) == recursive_power(e, m, lambda j: (j,))
                assert bundles.wedge_power(e, m) == recursive_power(
                    e, m, lambda j: (1,) * j
                )

    def test_atom_power_matches_tables(self):
        checked = 0
        for k, n in [(1, 4), (2, 5), (3, 6), (3, 7), (4, 5)]:
            # U/UD on k = 1 and Q/QD on n - k = 1 are line bundles, so O(t)
            kinds = ["O"] + [
                kind
                for kind in ("U", "UD", "Q", "QD")
                if bundles._atom_rank(kind, k, n) >= 2
            ]
            for kind in kinds:
                r = bundles._atom_rank(kind, k, n)
                for t in range(-2, 3):
                    for m in range(r + 2):
                        where = (kind, t, m, k, n)
                        sym = bundles._atom_power(kind, t, (m,), k, n)
                        assert sym == atom_sym_table(kind, t, m, k, n), where
                        wedge = bundles._atom_power(kind, t, (1,) * m, k, n)
                        assert wedge == atom_wedge_table(kind, t, m, k, n), where
                        checked += 1
        assert checked > 300

    def test_many_summands_do_not_recurse(self):
        # more atoms than the interpreter's default recursion limit
        o1 = bundles.line(1, 1201, 1)
        got = bundles.wedge_power(bundles.direct_sum(*[o1] * 1200), 1)
        assert got.terms == ((o1.terms[0][0], 1200),)

    def test_wedge_past_the_rank_builds_nothing(self, monkeypatch):
        # each atom's column labels stop at the first one past its rank, so
        # the work does not grow with the degree asked for
        lengths = []
        atom_power = bundles._atom_power

        def counting(kind, t, label, k, n):
            lengths.append(len(label))
            return atom_power(kind, t, label, k, n)

        monkeypatch.setattr(bundles, "_atom_power", counting)
        ud = bundles.tautological_dual(2, 5)
        assert bundles.wedge_power(ud, 1000).is_zero()
        assert lengths == [0, 1, 2, 3]
        lengths.clear()
        e = bundles.direct_sum(ud, bundles.quotient(2, 5))
        powers = bundles._graded_power(e, 1000, lambda j: (1,) * j)
        assert sorted(lengths) == [0, 0, 1, 1, 2, 2, 3, 3, 4]
        assert len(powers) == 1001
        assert powers[5] == bundles.line(2, 5, 2)  # det U* (x) det Q = O(1) (x) O(1)
        assert all(p.is_zero() for p in powers[6:])
        assert bundles.wedge_power(e, 6).is_zero()

    def test_plethysm_required(self):
        with pytest.raises(PlethysmRequiredError):
            bundles.sym_power(bundles.schur(2, 6, "QD", (2, 1)), 2)
        with pytest.raises(PlethysmRequiredError):
            bundles.wedge_power(bundles.cotangent_power(2, 6, 1), 2)


class TestWedgeCharacters:
    def test_single_atom_is_shifted_elementary_polynomial(self):
        # wedge^s of an atom twisted by O(t): the monomials of the column
        # Schur polynomial s_(1^s) in its block, every entry shifted by s*t
        for k, n in [(1, 4), (2, 5), (3, 6), (3, 7)]:
            q = n - k
            for t in (-2, 0, 1):
                for kind, r, sign in [("UD", k, 1), ("U", k, -1), ("QD", q, 1), ("Q", q, -1)]:
                    atom = parse_bundle(f"{kind}*O({t})", k, n)
                    chars = bundles.wedge_characters(atom)
                    assert len(chars) == r + 1
                    for s, char in enumerate(chars):
                        col = schur_polynomial((1,) * s, r)
                        if kind in ("UD", "U"):
                            want = {
                                tuple(s * t + sign * e for e in c) + (0,) * q: m
                                for c, m in col.items()
                            }
                        else:
                            want = {
                                (s * t,) * k + tuple(sign * e for e in c): m
                                for c, m in col.items()
                            }
                        assert char == want, (kind, k, n, t, s)
                line = bundles.wedge_characters(bundles.line(k, n, t))
                assert line == [{(0,) * n: 1}, {(t,) * k + (0,) * q: 1}]

    def test_multiplicities_sum_to_binomials(self):
        for k, n, text in [
            (2, 5, "UD*O(1)+UD*O(1)"),
            (3, 6, "QD*O(1)+QD*O(1)+O(2)"),
            (3, 6, "Q*O(1)+Q*O(1)"),
            (2, 6, "UD+QD*O(1)+U*O(2)+O(1)+O(1)"),
        ]:
            e = parse_bundle(text, k, n)
            r = bundles.rank(e)
            chars = bundles.wedge_characters(e)
            assert [sum(c.values()) for c in chars] == [comb(r, s) for s in range(r + 1)]


class TestCotangentPower:
    def test_zeroth_is_structure_sheaf(self):
        assert bundles.cotangent_power(2, 5, 0) == bundles.line(2, 5, 0)

    def test_first_is_sub_tensor_quotient_dual(self):
        got = bundles.cotangent_power(2, 6, 1)
        want = bundles.tensor(
            bundles.tautological(2, 6), bundles.quotient_dual(2, 6)
        )
        assert got == want
        assert bundles.rank(got) == 8

    def test_top_is_canonical(self):
        for k, n in [(1, 4), (2, 5), (3, 6)]:
            top = bundles.cotangent_power(k, n, k * (n - k))
            assert top == bundles.line(k, n, -n)

    def test_out_of_range_is_zero(self):
        assert bundles.cotangent_power(2, 5, 7).is_zero()
        assert bundles.cotangent_power(2, 5, -1).is_zero()
        # nothing is built per degree past the top one
        assert bundles.cotangent_power(2, 5, 10**12).is_zero()
        powers = bundles.cotangent_powers(2, 5, 8)
        assert len(powers) == 9 and powers[6] == bundles.line(2, 5, -5)
        assert powers[7].is_zero() and powers[8].is_zero()

    @pytest.mark.parametrize("k,n", [(1, 4), (2, 4), (2, 5), (1, 6), (2, 6), (3, 6), (2, 7), (3, 7), (2, 8), (4, 8)])
    def test_euler_characteristic_of_grassmannian(self, k, n):
        # alternating sum of chi(Omega^t) is the topological Euler number
        total = sum(
            (-1) ** (t + d) * h
            for t in range(k * (n - k) + 1)
            for d, h in tensor_cohomology(
                expr_items(bundles.cotangent_power(k, n, t)), Character([{(0,) * n: 1}], k, n)
            ).items()
        )
        assert total == comb(n, k)
        # ranks of the exterior powers alternate to zero, as they must
        assert (
            sum(
                (-1) ** t * bundles.rank(bundles.cotangent_power(k, n, t))
                for t in range(k * (n - k) + 1)
            )
            == 0
        )


class TestAmple:
    # G(2,5) and G(3,7): both blocks of rank >= 2, so U* and Q are no line bundles
    @pytest.mark.parametrize("k,n", [(2, 5), (3, 7)])
    def test_snow_boundary_cases(self, k, n):
        ample = [
            bundles.line(k, n, 1),
            bundles.twist(bundles.tautological_dual(k, n), 1),
            bundles.twist(bundles.quotient_dual(k, n), 2),
        ]
        generated_only = [
            bundles.tautological_dual(k, n),
            bundles.quotient(k, n),
            bundles.twist(bundles.quotient_dual(k, n), 1),
        ]
        for a in ample + generated_only:
            assert bundles.is_globally_generated(a), a
        for a in ample:
            assert bundles.is_ample(a), a
        for a in generated_only:
            assert not bundles.is_ample(a), a
        # a sum is ample exactly when every summand is
        assert bundles.is_ample(bundles.direct_sum(*ample))
        assert not bundles.is_ample(bundles.direct_sum(ample[0], generated_only[0]))


def random_atom_sum(rng, k, n):
    """A sum of one to three atoms on G(k,n), each twisted by O(-2..2)."""
    atoms = [
        bundles.tautological,
        bundles.tautological_dual,
        bundles.quotient,
        bundles.quotient_dual,
        lambda k, n: bundles.line(k, n, 0),
    ]
    return bundles.direct_sum(
        *(
            bundles.twist(rng.choice(atoms)(k, n), rng.randint(-2, 2))
            for _ in range(rng.randint(1, 3))
        )
    )


def assert_canonical(e, k, n):
    assert e.ambient == (k, n)
    for w, m in e.terms:
        assert w.ambient == (k, n)
        assert is_dominant(w.upper) and is_dominant(w.lower), w
        assert w.lower[-1] == 0, w
        assert isinstance(m, int) and m >= 1, (w, m)
    keys = [(w.upper, w.lower) for w, _ in e.terms]
    assert all(a > b for a, b in zip(keys, keys[1:])), keys


class TestCanonicalForm:
    @pytest.mark.parametrize("seed", range(30))
    def test_every_operation_returns_canonical_terms(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        k = rng.randint(1, n - 1)
        a, b = random_atom_sum(rng, k, n), random_atom_sum(rng, k, n)
        sym = bundles.sym_powers(a, 3)
        wedges = [bundles.wedge_power(b, j) for j in range(bundles.rank(b) + 2)]
        omegas = [bundles.cotangent_power(k, n, j) for j in range(k * (n - k) + 2)]
        # products of Sym, wedge and cotangent powers take the tableau rule too
        factors = [(a, b), (sym[2], wedges[2]), (omegas[1], sym[3]), (bundles.dual(b), a)]
        products = [bundles.tensor(x, y) for x, y in factors]
        outputs = [
            *products,
            bundles.twist(a, rng.randint(-3, 3)),
            bundles.dual(a),
            bundles.direct_sum(a, b, a),
            *sym,
            *wedges,
            *omegas,
        ]
        for e in outputs:
            assert_canonical(e, k, n)
        for (x, y), product in zip(factors, products):
            assert bundles.rank(product) == bundles.rank(x) * bundles.rank(y)


class TestRank:
    def test_examples(self):
        assert bundles.rank(bundles.twist(bundles.quotient_dual(2, 6), 2)) == 4
        assert bundles.rank(bundles.twist(bundles.tautological(3, 7), 2)) == 3

    def test_multiplicative(self):
        a = bundles.quotient_dual(2, 6)
        b = bundles.tautological_dual(2, 6)
        assert bundles.rank(bundles.tensor(a, b)) == bundles.rank(a) * bundles.rank(b)


class TestAgainstProjectiveSpaceFormula:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_twisted_cotangent_powers(self, n):
        for p in range(n + 1):
            omega_p = bundles.cotangent_power(1, n + 1, p)
            for t in range(-6, 7):
                totals = tensor_cohomology(
                    expr_items(bundles.twist(omega_p, t)),
                    Character([{(0,) * (n + 1): 1}], 1, n + 1),
                )
                assert totals == projective_space_omega_cohomology(
                    n, p, t
                ), (n, p, t)
