import random
from collections import Counter

import pytest

from roofcalc import bundles, bwb
from roofcalc.bwb import bott
from roofcalc.chase import LinearSystem
from roofcalc.errors import AmbiguityError, InjectivityViolationError, RankError
from roofcalc.hodge import (
    HodgeDiamond,
    ZeroLocusSpec,
    _chase_diamond,
    _conormal_rows,
    _degree,
    _koszul_totals,
    _wedge_characters,
    ambient_diamond,
    check_pair_theorem,
    hodge_numbers,
    pair_invariants,
    pair_specs,
    point_count,
    v_cohomology,
)
from roofcalc.parser import parse_bundle

from oracles import brute_force_box


def hyperplane(n):
    return ZeroLocusSpec(1, n + 1, bundles.line(1, n + 1, 1))


class TestAmbientDiamond:
    def test_projective_space(self):
        d = ambient_diamond(1, 6)
        assert d.diagonal() == [1] * 6

    def test_published_ambient_values(self):
        assert ambient_diamond(2, 6).h(2, 2) == 2
        assert ambient_diamond(3, 6).h(3, 3) == 3

    def test_total_is_binomial(self):
        from math import comb

        for k, n in [(1, 5), (2, 5), (2, 6), (3, 7), (4, 8)]:
            assert sum(ambient_diamond(k, n).diagonal()) == comb(n, k)

    def test_off_diagonal_zero(self):
        d = ambient_diamond(2, 5)
        assert all(p == q for (p, q) in d.entries)

    def test_diagonal_counts_box_partitions(self):
        for n in range(2, 9):
            for k in range(1, n):
                sizes = Counter(sum(w) for w in brute_force_box(k, n - k))
                want = [sizes[p] for p in range(k * (n - k) + 1)]
                assert ambient_diamond(k, n).diagonal() == want, (k, n)


class TestHyperplanes:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_hyperplane_reproduces_smaller_projective_space(self, n):
        got = hodge_numbers(hyperplane(n))
        want = ambient_diamond(1, n)
        assert got.fully_exact()
        assert got.dim == n - 1
        for p in range(n):
            for q in range(n):
                assert got.h(p, q) == want.h(p, q), (n, p, q)


class TestPointCounts:
    def test_twenty_one_points(self):
        spec = ZeroLocusSpec(1, 6, bundles.twist(bundles.quotient_dual(1, 6), 2))
        assert point_count(spec) == 21

    def test_single_hyperplane_point(self):
        assert point_count(ZeroLocusSpec(1, 2, bundles.line(1, 2, 1))) == 1

    def test_bezout(self):
        conic_line = bundles.direct_sum(
            bundles.line(1, 3, 2), bundles.line(1, 3, 1)
        )
        assert point_count(ZeroLocusSpec(1, 3, conic_line)) == 2

    def test_rejects_positive_dimension(self):
        with pytest.raises(RankError):
            point_count(hyperplane(3))


class TestDegree:
    @pytest.mark.parametrize(
        "k,n,text,degree",
        [
            (2, 5, "UD+Q", 0),
            (2, 6, "UD+Q+O(1)", 0),
            (2, 4, "O(0)", 0),
            (1, 2, "O(0)", 0),
            (2, 5, "UD", 2),  # G(2,4), the Klein quadric
            (2, 5, "Q", 1),  # the P^3 of planes through a line
            (2, 5, "O(1)+O(1)+O(1)", 5),  # three hyperplanes of G(2,5)
            (1, 4, "O(3)", 3),  # the cubic surface
            (3, 9, "UD+UD+UD", 42),  # G(3,6)
            (4, 10, "UD+UD+UD", 462),  # G(4,7)
        ],
    )
    def test_known_degrees(self, k, n, text, degree):
        assert _degree(ZeroLocusSpec(k, n, parse_bundle(text, k, n))) == degree


def koszul_data_lr(spec, base):
    """The Koszul totals by Littlewood-Richardson: expand each
    wedge^s F* (x) base into irreducibles and run Bott on every one.  The
    reference for `_koszul_totals`, which never expands the tensor."""
    f_dual = bundles.dual(spec.bundle)
    totals = {}
    chi = 0
    for s in range(bundles.rank(spec.bundle) + 1):
        term = bundles.tensor(bundles.wedge_power(f_dual, s), base)
        for w, mult in term.terms:
            res = bott(w)
            if not res.acyclic:
                m = res.degree - s
                totals[m] = totals.get(m, 0) + mult * res.dimension
                chi += (-1) ** s * mult * (-1) ** res.degree * res.dimension
    return totals, chi


class TestKoszulKernel:
    # atoms in both blocks, sums with O(t), and repeated same-block atoms
    BUNDLES = [
        "O(2)",
        "O(1)+O(2)",
        "UD*O(1)",
        "U*O(1)",
        "QD*O(1)",
        "Q*O(2)",
        "UD+O(1)",
        "QD*O(1)+O(2)",
        "UD*O(1)+QD*O(1)",
        "UD*O(1)+UD*O(1)",
        "QD*O(1)+QD*O(1)",
        "Q*O(1)+Q*O(1)",
    ]

    def test_matches_lr_reference(self, monkeypatch):
        seen = Counter()
        walk = bwb._sequences

        def recording_walk(terms, n, character):
            terms = tuple(terms)
            k = terms[0][0].k
            for c, seq in walk(terms, n, character):
                upper, lower = seq[:k], seq[k:]
                if list(upper) != sorted(upper, reverse=True) or list(lower) != sorted(
                    lower, reverse=True
                ):
                    seen["reordered"] += 1
                    # the Vandermonde's sign is (-1)^(within-block + cross-block inversions)
                    seen["odd"] += (bwb._vandermonde(seq) < 0) != (bwb._degree(seq, k) & 1)
                yield c, seq

        monkeypatch.setattr(bwb, "_sequences", recording_walk)
        rng = random.Random(20261018)
        checked = 0
        for text in self.BUNDLES:
            ambients = [(k, n) for n in range(3, 7) for k in range(1, n)]
            specs = []
            for k, n in rng.sample(ambients, len(ambients)):
                try:
                    specs.append(ZeroLocusSpec(k, n, parse_bundle(text, k, n)))
                except RankError:
                    continue
            for spec in specs[:2]:
                characters = _wedge_characters(spec)
                for j, row in enumerate(_conormal_rows(spec, spec.dim)):
                    for t, base in enumerate(row):
                        assert _koszul_totals(base, characters) == koszul_data_lr(
                            spec, base
                        ), (text, spec.k, spec.n, j, t)
                        checked += 1
        assert checked > 100
        # the sign path: terms whose blocks need reordering, some an odd number of times
        assert seen["reordered"] > 0 and seen["odd"] > 0


class TestConormalRows:
    @pytest.mark.parametrize(
        "k, n, text, top",
        [
            # Y1 of the (4,9) pair: Lefschetz route, columns p <= d/2 = 7
            (4, 9, "QD*O(2)", 7),
            # not ample: chase route, every column p <= d = 8
            (3, 7, "UD+O(1)", 8),
        ],
    )
    def test_each_power_built_once(self, monkeypatch, k, n, text, top):
        spec = ZeroLocusSpec(k, n, parse_bundle(text, k, n))
        calls = Counter()
        for name in ("sym_power", "cotangent_power"):
            def counted(*args, _fn=getattr(bundles, name), _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(bundles, name, counted)
        hodge_numbers(spec)
        assert 0 < calls["sym_power"] <= top + 1
        assert 0 < calls["cotangent_power"] <= top + 1


class TestLefschetzRoute:
    # ample F on every G(k,n) with n <= 6, the pair bundles Q*(2) and U(2) included
    AMPLE = ["O(1)", "O(2)", "UD*O(1)", "QD*O(2)", "O(1)+O(1)", "U*O(2)"]

    def test_chase_agrees_entry_by_entry(self):
        compared, left_open = 0, []
        for text in self.AMPLE:
            for n in range(2, 7):
                for k in range(1, n):
                    try:
                        spec = ZeroLocusSpec(k, n, parse_bundle(text, k, n))
                    except RankError:
                        continue
                    if spec.dim == 0:
                        continue
                    assert bundles.is_ample(spec.bundle), (text, k, n)
                    chased = _chase_diamond(spec)
                    if not chased.fully_exact():
                        left_open.append((text, k, n))
                        continue
                    direct = hodge_numbers(spec)
                    assert direct.entries == chased.entries, (text, k, n)
                    assert direct.euler_columns == chased.euler_columns, (text, k, n)
                    compared += 1
        assert compared == 69
        assert left_open == [("O(1)+O(1)", 3, 6)]

    @pytest.mark.parametrize("text", ["UD", "Q", "QD*O(1)", "UD+O(1)"])
    def test_non_ample_takes_the_chase(self, text, monkeypatch):
        calls = []
        propagate = LinearSystem.propagate

        def counting(system):
            calls.append(system)
            return propagate(system)

        monkeypatch.setattr(LinearSystem, "propagate", counting)
        spec = ZeroLocusSpec(2, 5, parse_bundle(text, 2, 5))
        assert not bundles.is_ample(spec.bundle)
        assert hodge_numbers(spec).fully_exact()
        assert len(calls) == spec.dim + 1  # one system per column

    @pytest.mark.parametrize("text", ["O(1)", "UD*O(1)", "QD*O(2)", "UD*O(1)+QD*O(2)"])
    def test_ample_skips_the_chase(self, text, monkeypatch):
        monkeypatch.setattr(LinearSystem, "propagate", None)  # any call fails
        spec = ZeroLocusSpec(2, 5, parse_bundle(text, 2, 5))
        assert hodge_numbers(spec).fully_exact()

    @pytest.mark.parametrize(
        "k,n,text,diagonal,middle",
        [
            # the chase left h^{2,2} in [1..2] and h^{2,3} in [0..1]
            (2, 6, "O(1)+O(1)+O(1)", [1, 1, 2, 2, 1, 1], [0, 0, 1, 1, 0, 0]),
            (3, 6, "O(1)+O(1)", [1, 1, 2, 3, 3, 2, 1, 1], [0, 0, 0, 1, 1, 0, 0, 0]),
        ],
    )
    def test_linear_sections_turn_exact(self, k, n, text, diagonal, middle):
        d = hodge_numbers(ZeroLocusSpec(k, n, parse_bundle(text, k, n)))
        assert d.fully_exact()
        assert d.diagonal() == diagonal
        assert d.middle_row() == middle
        assert len(d.entries) == len(diagonal) + 2  # nothing else is nonzero


class TestDiamondInvariants:
    @pytest.mark.parametrize(
        "spec",
        [
            hyperplane(4),
            ZeroLocusSpec(2, 5, bundles.twist(bundles.quotient_dual(2, 5), 2)),
            ZeroLocusSpec(2, 6, bundles.twist(bundles.quotient_dual(2, 6), 2)),
            ZeroLocusSpec(3, 6, bundles.twist(bundles.tautological(3, 6), 2)),
            ZeroLocusSpec(1, 5, bundles.direct_sum(bundles.line(1, 5, 2), bundles.line(1, 5, 2))),
        ],
        ids=["P3-hyperplane", "CY3", "Y1-236", "Y2-236", "quadric-quadric-P4"],
    )
    def test_symmetries_and_euler(self, spec):
        d = hodge_numbers(spec)
        d.check_symmetries()
        d.check_euler_columns()
        assert d.fully_exact()
        # Hodge + Serre symmetry explicitly
        for p in range(d.dim + 1):
            for q in range(d.dim + 1):
                assert d.h(p, q) == d.h(q, p)
                assert d.h(p, q) == d.h(d.dim - p, d.dim - q)

    def test_euler_characteristic_consistency(self):
        spec = ZeroLocusSpec(2, 6, bundles.twist(bundles.quotient_dual(2, 6), 2))
        d = hodge_numbers(spec)
        total = sum(
            (-1) ** (p + q) * d.h(p, q)
            for p in range(d.dim + 1)
            for q in range(d.dim + 1)
        )
        assert total == d.euler_characteristic()


class TestClassicalHypersurfaces:
    @pytest.mark.parametrize(
        "n,text,want",
        [
            (3, "O(2)", [[1, 0], [0, 1]]),  # conic = P1
            (3, "O(4)", [[1, 3], [3, 1]]),  # genus-3 quartic curve
            (4, "O(4)", [[1, 0, 1], [0, 20, 0], [1, 0, 1]]),  # quartic K3
            (4, "O(3)", [[1, 0, 0], [0, 7, 0], [0, 0, 1]]),  # cubic surface
            (
                5,
                "O(3)",  # cubic threefold
                [[1, 0, 0, 0], [0, 1, 5, 0], [0, 5, 1, 0], [0, 0, 0, 1]],
            ),
            (
                5,
                "O(5)",  # quintic threefold
                [[1, 0, 0, 1], [0, 1, 101, 0], [0, 101, 1, 0], [1, 0, 0, 1]],
            ),
            (
                5,
                "O(2)+O(2)",  # degree-4 del Pezzo: P2 blown up in 5 points
                [[1, 0, 0], [0, 6, 0], [0, 0, 1]],
            ),
        ],
        ids=["conic", "quartic-curve", "K3", "cubic-surface", "cubic-3fold",
             "quintic-3fold", "del-pezzo-4"],
    )
    def test_textbook_values(self, n, text, want):
        from roofcalc.parser import parse_bundle

        spec = ZeroLocusSpec(1, n, parse_bundle(text, 1, n))
        d = hodge_numbers(spec)
        assert d.fully_exact()
        assert d.matrix() == want


def griffiths_middle_row(n: int, d: int) -> list[int]:
    """Middle Hodge row of a smooth degree-d hypersurface in P^n from the
    Jacobian-ring description: the primitive part of h^{n-1-q,q} is the
    coefficient of t^{(q+1)d - (n+1)} in ((1-t^{d-1})/(1-t))^{n+1}, and the
    center entry gains 1 from the hyperplane class when n-1 is even."""
    # coefficients of (1 + t + ... + t^{d-2})^{n+1}
    poly = [1]
    block = [1] * (d - 1)
    for _ in range(n + 1):
        out = [0] * (len(poly) + len(block) - 1)
        for i, a in enumerate(poly):
            for j, b in enumerate(block):
                out[i + j] += a * b
        poly = out
    row = []
    dim = n - 1
    for p in range(dim + 1):
        q = dim - p
        e = (q + 1) * d - (n + 1)
        h = poly[e] if 0 <= e < len(poly) else 0
        if dim % 2 == 0 and p == q:
            h += 1
        row.append(h)
    return row


class TestGriffithsOracle:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_hypersurface_middle_rows(self, n, d):
        spec = ZeroLocusSpec(1, n + 1, bundles.line(1, n + 1, d))
        diamond = hodge_numbers(spec)
        assert diamond.fully_exact()
        assert diamond.middle_row() == griffiths_middle_row(n, d), (n, d)


class TestGlobalGeneration:
    def test_rejects_non_globally_generated(self):
        with pytest.raises(RankError):
            ZeroLocusSpec(2, 5, bundles.quotient_dual(2, 5))  # needs the twist

    def test_rejects_overfull_rank(self):
        with pytest.raises(RankError):
            ZeroLocusSpec(1, 3, bundles.direct_sum(*[bundles.line(1, 3, 1)] * 3))


class TestVCohomology:
    def test_center_subtraction(self):
        y = hodge_numbers(ZeroLocusSpec(2, 6, bundles.twist(bundles.quotient_dual(2, 6), 2)))
        g = ambient_diamond(2, 6)
        assert v_cohomology(y, g) == [15, 672, 2269, 672, 15]

    def test_trivial_difference_is_zero(self):
        # a hyperplane's middle row matches the smaller projective space
        y = hodge_numbers(hyperplane(4))
        fake_ambient = ambient_diamond(1, 4)
        row = v_cohomology(y, fake_ambient)
        assert row == [0, 0, 0, 0]

    def test_injectivity_violation(self):
        y = HodgeDiamond(4)
        y.set_entry(2, 2, 1)  # below h^{2,2}(G(2,4)) = 2
        g = ambient_diamond(2, 4)
        with pytest.raises(InjectivityViolationError):
            v_cohomology(y, g)

    def test_ambiguity_error(self):
        y = HodgeDiamond(2)
        y.set_entry(1, 1, 1, 5)
        with pytest.raises(AmbiguityError):
            v_cohomology(y, ambient_diamond(1, 3))


class TestPairInvariants:
    def test_calabi_yau_case(self):
        inv = pair_invariants(3, 7)
        assert (inv.d1, inv.d2) == (8, 8)
        assert (inv.canonical_twist_1, inv.canonical_twist_2) == (0, 0)
        assert inv.cy

    def test_points_and_fano(self):
        inv = pair_invariants(1, 6)
        assert (inv.d1, inv.d2) == (0, 6)
        assert (inv.canonical_twist_1, inv.canonical_twist_2) == (3, -3)
        assert not inv.cy

    def test_general_type_fano(self):
        inv = pair_invariants(2, 6)
        assert (inv.d1, inv.d2) == (4, 6)
        assert (inv.canonical_twist_1, inv.canonical_twist_2) == (1, -1)

    def test_dimension_formula_matches_rank_count(self):
        for k, n in [(1, 5), (2, 5), (2, 6), (2, 7), (3, 7), (3, 8)]:
            inv = pair_invariants(k, n)
            s1, s2 = pair_specs(k, n)
            assert s1.dim == inv.d1
            assert s2.dim == inv.d2

    def test_domain(self):
        with pytest.raises(RankError):
            pair_invariants(3, 6)


class TestCheckPairTheorem:
    @pytest.mark.parametrize("k,n", [(1, 5), (2, 5), (2, 6)])
    def test_passes(self, k, n):
        rep = check_pair_theorem(k, n)
        assert rep.passed, rep.failures

    def test_shift_is_colevel(self):
        rep = check_pair_theorem(2, 6)
        assert rep.shift == 6 - 2 * 2 - 1 == 1
