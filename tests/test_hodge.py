import json
import random
import re
from collections import Counter
from math import factorial, prod

import pytest

from roofcalc import bundles, bwb, cli, hodge
from roofcalc.bwb import bott, tensor_cohomology
from roofcalc.chase import LinearSystem
from roofcalc.errors import (
    AmbiguityError,
    EmptyZeroLocusError,
    InconsistentDataError,
    InjectivityViolationError,
    RankError,
    RoofcalcError,
)
from roofcalc.hodge import (
    HodgeDiamond,
    ZeroLocusSpec,
    _chase_grid,
    _conormal_rows,
    _degree,
    _koszul_character,
    _lefschetz_grid,
    _symmetrise,
    ambient_diamond,
    check_pair_theorem,
    hodge_numbers,
    pair_specs,
    v_cohomology,
)
from roofcalc.parser import parse_bundle
from roofcalc.weights import enumerate_box

import sweep
from oracles import (
    brute_force_box,
    check_diamond,
    gaussian_binomial,
    q_integer,
    q_multiply,
)


def hyperplane(n):
    return ZeroLocusSpec(1, n + 1, bundles.line(1, n + 1, 1))


def hand_diamond(dim, entries, chis=None):
    """Diamond of dimension `dim`: the intervals `entries[(p, q)]`, zero
    elsewhere, with Euler columns `chis` (zero by default)."""
    grid = [[(0, 0)] * (dim + 1) for _ in range(dim + 1)]
    for (p, q), iv in entries.items():
        grid[p][q] = iv
    return HodgeDiamond(grid, chis or [0] * (dim + 1))


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
        assert all(
            iv == (0, 0) for p, row in enumerate(d.grid) for q, iv in enumerate(row) if p != q
        )

    def test_diagonal_counts_box_partitions(self):
        for n in range(2, 16):
            for k in range(1, n):
                d = k * (n - k)
                if n <= 8:
                    sizes = Counter(sum(w) for w in brute_force_box(k, n - k))
                    want = [sizes[p] for p in range(d + 1)]
                else:  # too many tuples to filter; enumerate the box
                    sizes = Counter(sum(w) for w in enumerate_box(k, n - k))
                    want = [sizes[p] for p in range(d + 1)]
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
        assert hodge_numbers(spec).h(0, 0) == 21

    def test_single_hyperplane_point(self):
        assert hodge_numbers(ZeroLocusSpec(1, 2, bundles.line(1, 2, 1))).h(0, 0) == 1

    def test_bezout(self):
        conic_line = bundles.direct_sum(
            bundles.line(1, 3, 2), bundles.line(1, 3, 1)
        )
        assert hodge_numbers(ZeroLocusSpec(1, 3, conic_line)).h(0, 0) == 2


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
        spec = ZeroLocusSpec(k, n, parse_bundle(text, k, n))
        assert _degree(spec, _koszul_character(spec)) == degree


def koszul_data_lr(spec, items):
    """The Koszul totals by Littlewood-Richardson: put the conormal term's
    items in canonical form, expand each wedge^s F* (x) base into
    irreducibles and run Bott on every one.  The reference for
    `tensor_cohomology` on the Koszul character, which never expands the
    tensor."""
    k = spec.k
    base = bundles._expr(k, spec.n, [((seq[:k], seq[k:]), m) for seq, m in items])
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
        walk = bwb._walk

        def recording_walk(items, character):
            cross = character.cross
            for mult, gaps, fixed, keep, live in walk(items, character):
                assert fixed > 0  # blocks are dominant, so inactive factors are positive
                for offsets in live:
                    factors = [g + o for g, o in zip(gaps, offsets)]
                    # the active same-block factors follow the cross ones
                    if any(f < 0 for f in factors[cross:]):
                        seen["reordered"] += 1
                        # the Vandermonde's sign is (-1)^(within-block + cross-block inversions)
                        degree = sum(f < 0 for f in factors[:cross])
                        seen["odd"] += (prod(factors) < 0) != (degree & 1)
                yield mult, gaps, fixed, keep, live

        monkeypatch.setattr(bwb, "_walk", recording_walk)
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
                koszul = _koszul_character(spec)
                layers = Counter(koszul.weights)
                seen["shared"] += any(count > 1 for count in layers.values())
                for j, row in enumerate(_conormal_rows(spec, spec.dim)):
                    for t, base in enumerate(row):
                        totals = tensor_cohomology(base, koszul)
                        chi = sum(-h if m & 1 else h for m, h in totals.items())
                        assert (totals, chi) == koszul_data_lr(spec, base), (
                            text, spec.k, spec.n, j, t
                        )
                        checked += 1
        assert checked > 100
        # some weight lies in two layers wedge^s F*
        assert seen["shared"] > 0
        # the sign path: terms whose blocks need reordering, some an odd number of times
        assert seen["reordered"] > 0 and seen["odd"] > 0

    def test_euler_kernel_matches_vandermonde_reference(self):
        # the Euler kernel before it split the Vandermonde into inactive and
        # active factors: sum c * V(lam + nu + rho) over every item and every
        # weight nu of lambda_{-1} F*, repeats included (V = 0 there), over
        # 0! 1! ... (n-1)!
        def reference(spec, items, layers):
            n = spec.n
            rho = range(n - 1, -1, -1)
            num = sum(
                mult * (-1) ** s * c * bwb._vandermonde(
                    tuple(a + b + r for a, b, r in zip(seq, nu, rho))
                )
                for seq, mult in items
                for s, layer in enumerate(layers)
                for nu, c in layer.items()
            )
            chi, rest = divmod(num, prod(map(factorial, range(n))))
            assert rest == 0
            return chi

        specs = [*pair_specs(2, 5), *pair_specs(3, 7)]
        rng = random.Random(20261020)
        ambients = [(k, n) for n in range(3, 7) for k in range(1, n)]
        for text in self.BUNDLES:
            found = []
            for k, n in rng.sample(ambients, len(ambients)):
                try:
                    found.append(ZeroLocusSpec(k, n, parse_bundle(text, k, n)))
                except RankError:
                    continue
            specs += found[:2]
        shapes = Counter()
        checked = 0
        for spec in specs:
            koszul = _koszul_character(spec)
            layers = bundles.wedge_characters(bundles.dual(spec.bundle))
            k, n = spec.k, spec.n
            if len(koszul.pairs) == n * (n - 1) // 2:
                shapes["no inactive pair"] += 1
            if len(koszul.pairs) == k * (n - k) < n * (n - 1) // 2:
                shapes["cross pairs only"] += 1
            for row in _conormal_rows(spec, spec.dim):
                for items in row:
                    assert bwb.euler_characteristic(items, koszul) == reference(
                        spec, items, layers
                    ), (str(spec.bundle), k, n)
                    checked += 1
        assert checked > 300
        # sums touching both blocks, and O(t) sums, whose character moves no
        # same-block pair
        assert shapes["no inactive pair"] > 0 and shapes["cross pairs only"] > 0

    @pytest.mark.parametrize("k, n", [(1, 3), (2, 5)])
    def test_huge_twist(self, k, n):
        # collision bitsets grow with the number of weights, not their entries
        t = 10**9
        spec = ZeroLocusSpec(k, n, bundles.line(k, n, t))
        koszul = _koszul_character(spec)
        records = len(koszul.weights)
        for table in koszul.dead:
            assert len(table) <= records
            assert all(0 < bitset < 1 << records for bitset in table.values())
        d = hodge_numbers(spec)
        # h^{0,dim} = h^0(K_X) = h^0(O(t - n)) on G(k,n), as O(-n) is acyclic
        assert d.h(0, d.dim) == bwb.gl_dimension((t - n,) * k + (0,) * (n - k))
        if n == 3:
            assert d.h(0, 1) == (t - 1) * (t - 2) // 2  # a plane curve of degree t


class TestConormalRows:
    @pytest.mark.parametrize(
        "k, n, text, top",
        [
            # Y1 of the (4,9) pair: Lefschetz route, columns p <= d/2 = 7
            (4, 9, "QD*O(2)", 7),
            # not ample: chase route, every column p <= d = 8
            (3, 7, "UD+O(1)", 8),
            # three atoms: one fold gives every Sym^m F*, m <= d = 9
            (3, 9, "UD+UD+UD", 9),
        ],
    )
    def test_each_power_built_once(self, monkeypatch, k, n, text, top):
        spec = ZeroLocusSpec(k, n, parse_bundle(text, k, n))
        calls = Counter()
        for name in ("sym_powers", "cotangent_power"):
            def counted(*args, _fn=getattr(bundles, name), _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(bundles, name, counted)
        hodge_numbers(spec)
        assert calls["sym_powers"] == 1
        assert 0 < calls["cotangent_power"] <= top + 1

    def test_rows_are_raw_block_products(self, monkeypatch):
        # each conormal term comes straight from the block products, never
        # through a canonical BundleExpr; F is one atom, so nothing folds
        def refuse(*args):
            raise AssertionError("bundles.tensor called")

        monkeypatch.setattr(bundles, "tensor", refuse)
        for spec in pair_specs(3, 7):
            hodge_numbers(spec)
            for row in _conormal_rows(spec, spec.dim):
                for items in row:
                    keys = [seq for seq, _ in items]
                    assert len(set(keys)) == len(keys)  # merged
                    assert all(len(seq) == spec.n and m > 0 for seq, m in items)

    def test_wedge_characters_folded_once(self, monkeypatch):
        # the degree check and the chase read one Koszul character
        calls = []
        fold = bundles.wedge_characters

        def counted(a):
            calls.append(a)
            return fold(a)

        monkeypatch.setattr(bundles, "wedge_characters", counted)
        spec = ZeroLocusSpec(3, 7, parse_bundle("UD+O(1)", 3, 7))
        assert not bundles.is_ample(spec.bundle)  # the chase route
        hodge_numbers(spec)
        assert len(calls) == 1


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
                    koszul = _koszul_character(spec)
                    chased = _chase_grid(spec, koszul)
                    if any(lo != hi for row in chased[0] for lo, hi in row):
                        left_open.append((text, k, n))
                        continue
                    assert _lefschetz_grid(spec, koszul) == chased, (text, k, n)
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
        # one system per column, then one for the symmetry fixpoint
        assert len(calls) == spec.dim + 2

    @pytest.mark.parametrize("text", ["O(1)", "UD*O(1)", "QD*O(2)", "UD*O(1)+QD*O(2)"])
    def test_ample_skips_the_chase(self, text, monkeypatch):
        monkeypatch.setattr(LinearSystem, "propagate", None)  # any call fails
        spec = ZeroLocusSpec(2, 5, parse_bundle(text, 2, 5))
        assert hodge_numbers(spec).fully_exact()

    def test_negative_middle_entry_raises(self, monkeypatch):
        # a quadric surface in P^3 has chi_1 = -2; with its sign flipped the
        # middle entry h^{1,1} would be -2
        spec = ZeroLocusSpec(1, 4, bundles.line(1, 4, 2))
        monkeypatch.setattr(hodge, "_euler_columns", lambda spec, koszul, top: [1, 2])
        with pytest.raises(InconsistentDataError, match=r"h\^\{1,1\} = -2 < 0"):
            _lefschetz_grid(spec, _koszul_character(spec))

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
        # nothing else is nonzero
        assert sum(iv != (0, 0) for row in d.grid for iv in row) == len(diagonal) + 2


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
        check_diamond(d.grid, d.euler_columns)
        assert d.fully_exact()
        # Hodge + Serre symmetry explicitly
        for p in range(d.dim + 1):
            for q in range(d.dim + 1):
                assert d.h(p, q) == d.h(q, p)
                assert d.h(p, q) == d.h(d.dim - p, d.dim - q)

    def test_hodge_asymmetry_raises(self):
        d = hand_diamond(1, {(0, 0): (1, 1), (0, 1): (1, 1), (1, 1): (1, 1)})
        with pytest.raises(AssertionError, match="Hodge symmetry"):
            check_diamond(d.grid, d.euler_columns)

    def test_serre_asymmetry_raises(self):
        d = hand_diamond(2, {(0, 0): (1, 1), (2, 2): (2, 2)})
        with pytest.raises(AssertionError, match="Serre symmetry"):
            check_diamond(d.grid, d.euler_columns)

    @pytest.mark.parametrize("h22", [(1, 3), (0, 3)])
    def test_symmetries_skip_inexact_pairs(self, h22):
        # chi_0 = 1 and chi_2 = 1 or 0 keep the Euler columns reachable
        d = hand_diamond(2, {(0, 0): (1, 1), (2, 2): h22}, chis=[1, 0, 1])
        check_diamond(d.grid, d.euler_columns)

    def test_unreachable_euler_column_raises(self):
        # column 0 sums to a value in [1, 2]; chi_0 = 5 is out of reach
        d = hand_diamond(1, {(0, 0): (1, 2), (1, 1): (1, 1)}, chis=[5, 0])
        with pytest.raises(AssertionError, match="Euler column 0"):
            check_diamond(d.grid, d.euler_columns)


def reference_symmetrise(grid, chis):
    """The hand-written fixpoint `_symmetrise` replaced: rounds of interval
    intersections for positivity, Hodge and Serre symmetry and the Euler
    columns until a round changes nothing."""
    d = len(grid) - 1

    def column_range(column, skip):
        lo = hi = 0
        for q, (a, b) in enumerate(column):
            if q == skip:
                continue
            lo, hi = (lo + a, hi + b) if q % 2 == 0 else (lo - b, hi - a)
        return lo, hi

    while True:
        changed = False

        def refine(p, q, new):
            nonlocal changed
            merged = max(grid[p][q][0], new[0]), min(grid[p][q][1], new[1])
            if merged[0] > merged[1]:
                raise ArithmeticError(f"inconsistent Hodge data at h^{{{p},{q}}}")
            if merged != grid[p][q]:
                grid[p][q] = merged
                changed = True

        for p in range(d + 1):
            refine(p, p, (1, grid[p][p][1]))
        for p in range(d + 1):
            for q in range(d + 1):
                refine(p, q, grid[q][p])
                refine(p, q, grid[d - p][d - q])
        for p in range(d + 1):
            for q0 in range(d + 1):
                # (-1)^{q0} h_{p,q0} = chi_p - sum_{q != q0} (-1)^q h_{p,q}
                lo, hi = column_range(grid[p], q0)
                chi = chis[p]
                bound = (chi - hi, chi - lo) if q0 % 2 == 0 else (lo - chi, hi - chi)
                refine(p, q0, (max(bound[0], 0), bound[1]))
        if not changed:
            return


def random_diamond(rng):
    """A random integer diamond with Hodge and Serre symmetry and
    h^{p,p} >= 1, and its exact Euler columns."""
    d = rng.randint(1, 6)
    h = [[None] * (d + 1) for _ in range(d + 1)]
    for p in range(d + 1):
        for q in range(d + 1):
            if h[p][q] is None:
                v = rng.randint(int(p == q), 4)
                for a, b in ((p, q), (q, p), (d - p, d - q), (d - q, d - p)):
                    h[a][b] = v
    return h, [sum((-1) ** q * v for q, v in enumerate(row)) for row in h]


class TestSymmetryFixpoint:
    @staticmethod
    def outcome(fixpoint, grid, chis):
        grid = [list(row) for row in grid]
        try:
            fixpoint(grid, chis)
        except ArithmeticError:
            return "raised", None
        return "grid", grid

    def test_matches_reference(self):
        kinds = Counter()
        for seed in range(2000):
            rng = random.Random(seed)
            h, chis = random_diamond(rng)
            # widened around each entry; a chase interval can start below 0
            grid = [
                [(v - rng.choice([0, 0, 1, 3]), v + rng.choice([0, 0, 1, 3])) for v in row]
                for row in h
            ]
            perturbed = seed % 5 == 0
            if perturbed:
                # chi_p off by one breaks Serre duality chi_{d-p} = (-1)^d chi_p
                p = rng.choice([p for p in range(len(h)) if 2 * p != len(h) - 1])
                chis[p] += rng.choice([-1, 1])
            kind, got = self.outcome(_symmetrise, grid, chis)
            assert (kind, got) == self.outcome(reference_symmetrise, grid, chis), seed
            kinds[perturbed, kind] += 1
            kinds["narrowed"] += kind == "grid" and got != grid
            if not perturbed:
                assert kind == "grid", seed
                assert all(
                    lo <= v <= hi for row, vs in zip(got, h) for (lo, hi), v in zip(row, vs)
                ), seed
        # most consistent diamonds narrow; most perturbed ones are caught,
        # the rest only where intervals cannot see the contradiction
        assert kinds["narrowed"] >= 1500 and kinds[True, "raised"] >= 350, kinds

    def test_empty_box_raises(self):
        with pytest.raises(InconsistentDataError, match="empty box"):
            _symmetrise([[(0, 0)]], [0])  # h^{0,0} >= 1


def test_grassmannian_duality():
    """G(k,n) = G(n-k,n) swaps U* with Q and U with Q*: across the sweep,
    F and its image F' have the same grid and Euler columns, or raise the
    same error class.  The two sides reach the chase through different LR
    shapes and collision layouts."""
    results = sweep.outcomes()
    pairs = 0
    for key, result in results.items():
        k, n, _ = key
        if not 2 <= k <= n - 2:
            continue
        image = results[sweep.dual_key(key)]
        if isinstance(result, RoofcalcError):
            assert type(image) is type(result), sweep.label(key)
        else:
            assert (image.grid, image.euler_columns) == (
                result.grid,
                result.euler_columns,
            ), sweep.label(key)
        pairs += 1
    assert pairs == 328


def test_every_diamond_obeys_the_theorems():
    """Hodge symmetry, Serre duality and the Euler columns hold where each
    route writes its grid, and nothing in the package checks them again;
    the oracle of tests/oracles.py checks them on every diamond of the
    n <= 6 sweep (chase route), of the paper's pairs and of hypersurfaces
    (Lefschetz route)."""
    diamonds = [d for d in sweep.outcomes().values() if isinstance(d, HodgeDiamond)]
    assert len(diamonds) == 309
    for k, n in [(1, 5), (1, 6), (2, 5), (2, 6), (3, 7), (4, 9)]:
        diamonds += map(hodge_numbers, pair_specs(k, n))
    # degree d in P^2..P^5, and the cubics of dimension 18, 20 and 22
    hypersurfaces = [(n, d) for n in range(3, 7) for d in range(2, 6)]
    hypersurfaces += [(20, 3), (22, 3), (24, 3)]
    for n, degree in hypersurfaces:
        diamonds.append(hodge_numbers(ZeroLocusSpec(1, n, bundles.line(1, n, degree))))
    for d in diamonds:
        try:
            check_diamond(d.grid, d.euler_columns)
        except AssertionError as exc:
            pytest.fail(f"{d.meta['bundle']} on {d.meta['ambient']}: {exc}")


def known_geometry():
    """(label, G(k,n), bundle, Poincare polynomial of its zero locus), the
    polynomials from tests/oracles.py alone: O(1) on G(2,2m) cuts out the
    symplectic Grassmannian IG(2,2m), [2m-2]_q [m]_{q^2}; QD*O(1) cuts out
    P^2 x P^2 on G(2,6), [3]_q^2, the adjoint G2 variety G2/P2 on G(2,7),
    [6]_q, and one point on G(1,n) for n odd; UD on G(k,n) cuts out
    G(k,n-1) and Q cuts out G(k-1,n-1), Gaussian binomials."""
    cases = [
        (f"IG(2,{2 * m})", 2, 2 * m, "O(1)", q_multiply(q_integer(2 * m - 2), q_integer(m, 2)))
        for m in range(3, 7)
    ]
    cases.append(("P2 x P2", 2, 6, "QD*O(1)", q_multiply(q_integer(3), q_integer(3))))
    cases.append(("G2/P2", 2, 7, "QD*O(1)", q_integer(6)))
    cases += [(f"point in G(1,{n})", 1, n, "QD*O(1)", (1,)) for n in (5, 7, 9)]
    for k in range(1, 5):
        for n in range(k + 1, 10):
            cases.append((f"Z(UD) on G({k},{n})", k, n, "UD", gaussian_binomial(n - 1, k)))
            cases.append((f"Z(Q) on G({k},{n})", k, n, "Q", gaussian_binomial(n - 1, k - 1)))
    return cases


def test_known_geometry():
    # each zero locus is homogeneous, so its diamond is its Poincare
    # polynomial on the diagonal and exact zeros everywhere else
    for label, k, n, text, poincare in known_geometry():
        got = hodge_numbers(ZeroLocusSpec(k, n, parse_bundle(text, k, n)))
        dim = len(poincare) - 1
        want = [
            [(poincare[p],) * 2 if p == q else (0, 0) for q in range(dim + 1)]
            for p in range(dim + 1)
        ]
        assert got.grid == want, label


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_empty_zero_locus(n):
    # a section of Q*(1) on P(V) = G(1,n) is a 2-form on V and its zero
    # locus is P(kernel); a general 2-form on V of even dimension n has none
    spec = ZeroLocusSpec(1, n, parse_bundle("QD*O(1)", 1, n))
    with pytest.raises(EmptyZeroLocusError, match="zero locus is empty"):
        hodge_numbers(spec)


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
        assert [[lo for lo, _ in row] for row in d.grid] == want


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
        y = hand_diamond(4, {(2, 2): (1, 1)})  # below h^{2,2}(G(2,4)) = 2
        g = ambient_diamond(2, 4)
        with pytest.raises(InjectivityViolationError):
            v_cohomology(y, g)

    def test_ambiguity_error(self):
        y = hand_diamond(2, {(1, 1): (1, 5)})
        with pytest.raises(AmbiguityError):
            v_cohomology(y, ambient_diamond(1, 3))


class TestPairInvariants:
    """dim Y1, dim Y2 and the co-level s, read off the pair's report: the
    canonical twists are K_{Y1} = O(s) and K_{Y2} = O(-s)."""

    def test_calabi_yau_case(self):
        rep = check_pair_theorem(3, 7)
        assert (rep.diamond1.dim, rep.diamond2.dim, rep.shift) == (8, 8, 0)

    def test_points_and_fano(self):
        rep = check_pair_theorem(1, 6)
        assert (rep.diamond1.dim, rep.diamond2.dim, rep.shift) == (0, 6, 3)

    def test_general_type_fano(self):
        rep = check_pair_theorem(2, 6)
        assert (rep.diamond1.dim, rep.diamond2.dim, rep.shift) == (4, 6, 1)

    def test_domain(self):
        for k, n in [(3, 6), (0, 5)]:
            message = f"pair needs n >= 2k+1, got (k,n)=({k},{n})"
            with pytest.raises(RankError, match=re.escape(message)):
                pair_specs(k, n)


class TestCheckPairTheorem:
    @pytest.mark.parametrize("k,n", [(1, 5), (2, 5), (2, 6)])
    def test_passes(self, k, n):
        rep = check_pair_theorem(k, n)
        assert rep.passed, rep.failures

    def test_shift_is_colevel(self):
        rep = check_pair_theorem(2, 6)
        assert rep.shift == 6 - 2 * 2 - 1 == 1

    # the (2,6) pair: d1 = 4, d2 = 6, s = 1; Y1's middle row is
    # (15,672,2271,672,15), Y2's (0,15,672,2272,672,15,0)
    @staticmethod
    def perturb(monkeypatch, edits):
        """Make hodge_numbers return the (2,6) pair's diamonds with the
        entries edits[(y, p, q)] of Y1 (y = 1) and Y2 (y = 2) overwritten."""
        real = hodge.hodge_numbers
        specs = pair_specs(2, 6)

        def perturbed(spec):
            d = real(spec)
            y = specs.index(spec) + 1
            grid = [list(row) for row in d.grid]
            for (which, p, q), iv in edits.items():
                if which == y:
                    grid[p][q] = iv
            return HodgeDiamond(grid, d.euler_columns, d.meta)

        monkeypatch.setattr(hodge, "hodge_numbers", perturbed)

    @pytest.mark.parametrize(
        "edits,failures",
        [
            ({(1, 0, 4): (16, 16)}, ["v-rows differ at p=0: 16 != 15"]),
            ({(2, 2, 4): (671, 671)}, ["v-rows differ at p=1: 672 != 671"]),
            (
                {(2, 6, 0): (1, 1)},
                ["v-cohomology of Y2 nonzero at p=6 outside the shifted band"],
            ),
            (
                {(2, 0, 6): (1, 1)},
                [
                    "v-cohomology of Y2 nonzero at p=0 outside the shifted band",
                    "co-level violated: h^{0,6}(Y2) != 0",
                ],
            ),
            (
                {(2, 1, 5): (0, 0)},
                ["v-rows differ at p=0: 15 != 0", "h^{1,5}(Y2) = 0 at the co-level"],
            ),
            ({(1, 2, 2): (2271, 2272)}, ["h^{2,2} only known in [2271,2272]"]),
        ],
        ids=["middle+1", "middle-1", "outside-band", "below-colevel", "colevel-zero",
             "inexact"],
    )
    def test_reports_each_failure(self, monkeypatch, edits, failures):
        self.perturb(monkeypatch, edits)
        rep = check_pair_theorem(2, 6)
        assert not rep.passed
        assert rep.failures == failures

    def test_pair_exits_5_on_a_failure(self, monkeypatch, capsys):
        self.perturb(monkeypatch, {(1, 0, 4): (16, 16)})
        assert cli.main(["pair", "--k", "2", "--n", "6"]) == cli.EXIT_MISMATCH == 5
        out = json.loads(capsys.readouterr().out)["outputs"]
        assert out["failures"] == ["v-rows differ at p=0: 16 != 15"]
        assert not out["middleRowsMatch"] and not out["grothendieckIdentityHolds"]
        # E(Y1) gains v^4, and the identity subtracts (uv)^3 E(Y1)
        assert out["residual"] == "-1*u^3v^7"
