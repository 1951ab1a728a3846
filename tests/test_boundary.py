"""Validation happens where values enter the library; code deriving new
values from checked ones trusts them."""

import json
import re
import time
from math import prod

import pytest

from roofcalc import bundles, bwb, lr, motive, roofs, weights, windows
from roofcalc.errors import (
    AmbientMismatchError,
    DominanceError,
    MalformedContractionError,
    PlethysmRequiredError,
    RankError,
    RoofcalcError,
    WorkLimitError,
)
from roofcalc.hodge import ZeroLocusSpec, _koszul_character, pair_specs
from roofcalc.lr import lr_double_product
from roofcalc.parser import parse_bundle
from roofcalc.weights import DoubleWeight

from test_parser_cli import run_cli, run_cli_error


@pytest.fixture
def dominance_checks(monkeypatch):
    """Counts every `check_dominant` call, wherever the name is bound."""
    calls = [0]
    original = weights.check_dominant

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    for module in (weights, lr, bwb):
        monkeypatch.setattr(module, "check_dominant", counted)
    return calls


class TestInsideTrustsItsInputs:
    def test_wrapper_sees_the_public_constructor(self, dominance_checks):
        DoubleWeight((1, 0), (0, 0, 0))
        assert dominance_checks[0] == 2

    def test_derived_expressions_are_not_rechecked(self, dominance_checks):
        a = parse_bundle("S[2,1]UD + QD*O(1) + S[1,1]Q", 2, 5)
        b = parse_bundle("UD*QD + O(2) + S[2]U", 2, 5)
        atoms = parse_bundle("QD*O(1) + UD + O(2) + U", 2, 5)
        w1 = DoubleWeight((3, 1), (2, 1, 0))
        w2 = DoubleWeight((2, -1), (1, 1, -2))
        assert len(a.terms) > 1 and len(b.terms) > 1
        dominance_checks[0] = 0

        product = bundles.tensor(a, b)
        bundles.dual(a)
        bundles.twist(a, 2)
        power = bundles.sym_power(atoms, 3)
        omega = bundles.cotangent_power(2, 5, 3)
        lr_double_product(w1, w2)
        assert dominance_checks[0] == 0
        for expr in (product, power, omega):
            assert expr.terms
            assert all(
                weights.is_dominant(w.upper) and weights.is_dominant(w.lower)
                for w, _ in expr.terms
            )


class TestBoundaryContract:
    def test_public_constructors_still_check(self):
        with pytest.raises(DominanceError):
            DoubleWeight((0, 1), (0,))
        with pytest.raises(RankError, match=re.escape("need 1 <= k < n, got (0,3)")):
            bundles.zero(0, 3)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["bott", "--k", "2", "--n", "5", "--weight", "0,1|0,0,0"],
                "upper block (0, 1) is not non-increasing",
            ),
            (
                ["lr", "--rank", "2", "--a", "0,1", "--b", "1,0"],
                "weight (0, 1) is not non-increasing",
            ),
            (
                ["lr", "--rank", "3", "--a", "1,0", "--b", "1,0"],
                "rank mismatch: len((1, 0))=2, len((1, 0))=2, rank=3",
            ),
            (
                ["hodge", "--k", "2", "--n", "5", "--bundle", "S[0,1]QD"],
                "lower block (0, 1, 0) is not non-increasing",
            ),
        ],
    )
    def test_cli_messages(self, capsys, argv, message):
        assert run_cli_error(capsys, *argv) == (3, f"precondition violated: {message}")


class TestPublicConstructorErrors:
    """Each precondition of a public constructor raises its own class with
    its own message."""

    @pytest.mark.parametrize(
        "call, cls, message",
        [
            (
                lambda: bundles.irreducible(2, 6, (1, 0), (0, 0, 0)),
                AmbientMismatchError, "(1,0|0,0,0) does not live on G(2,6)",
            ),
            (
                lambda: bundles.direct_sum(bundles.line(2, 5, 1), bundles.line(2, 6, 1)),
                AmbientMismatchError, "direct sum across different ambients",
            ),
            (
                lambda: bundles.sym_powers(bundles.line(2, 5, 1), -1),
                RankError, "power must be >= 0, got -1",
            ),
            (
                lambda: motive.epoly_projective(-2),
                RankError, "projective space needs m >= -1, got -2",
            ),
            (
                lambda: motive.epoly_flag(2, 3),
                RankError, "flag F(k,k+1,n) needs 1 <= k < k+1 < n, got (2,3)",
            ),
            (
                lambda: roofs.simple_diagram("A", 3).with_marks({5}),
                RankError, "marks {5} not among nodes of A3",
            ),
            (lambda: roofs.simple_diagram("A", 0), RankError, "A needs rank >= 1"),
            (lambda: roofs.simple_diagram("G", 3), RankError, "G needs rank 2"),
            (lambda: roofs.simple_diagram("X", 3), RankError, "unknown family 'X'"),
            (lambda: roofs.product_aa(0, 2), RankError, "product factors need rank >= 1"),
            (
                lambda: roofs.erase_and_component(roofs.simple_diagram("A", 3), {1}, set()),
                MalformedContractionError, "need at least one kept node",
            ),
            (lambda: weights.check_dominant(()), RankError, "weight must have length >= 1"),
            (
                lambda: weights.enumerate_box(2, -1),
                RankError, "box cap must be >= 0, got b=-1",
            ),
            (
                lambda: windows.kapranov_collection(3, 3),
                RankError, "need 1 <= k < n, got (3,3)",
            ),
            (
                lambda: windows.check_tilting_plus(5, -1),
                RankError, "m_max must be >= 0, got -1",
            ),
        ],
    )
    def test_class_and_message(self, call, cls, message):
        with pytest.raises(RoofcalcError) as caught:
            call()
        assert (type(caught.value), str(caught.value)) == (cls, message)

    def test_schur_label_needs_a_block(self, capsys):
        code, line = run_cli_error(capsys, "hodge", "--k", "2", "--n", "5", "--bundle", "S[1]X")
        assert (code, line) == (
            2, "parse error: expected U, UD, Q or QD after the Schur label (at offset 4)"
        )


class TestAtomsOnlyZeroLocus:
    def test_spec_rejects_non_atom_summand(self):
        f = bundles.sym_power(bundles.tautological_dual(2, 5), 2)
        with pytest.raises(PlethysmRequiredError):
            ZeroLocusSpec(2, 5, f)

    def test_cli_names_the_users_summand(self, capsys):
        code, line = run_cli_error(capsys, "hodge", "--k", "2", "--n", "5", "--bundle", "Sym^2(UD)")
        assert code == 3
        assert "(2,0|0,0,0)" in line and "(0,-2|" not in line
        assert "U, UD, Q, QD, O(t)" in line

    def test_label_longer_than_its_block(self, capsys):
        code, line = run_cli_error(
            capsys, "hodge", "--k", "2", "--n", "5", "--bundle", "S[1,1,1]UD"
        )
        assert (code, line) == (
            3, "precondition violated: label (1, 1, 1) longer than block rank 2"
        )

    def test_zero_bundle_is_named_0(self, capsys):
        # the third wedge power of a rank-2 bundle is 0: the zero locus is all of G(2,5)
        code, out = run_cli(capsys, "hodge", "--k", "2", "--n", "5", "--bundle", "Wedge^3(UD)")
        assert code == 0
        assert json.loads(out)["outputs"]["diamond"]["meta"]["bundle"] == "0"


class TestSymOfASumBeforeTheFold:
    def test_huge_power_exits_at_once(self, capsys):
        t0 = time.perf_counter()
        code, line = run_cli_error(
            capsys, "hodge", "--k", "2", "--n", "5", "--bundle", "Sym^2000(UD+Q)"
        )
        assert time.perf_counter() - t0 < 1
        assert code == 3
        # C(5 + 1999, 2000): UD + Q has rank 5 on G(2,5)
        assert line == "precondition violated: rank 670005837501 of Sym^2000 exceeds dim G = 6"

    @pytest.mark.parametrize("text", ["Sym^2(UD+Q)", "Sym^3(UD+Q)", "Sym^9(UD)", "Sym^9(O(1)+O(2))"])
    def test_small_powers_still_parse(self, text):
        # two atoms in degree 2 or 3 split at most C(4,3) = 4 <= 6 ways; one
        # atom never folds; a sum of line bundles is not screened
        assert bundles.rank(parse_bundle(text, 2, 5)) > 0

    def test_wrapped_power_is_rejected_too(self):
        # Sym^0 of the power would be O, but the power is never built
        with pytest.raises(RankError, match="exceeds dim G = 6"):
            parse_bundle("Sym^0(Sym^7(UD+Q))", 2, 5)


class TestWorkLimit:
    @pytest.mark.parametrize("atom", ["O(1)", "O(0)"])  # Lefschetz and chase routes
    def test_1200_summands_exit_at_once(self, capsys, atom):
        # CPU time of this process, so a loaded machine does not fail it
        t0 = time.process_time()
        code, line = run_cli_error(
            capsys, "hodge", "--k", "1", "--n", "1300", "--bundle", "+".join([atom] * 1200)
        )
        assert time.process_time() - t0 < 10
        assert code == 3
        assert line.startswith("precondition violated: Koszul stage too large")

    @pytest.mark.parametrize("n, passes", [(19, True), (20, False), (200, False)])
    def test_limit_checked_before_the_character_is_built(self, monkeypatch, n, passes):
        # Q*(2) on P^(n-1) measures n^2 2^(n-1): 9.5e7 at n = 19, 2.1e8 at
        # n = 20; lambda_{-1} of its dual has 2^(n-1) weights
        class Built(Exception):
            pass

        def build(a):
            raise Built

        monkeypatch.setattr(bundles, "wedge_characters", build)
        spec, _ = pair_specs(1, n)
        with pytest.raises(Built if passes else WorkLimitError):
            _koszul_character(spec)

    def test_paper_and_benchmark_inputs_stay_below(self):
        specs = [spec for k in range(1, 8) for spec in pair_specs(k, 2 * k + 1)]
        specs += pair_specs(4, 10) + pair_specs(2, 6)
        specs += [ZeroLocusSpec(1, n, bundles.line(1, n, 3)) for n in (20, 22, 24)]
        specs += [  # repeated and mixed atoms
            ZeroLocusSpec(k, n, parse_bundle(text, k, n))
            for k, n, text in [
                (3, 9, "UD+UD+UD"),
                (2, 5, "O(1)+O(1)+O(2)"),
                (3, 7, "U*O(1)+O(2)"),
                (2, 6, "QD*O(1)+QD*O(1)"),
                (3, 7, "UD+UD*O(1)+O(1)"),
            ]
        ]
        for spec in specs:
            # the measure's product bounds the character's records
            bound = prod(
                (m + 1) ** (bwb.gl_dimension(w.upper) * bwb.gl_dimension(w.lower))
                for w, m in spec.bundle.terms
            )
            assert 0 < len(_koszul_character(spec).weights) <= bound, spec

    def test_ambient_checked_before_the_text(self, capsys):
        for k, n in [(0, 1), (-1, 3), (3, 3)]:
            code, line = run_cli_error(
                capsys, "hodge", f"--k={k}", f"--n={n}", "--bundle", "U"
            )
            assert (code, line) == (
                3, f"precondition violated: need 1 <= k < n, got ({k},{n})"
            )
