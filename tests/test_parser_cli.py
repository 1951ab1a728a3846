import json

import pytest

from roofcalc import bundles
from roofcalc.cli import main
from roofcalc.errors import ParseError, PlethysmRequiredError
from roofcalc.parser import MAX_DEPTH, parse_bundle

ROUND_TRIP_CORPUS = [
    "U", "UD", "Q", "QD", "O(0)", "O(1)", "O(-3)",
    "QD*O(2)", "U*O(2)", "UD*QD", "U*Q",
    "O(1)+O(1)", "O(1)+O(2)+O(3)",
    "S[2,1]UD", "S[2,1]QD", "S[1,1]U", "S[3,1,1]Q",
    "S[2,-1]UD", "S[0,0,-2]QD",
    "Sym^2(QD)", "Sym^3(U)", "Sym^0(QD)",
    "Wedge^2(QD)", "Wedge^2(U*O(1))", "Wedge^1(O(4))",
    "Dual(QD)", "Dual(S[2,1]UD)", "Dual(U*O(2))",
    "Sym^2(QD*O(2))*UD", "(U+Q)*O(1)", "Sym^2(O(1)+O(2))",
    "QD*QD+U*UD", "Dual(Sym^2(QD))*O(1)",
]


def render_bundle(expr):
    """A literal that parse_bundle maps back to the nonzero `expr`: each
    term S^upper U* (x) S^lower Q* as often as its multiplicity."""
    parts = []
    for w, mult in expr.terms:
        up = ",".join(str(e) for e in w.upper)
        lo = ",".join(str(e) for e in w.lower)
        parts.extend([f"S[{up}]UD*S[{lo}]QD"] * mult)
    return " + ".join(parts)


class TestParser:
    def test_y1_cutting_bundle(self):
        got = parse_bundle("QD*O(2)", 2, 6)
        want = bundles.twist(bundles.quotient_dual(2, 6), 2)
        assert got == want

    def test_trivial(self):
        assert parse_bundle("O(0)", 2, 6) == bundles.line(2, 6, 0)

    def test_sym_of_twisted_sub(self):
        got = parse_bundle("Sym^2(U*O(2))", 2, 5)
        assert got == bundles.irreducible(2, 5, (4, 2), (0, 0, 0))

    def test_whitespace_tolerated(self):
        a = parse_bundle("QD * O(2) + U", 2, 6)
        b = parse_bundle("QD*O(2)+U", 2, 6)
        assert a == b

    @pytest.mark.parametrize("text", ROUND_TRIP_CORPUS)
    def test_round_trip(self, text):
        k, n = 2, 5
        expr = parse_bundle(text, k, n)
        if expr.is_zero():
            pytest.skip("zero has no literal")
        again = parse_bundle(render_bundle(expr), k, n)
        assert again == expr

    def test_syntax_error_offset(self):
        with pytest.raises(ParseError) as err:
            parse_bundle("QD*", 2, 6)
        assert err.value.offset == 3

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse_bundle("Sym^2(QD", 2, 6)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError) as err:
            parse_bundle("QD)", 2, 6)
        assert err.value.offset == 2

    def test_plethysm_required_surfaces(self):
        with pytest.raises(PlethysmRequiredError):
            parse_bundle("Sym^2(S[2,1]QD)", 2, 6)

    @pytest.mark.parametrize("opener", ["(", "Sym^1(", "Wedge^1(", "Dual("])
    def test_nesting_depth_is_capped(self, opener):
        def nest(depth):
            return opener * depth + "O(1)" + ")" * depth

        # MAX_DEPTH is even, so the nested duals cancel as well
        assert parse_bundle(nest(MAX_DEPTH), 1, 4) == bundles.line(1, 4, 1)
        with pytest.raises(ParseError, match="nesting deeper than") as err:
            parse_bundle(nest(MAX_DEPTH + 1), 1, 4)
        assert err.value.offset == len(opener) * (MAX_DEPTH + 1)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_cli_error(capsys, *argv):
    """Exit code and the single stderr line of a failing command."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and "Traceback" not in captured.err, captured.err
    return code, lines[0]


class TestCli:
    def test_bott_trivial(self, capsys):
        code, out = run_cli(capsys, "bott", "--k", "1", "--n", "5", "--weight", "1|0,0,0,0")
        assert code == 0
        payload = json.loads(out)
        assert payload["outputs"] == {
            "acyclic": False, "degree": 0, "dimension": "5", "weight": [1, 0, 0, 0, 0],
        }
        assert payload["schemaVersion"] == "1"

    def test_bott_acyclic(self, capsys):
        code, out = run_cli(capsys, "bott", "--k", "1", "--n", "5", "--weight", "0|1,0,0,0")
        assert code == 0
        assert json.loads(out)["outputs"] == {"acyclic": True}

    def test_lr(self, capsys):
        code, out = run_cli(capsys, "lr", "--rank", "2", "--a", "2,0", "--b", "1,1")
        assert code == 0
        assert json.loads(out)["outputs"]["terms"] == [
            {"multiplicity": 1, "weight": [3, 1]}
        ]

    def test_hodge_json_big_ints_are_strings(self, capsys):
        code, out = run_cli(
            capsys, "hodge", "--k", "2", "--n", "5", "--bundle", "QD*O(2)"
        )
        assert code == 0
        diamond = json.loads(out)["outputs"]["diamond"]
        assert diamond["h"][1][2] == "51"
        assert diamond["exact"][1][2] is True

    def test_hodge_diamond_mode(self, capsys):
        code, out = run_cli(
            capsys, "hodge", "--k", "1", "--n", "4", "--bundle", "O(1)", "--diamond"
        )
        assert code == 0
        assert out.splitlines()[0].strip() == "1"

    def test_hodge_points(self, capsys):
        code, out = run_cli(
            capsys, "hodge", "--k", "1", "--n", "6", "--bundle", "QD*O(2)"
        )
        assert code == 0
        assert json.loads(out)["outputs"]["points"] == "21"

    def test_parse_error_exit_code(self, capsys):
        code = main(["hodge", "--k", "2", "--n", "5", "--bundle", "QD*"])
        assert code == 2

    @pytest.mark.parametrize("depth,code", [(50, 0), (3000, 2)])
    def test_deep_nesting(self, capsys, depth, code):
        text = "(" * depth + "O(1)" + ")" * depth
        argv = ["hodge", "--k", "1", "--n", "4", "--bundle", text]
        if code == 0:
            assert run_cli(capsys, *argv)[0] == 0
        else:
            got, line = run_cli_error(capsys, *argv)
            assert got == code and "nesting deeper than" in line

    def test_precondition_exit_code(self, capsys):
        # not globally generated
        code = main(["hodge", "--k", "2", "--n", "5", "--bundle", "QD"])
        assert code == 3

    def test_plethysm_exit_code(self, capsys):
        code = main(["hodge", "--k", "2", "--n", "6", "--bundle", "Sym^2(S[2,1]QD)"])
        assert code == 3

    @pytest.mark.parametrize(
        "k,n,text", [(2, 4, "O(0)"), (1, 2, "O(0)"), (2, 5, "UD+Q"), (2, 6, "UD+Q+O(1)")]
    )
    def test_empty_zero_locus_exits_precondition(self, capsys, k, n, text):
        # a general section vanishes nowhere: the degree c_r(F) H^d is 0
        code, err = run_cli_error(capsys, "hodge", "--k", str(k), "--n", str(n), "--bundle", text)
        assert code == 3
        assert "zero locus is empty (degree 0)" in err

    def test_nonempty_non_ample_zero_locus_succeeds(self, capsys):
        # UD+UD+UD on G(3,9) is not ample and has degree 42 = deg G(3,6)
        code, out = run_cli(capsys, "hodge", "--k", "3", "--n", "9", "--bundle", "UD+UD+UD")
        assert code == 0
        assert json.loads(out)["outputs"]["dim"] == 9

    def test_unknown_suite_exits_usage(self, capsys):
        code, err = run_cli_error(capsys, "verify", "--suite", "nope")
        assert code == 2
        assert err.endswith("available: paper")

    @pytest.mark.parametrize(
        "argv,line",
        [
            (
                ["lr", "--rank", "x", "--a", "1,0", "--b", "0,0"],
                "usage error: roofcalc lr: argument --rank: invalid int value: 'x'",
            ),
            (
                ["windows", "--n", "5", "--side", "up"],
                "usage error: roofcalc windows: argument --side: invalid choice: "
                "'up' (choose from 'minus', 'plus', 'both')",
            ),
            (
                ["bott", "--k", "2", "--n", "5"],
                "usage error: roofcalc bott: the following arguments are required: "
                "--weight",
            ),
            ([], "usage error: roofcalc: the following arguments are required: command"),
        ],
        ids=["not-an-int", "not-a-choice", "missing-option", "missing-command"],
    )
    def test_bad_command_line_exits_usage_with_one_line(self, capsys, argv, line):
        assert run_cli_error(capsys, *argv) == (2, line)

    @pytest.mark.parametrize(
        "option,value,rest",
        [
            ("--weight", "-5,-5|0,0,0", ["bott", "--k", "2", "--n", "5"]),
            ("--a", "-1,0", ["lr", "--rank", "2", "--b", "0,0"]),
            ("--a", "-1,-1", ["lr", "--rank", "2", "--b", "0,0"]),
        ],
        ids=["bott", "lr-not-dominant", "lr"],
    )
    def test_leading_minus_value_in_space_form(self, capsys, option, value, rest):
        # "--a -1,0" reads like "--a=-1,0", down to the exit code and stderr
        results = []
        for form in ([option, value], [f"{option}={value}"]):
            code = main(rest + form)
            captured = capsys.readouterr()
            out = json.loads(captured.out)["outputs"] if captured.out else None
            results.append((code, out, captured.err))
        assert results[0] == results[1]
        code, out, err = results[0]
        if value == "-1,0":  # not non-increasing: a precondition, not a usage error
            assert (code, out) == (3, None)
            assert err.splitlines() == ["precondition violated: weight (-1, 0) is not non-increasing"]
        else:
            assert (code, err) == (0, "")
            assert out

    def test_unwritable_out_exits_usage(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, err = run_cli_error(
            capsys, "bott", "--k", "2", "--n", "4", "--weight", "1,0|0,0",
            "--out", str(target),
        )
        assert code == 2
        assert str(target) in err

    def test_roofs_rank_two(self, capsys):
        code, out = run_cli(capsys, "roofs", "--max-rank", "2")
        assert code == 0
        records = json.loads(out)["outputs"]["records"]
        exceptional = [r for r in records if r["group"] in ("F4", "G2")]
        assert [r["group"] for r in exceptional] == ["G2"]

    def test_windows_minus(self, capsys):
        code, out = run_cli(
            capsys, "windows", "--n", "4", "--m-max", "4", "--side", "minus"
        )
        assert code == 0
        report = json.loads(out)["outputs"]["reports"][0]
        assert report["passed"] is True
        assert report["checkedPairs"] == 16

    def test_pair_small(self, capsys):
        code, out = run_cli(capsys, "pair", "--k", "1", "--n", "5")
        assert code == 0
        payload = json.loads(out)["outputs"]
        assert payload["middleRowsMatch"] is True
        assert payload["invariants"] == {
            "calabiYau": False, "canonicalTwist1": 2, "canonicalTwist2": -2,
            "d1": 0, "d2": 4,
        }
        assert payload["grothendieckIdentityHolds"] is True

    def test_pair_126_reports_points_and_h33(self, capsys):
        code, out = run_cli(capsys, "pair", "--k", "1", "--n", "6")
        assert code == 0
        payload = json.loads(out)["outputs"]
        assert payload["invariants"] == {
            "calabiYau": False, "canonicalTwist1": 3, "canonicalTwist2": -3,
            "d1": 0, "d2": 6,
        }
        assert payload["points"]["y1"] == "21"
        assert payload["diamond2"]["h"][3][3] == "22"

    def test_pair_236_reports_published_entries(self, capsys):
        code, out = run_cli(capsys, "pair", "--k", "2", "--n", "6")
        assert code == 0
        payload = json.loads(out)["outputs"]
        assert payload["invariants"] == {
            "calabiYau": False, "canonicalTwist1": 1, "canonicalTwist2": -1,
            "d1": 4, "d2": 6,
        }
        assert payload["diamond1"]["h"][2][2] == "2271"
        assert payload["diamond2"]["h"][3][3] == "2272"
        assert payload["grothendieckIdentityHolds"] is True

    def test_pair_347_is_calabi_yau(self, capsys):
        code, out = run_cli(capsys, "pair", "--k", "3", "--n", "7")
        assert code == 0
        payload = json.loads(out)["outputs"]
        assert payload["invariants"] == {
            "calabiYau": True, "canonicalTwist1": 0, "canonicalTwist2": 0,
            "d1": 8, "d2": 8,
        }
        assert payload["points"] == {"y1": None, "y2": None}

    def test_pair_outside_the_domain(self, capsys):
        code, line = run_cli_error(capsys, "pair", "--k", "3", "--n", "6")
        assert code == 3
        assert line == "precondition violated: pair needs n >= 2k+1, got (k,n)=(3,6)"

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out = run_cli(
            capsys, "bott", "--k", "1", "--n", "4", "--weight", "2|0,0,0",
            "--out", str(target),
        )
        assert code == 0
        assert json.loads(target.read_text()) == json.loads(out)

    def test_deterministic_output(self, capsys):
        _, first = run_cli(capsys, "roofs", "--max-rank", "4")
        _, second = run_cli(capsys, "roofs", "--max-rank", "4")
        a, b = json.loads(first), json.loads(second)
        a.pop("timing"), b.pop("timing")
        assert a == b
