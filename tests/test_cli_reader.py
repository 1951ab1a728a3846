"""The command-line reader of `roofcalc.cli` against the argparse parser it
replaced.

`reference_parser` is the old `cli.build_parser()`, kept here as the
reference.  For every argv the strategy builds, both must accept it with the
same command, the same values for the handler and the same report `inputs`,
or both must end in the same exit code; where the argv has exactly one
fault, with the same stderr line as well.  argparse's `--` (end of options)
and single-dash forms other than `-h` are outside the strategy."""

import argparse
import contextlib
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roofcalc import __version__, cli
from roofcalc.errors import UsageError

ROOT = Path(__file__).resolve().parents[1]


class _Parser(argparse.ArgumentParser):
    """argparse with the package's error contract: a bad command line raises
    `UsageError` (one stderr line, exit 2) instead of printing the usage, and
    a value that starts with "-" and a digit, such as a weight "-5,-5|0,0,0",
    is read as a value in the `--weight VALUE` form as well."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern takes a value only if all of it is a number
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message: str):
        raise UsageError(f"{self.prog}: {message}")


def reference_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="roofcalc",
        description="Exact cohomology calculator for homogeneous bundles on "
        "Grassmannians: Bott's algorithm, Hodge diamonds of zero loci, roof "
        "classification, window vanishing checks.",
    )
    parser.add_argument("--version", action="version", version=f"roofcalc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    grassmannian = argparse.ArgumentParser(add_help=False)
    grassmannian.add_argument("--k", type=int, required=True)
    grassmannian.add_argument("--n", type=int, required=True)

    def command(name, summary, *parents):
        return sub.add_parser(name, help=summary, parents=list(parents))

    p = command("bott", "cohomology of one irreducible bundle", grassmannian)
    p.add_argument("--weight", required=True, help='double weight, e.g. "2,2|1,0,0"')

    p = command("lr", "Littlewood-Richardson product")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--a", required=True, help='weight, e.g. "2,1,0"')
    p.add_argument("--b", required=True)

    p = command("hodge", "Hodge diamond of a zero locus", grassmannian)
    p.add_argument("--bundle", required=True, help='e.g. "QD*O(2)" or "O(1)+O(2)"')
    p.add_argument("--diamond", action="store_true", help="render as a triangle")

    command("pair", "invariants, diamonds and checks of a zero-locus pair", grassmannian)

    p = command("roofs", "classify Picard-rank-two diagram roofs")
    p.add_argument("--max-rank", type=int, required=True)

    p = command("windows", "self-extension vanishing reports")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m-max", type=int, default=8)
    p.add_argument("--side", choices=["minus", "plus", "both"], default="both")

    p = command("verify", "run a reference verification suite")
    p.add_argument("--suite", default="paper")
    p.add_argument("--json", action="store_true")

    for p in sub.choices.values():  # last, so that help lists it last
        p.add_argument("--out")
    return parser


REFERENCE = reference_parser()
SUBPARSERS = next(
    action.choices for action in REFERENCE._actions
    if isinstance(action, argparse._SubParsersAction)
)
NOT_INPUTS = {"command", "out", "diamond", "json"}


def _camel(dest):
    head, *rest = dest.split("_")
    return head + "".join(word.title() for word in rest)


def by_reference(argv):
    """(0, command, handler values, inputs) for an accepted argv, (0, True)
    for a help or version text, and (2, stderr line) for a usage error."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            namespace = REFERENCE.parse_args(argv)
    except UsageError as exc:
        return 2, exc.cli_line()
    except SystemExit as exc:
        return exc.code, out.getvalue() != ""
    values = {dest: value for dest, value in vars(namespace).items() if dest != "command"}
    inputs = {_camel(dest): value for dest, value in values.items() if dest not in NOT_INPUTS}
    return 0, namespace.command, values, inputs


def by_main(argv):
    """The same outcome from `cli.main`, with every handler and the output
    stubbed: the handler records the values it gets, `_emit` the report."""
    seen = {}

    def handler(values):
        seen["values"] = {name.replace("-", "_"): value for name, value in values.items()}
        return {}, 0

    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        for command in cli.COMMANDS:
            patch.setattr(cli, f"_cmd_{command}", handler)
        patch.setattr(cli, "_emit", lambda text, out_file: seen.update(report=json.loads(text)))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    if "report" in seen:
        report = seen["report"]
        return code, report["command"], seen["values"], report["inputs"]
    if code == 0:
        return 0, out.getvalue() != ""
    lines = err.getvalue().splitlines()
    assert out.getvalue() == "" and len(lines) == 1, (argv, out.getvalue(), lines)
    return code, lines[0]


def _options(command):
    """(long name, argparse action) of each option of `command`, --help included."""
    return [
        (action.option_strings[-1][2:], action) for action in SUBPARSERS[command]._actions
    ]


def _spellings(command, name):
    """`name` in full and as each of its unique prefixes among the options."""
    names = [other for other, _ in _options(command)]
    return [
        name[:size] for size in range(1, len(name) + 1)
        if [other for other in names if other.startswith(name[:size])] == [name]
    ]


INTS = st.integers(-5, 12).map(str)
NOT_INTS = st.sampled_from(["x", "1.5", "", "seven", "1e3", "0x10", "- 4", "-1.5"])
NOT_CHOICES = st.sampled_from(["up", "", "Minus", "-1", "both "])
# values a separate argument carries: none starts with "-" unless it starts
# with "-" and a digit (or "-." and a digit) or holds a space
TEXTS = st.one_of(
    st.sampled_from(["2,1,0", "-1,0", "-5,-5|0,0,0", "1|0,0,0,0", "-.5", "- x", "O(1)+O(2)"]),
    st.text(alphabet="ab01,|()= -", max_size=6).filter(lambda text: not text.startswith("-")),
)
# values after "=": anything
EXPLICIT = st.one_of(TEXTS, st.text(alphabet="ab1-=", max_size=5))
UNKNOWN = st.sampled_from(["--zap", "--zap=1", "-q", "--verbose", "---k", "--kn"])
STRAY = st.sampled_from(["stray", "7", "-3", "", "a b", "-.5"])
HELP = st.sampled_from(["-h", "--help", "--he"])


@st.composite
def _occurrence(draw, command, name, action):
    """The tokens of one occurrence of an option and its number of faults."""
    flag = f"--{draw(st.sampled_from(_spellings(command, name)))}"
    if action.nargs == 0:  # store_true
        if draw(st.integers(0, 5)) == 0:
            return [f"{flag}={draw(EXPLICIT)}"], 1
        return [flag], 0
    fault = draw(st.integers(0, 5)) == 0
    if action.type is int:
        value = draw(NOT_INTS if fault else INTS)
    elif action.choices:
        value = draw(NOT_CHOICES if fault else st.sampled_from(action.choices))
    else:
        fault, value = False, None
    if draw(st.booleans()):
        return [f"{flag}={value if value is not None else draw(EXPLICIT)}"], int(fault)
    return [flag, value if value is not None else draw(TEXTS)], int(fault)


@st.composite
def argvs(draw):
    """An argv and its number of faults."""
    command = draw(st.sampled_from(list(SUBPARSERS)))
    units, faults = [], 0
    for name, action in _options(command):
        if name == "help":
            continue
        count = draw(st.sampled_from([0, 1, 1, 1, 2, 3] if action.required else [0, 0, 1, 2]))
        faults += action.required and count == 0  # missing
        for _ in range(count):
            tokens, bad = draw(_occurrence(command, name, action))
            units.append(tokens)
            faults += bad
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        units.append([draw(st.one_of(UNKNOWN, STRAY))])
        faults += 1
    if draw(st.integers(0, 9)) == 0:
        units.append([draw(HELP)])
    argv = [command] + [token for unit in draw(st.permutations(units)) for token in unit]
    if draw(st.integers(0, 7)) == 0:  # an option without its value, at the end
        argv.append(draw(st.sampled_from(
            [f"--{name}" for name, action in _options(command) if action.nargs is None]
        )))
        faults += 1
    top = draw(st.integers(0, 11))
    if top == 0:  # no command
        argv, faults = argv[:0], 1
    elif top == 1:  # an unknown command: argparse stops there
        argv[0], faults = draw(st.sampled_from(["nope", "Hodge", "ho", "-5", ""])), 1
    elif top == 2:
        argv.insert(0, draw(st.sampled_from(["--zap", "-q"])))
        faults += 1
    elif top == 3:
        argv.insert(0, draw(st.sampled_from(["--version", "--vers", "-h", "--help"])))
    return argv, faults


@settings(max_examples=400, deadline=None)
@given(argvs())
def test_reader_matches_argparse(argv_faults):
    argv, faults = argv_faults
    want, got = by_reference(argv), by_main(argv)
    if want[0] == 2 and faults > 1:  # which fault is named first may differ
        assert got[0] == 2, (argv, got, want)
    else:
        assert got == want, argv


@pytest.mark.parametrize(
    "argv",
    [
        ["--version=x"],
        ["--help=1"],
        ["hodge", "--k", "1", "--n", "4", "--bundle", "O(1)", "--diamond=x"],
        ["bott", "--k", "1", "--n", "5", "--weight", "x", "--zap", "7"],
        ["--zap", "bott", "--k", "1", "--n", "5", "--weight", "x"],
        ["lr", "--zap"],
        ["windows", "--n", "5", "--side"],
        ["windows", "--n", "5", "--m-max", "--side", "plus"],
        ["windows", "--n=5", "--m-max=-3", "--sid=minus", "--n", "6"],
        ["nope", "--k", "1"],
        ["roofs", "--max-rank", "2", "-h", "--zap"],
        ["verify", "--j", "--s", "-x y"],
        ["bott", "--k", "1", "--n", "5", "--weight", "--k 5"],
    ],
)
def test_pinned_argvs_match_argparse(argv):
    assert by_main(argv) == by_reference(argv)


def _run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    assert captured.err == ""
    return code, captured.out


def test_version(capsys):
    assert _run(capsys, "--version") == (0, f"roofcalc {__version__}\n")


def test_top_level_help_lists_every_command(capsys):
    code, out = _run(capsys, "--help")
    assert code == 0 and out.startswith("usage: roofcalc")
    for command, (summary, _) in cli.COMMANDS.items():
        assert re.search(rf"^  {command} +{re.escape(summary)}$", out, re.M), command


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_command_help_lists_every_option(capsys, command):
    code, out = _run(capsys, command, "-h")
    assert code == 0 and out.startswith(f"usage: roofcalc {command}")
    summary, options = cli.COMMANDS[command]
    assert summary in out
    for name, _, _, text in [*options, cli._OUT]:
        assert re.search(rf"^  --{name}\b.*{re.escape(text)}", out, re.M), name


def test_version_from_the_command_line():
    # argv=None reads sys.argv
    out = subprocess.run(
        [sys.executable, "-m", "roofcalc.cli", "--version"],
        capture_output=True, text=True, check=True, cwd=ROOT / "src",
    )
    assert (out.stdout, out.stderr) == (f"roofcalc {__version__}\n", "")
