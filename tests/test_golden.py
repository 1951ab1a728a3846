"""Byte-identity gate: CLI output against pinned digests.

`golden_outputs.json` maps each argv (joined by spaces) to the sha256 of
`cli.main`'s output for it: for the JSON commands in `ARGVS`, the report
with `timing` removed and re-serialised with sorted keys; for the text
modes in `TEXT_ARGVS`, the raw stdout.  One more pin, `SWEEP_PIN`, holds
`sweep.digest()`: every diamond or error of the non-ample sweep, which
takes the Koszul/conormal chase and the symmetry fixpoint.  The digests
are regression pins taken from the code itself, not oracles: they say
that an output did not change, not that it is right.  A change that is meant to alter an output regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and says in its record which outputs moved and why.
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import sweep
from roofcalc.cli import main

GOLDEN = Path(__file__).with_name("golden_outputs.json")

ARGVS = [
    *(["pair", "--k", str(k), "--n", str(n)]
      for k, n in [(1, 5), (1, 6), (2, 5), (2, 6), (3, 7), (4, 9), (5, 11)]),
    ["verify", "--suite", "paper", "--json"],
    *(["hodge", "--k", str(k), "--n", str(n), "--bundle", text]
      for k, n, text in [
          (1, 20, "O(3)"),
          (3, 9, "UD+UD+UD"),
          (4, 10, "UD+UD+UD"),
          (3, 7, "UD+O(1)"),
          (2, 5, "UD"),
          (2, 5, "Q"),
          (1, 6, "QD*O(2)"),
          (2, 4, "UD+UD"),
          (2, 5, "O(1)+O(1)+O(2)"),
          (3, 7, "U*O(1)+O(2)"),  # 9 interval entries
      ]),
    ["windows", "--n", "6"],
    ["windows", "--n", "9"],
    ["windows", "--n", "30", "--m-max", "0", "--side", "minus"],
    ["bott", "--k", "2", "--n", "5", "--weight", "0,0|2,0,0"],  # acyclic
    ["bott", "--k", "2", "--n", "5", "--weight", "0,-5|0,0,0"],  # H^3
    ["lr", "--rank", "3", "--a", "2,1,0", "--b", "1,1,0"],
    ["roofs", "--max-rank", "8"],
]

TEXT_ARGVS = [
    ["hodge", "--k", "2", "--n", "6", "--bundle", "QD*O(2)", "--diamond"],
    ["hodge", "--k", "3", "--n", "7", "--bundle", "U*O(1)+O(2)", "--diamond"],
    ["verify", "--suite", "paper"],
]


SWEEP_PIN = f"sweep: hodge of the non-ample inputs, 3 <= n <= {sweep.N_MAX}"


def stdout_of(argv: list[str]) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    assert code == 0, (argv, code)
    return buf.getvalue()


def digest(argv: list[str]) -> str:
    text = stdout_of(argv)
    if argv not in TEXT_ARGVS:
        payload = json.loads(text)
        del payload["timing"]
        text = json.dumps(payload, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("argv", ARGVS + TEXT_ARGVS, ids=" ".join)
def test_output_unchanged(argv):
    pinned = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert digest(argv) == pinned[" ".join(argv)]


def test_non_ample_sweep_unchanged():
    pinned = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sweep.digest() == pinned[SWEEP_PIN]


def test_every_pin_is_checked():
    pinned = json.loads(GOLDEN.read_text(encoding="utf-8"))
    checked = [" ".join(argv) for argv in ARGVS + TEXT_ARGVS] + [SWEEP_PIN]
    assert sorted(pinned) == sorted(checked)


@pytest.mark.parametrize("argv", [ARGVS[-4], ARGVS[-2], TEXT_ARGVS[0]], ids=" ".join)
def test_out_file_holds_the_printed_bytes(argv, tmp_path):
    target = tmp_path / "report"
    printed = stdout_of([*argv, "--out", str(target)])
    assert target.read_bytes() == printed.encode("utf-8")


if __name__ == "__main__":
    pins = {" ".join(argv): digest(argv) for argv in ARGVS + TEXT_ARGVS}
    pins[SWEEP_PIN] = sweep.digest()
    GOLDEN.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    sys.exit(0)
