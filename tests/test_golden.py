"""Byte-identity gate: CLI JSON, with `timing` removed, against pinned digests.

`golden_outputs.json` maps each argv (joined by spaces) to the sha256 of
`cli.main`'s JSON for it, `timing` removed and re-serialised with sorted
keys.  The digests are regression pins taken from the code itself, not
oracles: they say that an output did not change, not that it is right.
A change that is meant to alter an output regenerates them with

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

from roofcalc.cli import main

GOLDEN = Path(__file__).with_name("golden_outputs.json")

ARGVS = [
    *(["pair", "--k", str(k), "--n", str(n)]
      for k, n in [(1, 5), (1, 6), (2, 5), (2, 6), (3, 7), (4, 9)]),
    ["verify", "--suite", "paper", "--json"],
    *(["hodge", "--k", str(k), "--n", str(n), "--bundle", text]
      for k, n, text in [
          (1, 20, "O(3)"),
          (3, 9, "UD+UD+UD"),
          (3, 7, "UD+O(1)"),
          (2, 5, "UD"),
          (2, 5, "Q"),
          (1, 6, "QD*O(2)"),
          (2, 4, "UD+UD"),
      ]),
    ["windows", "--n", "6"],
]


def digest(argv: list[str]) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    assert code == 0, (argv, code)
    payload = json.loads(buf.getvalue())
    del payload["timing"]
    text = json.dumps(payload, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_output_unchanged(argv):
    pinned = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert digest(argv) == pinned[" ".join(argv)]


def test_every_pin_is_checked():
    pinned = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(pinned) == sorted(" ".join(argv) for argv in ARGVS)


if __name__ == "__main__":
    pins = {" ".join(argv): digest(argv) for argv in ARGVS}
    GOLDEN.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    sys.exit(0)
