"""Command-line interface.

Subcommands mirror the library surface: `bott`, `hodge`, `pair`, `roofs`,
`windows`, `lr`, `verify`.  Each `_cmd_*` returns its `outputs` block (or,
in a text mode, its text) and its exit status, 0 or 5 for a failed check.
`main` alone times the call, wraps `outputs` in the report envelope, and
prints deterministic UTF-8 JSON (sorted keys, big integers as decimal
strings); `--out FILE` writes the same bytes to a file.  A package error,
a bad command line (`UsageError`) included, ends in the exit code and the
one stderr line its class in `roofcalc.errors` carries.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time

from . import __version__
from .bwb import bott
from .errors import ParseError, RankError, RoofcalcError, UsageError
from .hodge import ZeroLocusSpec, check_pair_theorem, hodge_numbers
from .lr import lr_product
from .motive import verify_lemma_leq
from .parser import parse_bundle
from .roofs import classify
from .verify import run_suite
from .weights import DoubleWeight
from .windows import check_tilting_minus, check_tilting_plus

SCHEMA_VERSION = "1"

EXIT_MISMATCH = 5

# parsed values that are no input: the dispatch, and how the output is written
_NOT_INPUTS = {"command", "func", "out", "diamond", "json"}


def _parse_weight(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ParseError(f"bad weight {text!r}: {exc}", 0)


def _parse_double_weight(text: str) -> DoubleWeight:
    if "|" not in text:
        raise ParseError("double weight needs a '|' separator", 0)
    upper, lower = text.split("|", 1)
    return DoubleWeight(_parse_weight(upper), _parse_weight(lower))


def _cmd_bott(args) -> tuple[dict, int]:
    w = _parse_double_weight(args.weight)
    if w.ambient != (args.k, args.n):
        raise RankError(f"weight {w} lives on G{w.ambient}, flags say G({args.k},{args.n})")
    res = bott(w)
    if res.acyclic:
        return {"acyclic": True}, 0
    outputs = {
        "acyclic": False,
        "degree": res.degree,
        "weight": list(res.weight),
        "dimension": str(res.dimension),
    }
    return outputs, 0


def _cmd_lr(args) -> tuple[dict, int]:
    total = lr_product(_parse_weight(args.a), _parse_weight(args.b), args.rank)
    return {"terms": [{"weight": list(w), "multiplicity": m} for w, m in total]}, 0


def _cmd_hodge(args) -> tuple[dict | str, int]:
    spec = ZeroLocusSpec(args.k, args.n, parse_bundle(args.bundle, args.k, args.n))
    diamond = hodge_numbers(spec)
    if args.diamond:
        return diamond.render(), 0
    outputs = {"diamond": diamond.to_json_dict(), "dim": diamond.dim}
    if spec.dim == 0:
        outputs["points"] = str(diamond.h(0, 0))
    return outputs, 0


def _cmd_pair(args) -> tuple[dict, int]:
    report = check_pair_theorem(args.k, args.n)
    d1, d2, inv = report.diamond1, report.diamond2, report.invariants
    ok_leq, residual = (None, None)
    if d1.fully_exact() and d2.fully_exact():
        ok_leq, residual = verify_lemma_leq(args.k, args.n, d1, d2)
    outputs = {
        "invariants": {
            "d1": inv.d1,
            "d2": inv.d2,
            "canonicalTwist1": inv.canonical_twist_1,
            "canonicalTwist2": inv.canonical_twist_2,
            "calabiYau": inv.cy,
        },
        "points": {
            "y1": str(d1.h(0, 0)) if inv.d1 == 0 else None,
            "y2": str(d2.h(0, 0)) if inv.d2 == 0 else None,
        },
        "bundles": {"y1": d1.meta["bundle"], "y2": d2.meta["bundle"]},
        "diamond1": d1.to_json_dict(),
        "diamond2": d2.to_json_dict(),
        "vRow1": report.v1,
        "vRow2": report.v2,
        "shift": report.shift,
        "middleRowsMatch": report.passed,
        "failures": report.failures,
        "grothendieckIdentityHolds": ok_leq,
        "residual": str(residual) if residual is not None else None,
    }
    return outputs, 0 if report.passed and ok_leq is not False else EXIT_MISMATCH


def _cmd_roofs(args) -> tuple[dict, int]:
    records = [
        {
            "group": r.group,
            "marks": list(r.marks),
            "family": r.family,
            "type": r.type_label,
            "roof": r.roof,
            "base1": r.base1,
            "base2": r.base2,
            "fiberDim1": r.fiber_dim1,
            "fiberDim2": r.fiber_dim2,
            "equalRank": r.equal_rank,
        }
        for r in classify(args.max_rank)
    ]
    return {"records": records, "count": len(records)}, 0


def _cmd_windows(args) -> tuple[dict, int]:
    sides = ["minus", "plus"] if args.side == "both" else [args.side]
    reports = []
    for side in sides:
        check = check_tilting_minus if side == "minus" else check_tilting_plus
        rep = check(args.n, args.m_max)
        reports.append(
            {
                "side": rep.side,
                "n": rep.n,
                "mMax": rep.m_max,
                "checkedPairs": rep.checked_pairs,
                "passed": rep.passed,
                "tailCertified": rep.tail_certified,
                "failures": [f.as_dict() for f in rep.failures],
            }
        )
    return {"reports": reports}, 0 if all(r["passed"] for r in reports) else EXIT_MISMATCH


def _cmd_verify(args) -> tuple[dict | str, int]:
    results = run_suite(args.suite)
    passed = sum(r.passed for r in results)
    status = 0 if passed == len(results) else EXIT_MISMATCH
    if args.json:
        checks = [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results]
        return {"checks": checks, "passed": passed, "total": len(results)}, status
    lines = [f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}" for r in results]
    lines.append(f"{passed}/{len(results)} checks passed")
    return "\n".join(lines), status


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


def build_parser() -> argparse.ArgumentParser:
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

    def command(name, func, summary, *parents):
        p = sub.add_parser(name, help=summary, parents=list(parents))
        p.set_defaults(func=func)
        return p

    p = command("bott", _cmd_bott, "cohomology of one irreducible bundle", grassmannian)
    p.add_argument("--weight", required=True, help='double weight, e.g. "2,2|1,0,0"')

    p = command("lr", _cmd_lr, "Littlewood-Richardson product")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--a", required=True, help='weight, e.g. "2,1,0"')
    p.add_argument("--b", required=True)

    p = command("hodge", _cmd_hodge, "Hodge diamond of a zero locus", grassmannian)
    p.add_argument("--bundle", required=True, help='e.g. "QD*O(2)" or "O(1)+O(2)"')
    p.add_argument("--diamond", action="store_true", help="render as a triangle")

    command("pair", _cmd_pair, "invariants, diamonds and checks of a zero-locus pair",
            grassmannian)

    p = command("roofs", _cmd_roofs, "classify Picard-rank-two diagram roofs")
    p.add_argument("--max-rank", type=int, required=True)

    p = command("windows", _cmd_windows, "self-extension vanishing reports")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m-max", type=int, default=8)
    p.add_argument("--side", choices=["minus", "plus", "both"], default="both")

    p = command("verify", _cmd_verify, "run a reference verification suite")
    p.add_argument("--suite", default="paper")
    p.add_argument("--json", action="store_true")

    for p in sub.choices.values():  # last, so that help lists it last
        p.add_argument("--out")
    return parser


def _camel(dest: str) -> str:
    head, *rest = dest.split("_")
    return head + "".join(word.title() for word in rest)


def _emit(text: str, out_file: str | None) -> None:
    if out_file:
        try:
            with open(out_file, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise UsageError(
                f"cannot write --out {out_file}: {exc.strerror or exc}"
            ) from None
    print(text)


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        t0 = time.perf_counter()
        outputs, status = args.func(args)
        if isinstance(outputs, str):
            text = outputs
        else:
            report = {
                "schemaVersion": SCHEMA_VERSION,
                "tool": {"name": "roofcalc", "version": __version__},
                "command": args.command,
                "inputs": {
                    _camel(dest): value
                    for dest, value in vars(args).items()
                    if dest not in _NOT_INPUTS
                },
                "outputs": outputs,
                "timing": {"seconds": round(time.perf_counter() - t0, 3)},
            }
            text = json.dumps(report, sort_keys=True, ensure_ascii=False)
        _emit(text, args.out)
    except RoofcalcError as exc:
        print(exc.cli_line(), file=sys.stderr)
        return exc.exit_code
    return status


if __name__ == "__main__":
    sys.exit(main())
