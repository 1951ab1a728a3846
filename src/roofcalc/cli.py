"""Command-line interface.

Subcommands mirror the library surface: `bott`, `hodge`, `pair`, `roofs`,
`windows`, `lr`, `verify`.  Output is deterministic UTF-8 JSON (sorted keys,
big integers as decimal strings) unless a text mode is chosen; `--out FILE`
writes the same bytes to a file.  Exit codes: 0 success, 2 parse error or
unknown suite or unwritable output file, 3 precondition violation (an input
beyond the work limit included) or inconsistent chase data, 4 ambiguity,
5 verification mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .bwb import bott
from .errors import (
    AmbiguityError,
    DominanceError,
    ExcludedCaseError,
    InconsistentDataError,
    InjectivityViolationError,
    MalformedContractionError,
    MismatchError,
    NotGloballyGeneratedError,
    ParseError,
    PlethysmRequiredError,
    RankError,
    RoofcalcError,
    UsageError,
    WorkLimitError,
)
from .hodge import (
    ZeroLocusSpec,
    check_pair_theorem,
    hodge_numbers,
    pair_specs,
)
from .lr import lr_product
from .motive import verify_lemma_leq
from .parser import parse_bundle
from .roofs import classify
from .verify import run_suite
from .weights import DoubleWeight
from .windows import check_tilting_minus, check_tilting_plus

SCHEMA_VERSION = "1"

EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_AMBIGUITY = 4
EXIT_MISMATCH = 5

_PRECONDITION_ERRORS = (
    RankError,
    DominanceError,
    NotGloballyGeneratedError,
    PlethysmRequiredError,
    ExcludedCaseError,
    MalformedContractionError,
    WorkLimitError,
)


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


def _report(command: str, inputs: dict, outputs: dict, t0: float) -> dict:
    return {
        "schemaVersion": SCHEMA_VERSION,
        "tool": {"name": "roofcalc", "version": __version__},
        "command": command,
        "inputs": inputs,
        "outputs": outputs,
        "timing": {"seconds": round(time.perf_counter() - t0, 3)},
    }


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


def _emit_json(payload: dict, out_file: str | None) -> None:
    _emit(json.dumps(payload, sort_keys=True, ensure_ascii=False), out_file)


def _cmd_bott(args) -> int:
    t0 = time.perf_counter()
    w = _parse_double_weight(args.weight)
    if w.ambient != (args.k, args.n):
        raise RankError(f"weight {w} lives on G{w.ambient}, flags say G({args.k},{args.n})")
    res = bott(w)
    if res.acyclic:
        outputs = {"acyclic": True}
    else:
        outputs = {
            "acyclic": False,
            "degree": res.degree,
            "weight": list(res.weight),
            "dimension": str(res.dimension),
        }
    _emit_json(
        _report("bott", {"k": args.k, "n": args.n, "weight": args.weight}, outputs, t0),
        args.out,
    )
    return 0


def _cmd_lr(args) -> int:
    t0 = time.perf_counter()
    a = _parse_weight(args.a)
    b = _parse_weight(args.b)
    total = lr_product(a, b, args.rank)
    outputs = {
        "terms": [{"weight": list(w), "multiplicity": m} for w, m in total],
    }
    _emit_json(
        _report("lr", {"rank": args.rank, "a": args.a, "b": args.b}, outputs, t0),
        args.out,
    )
    return 0


def _cmd_hodge(args) -> int:
    t0 = time.perf_counter()
    expr = parse_bundle(args.bundle, args.k, args.n)
    spec = ZeroLocusSpec(args.k, args.n, expr)
    diamond = hodge_numbers(spec)
    if args.diamond:
        _emit(diamond.render(), args.out)
        return 0
    outputs = {"diamond": diamond.to_json_dict(), "dim": diamond.dim}
    if spec.dim == 0:
        outputs["points"] = str(diamond.h(0, 0))
    _emit_json(
        _report(
            "hodge", {"k": args.k, "n": args.n, "bundle": args.bundle}, outputs, t0
        ),
        args.out,
    )
    return 0


def _cmd_pair(args) -> int:
    t0 = time.perf_counter()
    k, n = args.k, args.n
    report = check_pair_theorem(k, n)
    inv = report.invariants
    spec1, spec2 = pair_specs(k, n)
    ok_leq, residual = (None, None)
    if report.diamond1.fully_exact() and report.diamond2.fully_exact():
        ok_leq, residual = verify_lemma_leq(k, n, report.diamond1, report.diamond2)
    outputs = {
        "invariants": {
            "d1": inv.d1,
            "d2": inv.d2,
            "canonicalTwist1": inv.canonical_twist_1,
            "canonicalTwist2": inv.canonical_twist_2,
            "calabiYau": inv.cy,
        },
        "points": {
            "y1": str(report.diamond1.h(0, 0)) if inv.d1 == 0 else None,
            "y2": str(report.diamond2.h(0, 0)) if inv.d2 == 0 else None,
        },
        "bundles": {"y1": str(spec1.bundle), "y2": str(spec2.bundle)},
        "diamond1": report.diamond1.to_json_dict(),
        "diamond2": report.diamond2.to_json_dict(),
        "vRow1": report.v1,
        "vRow2": report.v2,
        "shift": report.shift,
        "middleRowsMatch": report.passed,
        "failures": report.failures,
        "grothendieckIdentityHolds": ok_leq,
        "residual": str(residual) if residual is not None else None,
    }
    _emit_json(_report("pair", {"k": k, "n": n}, outputs, t0), args.out)
    return 0 if report.passed and ok_leq is not False else EXIT_MISMATCH


def _cmd_roofs(args) -> int:
    t0 = time.perf_counter()
    records = classify(args.max_rank)
    outputs = {
        "records": [
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
            for r in records
        ],
        "count": len(records),
    }
    _emit_json(_report("roofs", {"maxRank": args.max_rank}, outputs, t0), args.out)
    return 0


def _cmd_windows(args) -> int:
    t0 = time.perf_counter()
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
    _emit_json(
        _report(
            "windows",
            {"n": args.n, "mMax": args.m_max, "side": args.side},
            {"reports": reports},
            t0,
        ),
        args.out,
    )
    return 0 if all(r["passed"] for r in reports) else EXIT_MISMATCH


def _cmd_verify(args) -> int:
    t0 = time.perf_counter()
    results = run_suite(args.suite)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"[{status}] {r.name}: {r.detail}")
    passed = sum(r.passed for r in results)
    lines.append(f"{passed}/{len(results)} checks passed")
    text = "\n".join(lines)
    if args.json:
        payload = _report(
            "verify",
            {"suite": args.suite},
            {
                "checks": [
                    {"name": r.name, "passed": r.passed, "detail": r.detail}
                    for r in results
                ],
                "passed": passed,
                "total": len(results),
            },
            t0,
        )
        _emit_json(payload, args.out)
    else:
        _emit(text, args.out)
    return 0 if passed == len(results) else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roofcalc",
        description="Exact cohomology calculator for homogeneous bundles on "
        "Grassmannians: Bott's algorithm, Hodge diamonds of zero loci, roof "
        "classification, window vanishing checks.",
    )
    parser.add_argument("--version", action="version", version=f"roofcalc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bott", help="cohomology of one irreducible bundle")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--weight", required=True, help='double weight, e.g. "2,2|1,0,0"')
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bott)

    p = sub.add_parser("lr", help="Littlewood-Richardson product")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--a", required=True, help='weight, e.g. "2,1,0"')
    p.add_argument("--b", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_lr)

    p = sub.add_parser("hodge", help="Hodge diamond of a zero locus")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--bundle", required=True, help='e.g. "QD*O(2)" or "O(1)+O(2)"')
    p.add_argument("--diamond", action="store_true", help="render as a triangle")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_hodge)

    p = sub.add_parser("pair", help="invariants, diamonds and checks of a zero-locus pair")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_pair)

    p = sub.add_parser("roofs", help="classify Picard-rank-two diagram roofs")
    p.add_argument("--max-rank", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_roofs)

    p = sub.add_parser("windows", help="self-extension vanishing reports")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m-max", type=int, default=8)
    p.add_argument("--side", choices=["minus", "plus", "both"], default="both")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_windows)

    p = sub.add_parser("verify", help="run a reference verification suite")
    p.add_argument("--suite", default="paper")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except _PRECONDITION_ERRORS as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except InconsistentDataError as exc:
        print(
            f"precondition violated in the {exc.stage}: {exc}; the zero locus "
            "may be empty or the section not general",
            file=sys.stderr,
        )
        return EXIT_PRECONDITION
    except AmbiguityError as exc:
        print(f"ambiguous result: {exc}", file=sys.stderr)
        return EXIT_AMBIGUITY
    except (MismatchError, InjectivityViolationError) as exc:
        print(f"verification mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except RoofcalcError as exc:  # pragma: no cover
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
