"""Command-line interface.

Subcommands mirror the library surface: `bott`, `hodge`, `pair`, `roofs`,
`windows`, `lr`, `verify`.  `_read` reads argv against the table `COMMANDS`.
Each `_cmd_*` takes the option values and returns its `outputs` block (or, in
a text mode, its text) and its exit status, 0 or 5 for a failed check.  `main`
alone times the call, wraps `outputs` in the report envelope, and prints
deterministic UTF-8 JSON (sorted keys, big integers as decimal strings);
`--out FILE` writes the same bytes to a file.  A package error, a bad command
line (`UsageError`) included, ends in the exit code and stderr line of its class.
"""

from __future__ import annotations

import json
import sys
import time

from . import __version__
from .bwb import bott
from .errors import ParseError, RankError, RoofcalcError, UsageError
from .hodge import ZeroLocusSpec, check_pair_theorem, hodge_numbers
from .lr import lr_product
from .parser import parse_bundle
from .roofs import classify
from .verify import run_suite
from .weights import DoubleWeight
from .windows import check_tilting_minus, check_tilting_plus

SCHEMA_VERSION = "1"

EXIT_MISMATCH = 5


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
    w = _parse_double_weight(args["weight"])
    if w.ambient != (args["k"], args["n"]):
        raise RankError(f"weight {w} lives on G{w.ambient}, flags say G({args['k']},{args['n']})")
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
    total = lr_product(_parse_weight(args["a"]), _parse_weight(args["b"]), args["rank"])
    return {"terms": [{"weight": list(w), "multiplicity": m} for w, m in total]}, 0


def _cmd_hodge(args) -> tuple[dict | str, int]:
    spec = ZeroLocusSpec(args["k"], args["n"], parse_bundle(args["bundle"], args["k"], args["n"]))
    diamond = hodge_numbers(spec)
    if args["diamond"]:
        return diamond.render(), 0
    outputs = {"diamond": diamond.to_json_dict(), "dim": diamond.dim}
    if spec.dim == 0:
        outputs["points"] = str(diamond.h(0, 0))
    return outputs, 0


def _cmd_pair(args) -> tuple[dict, int]:
    report = check_pair_theorem(args["k"], args["n"])
    d1, d2, s, residual = report.diamond1, report.diamond2, report.shift, report.residual
    ok_leq = residual is not None and residual.is_zero()
    outputs = {
        "invariants": {
            "d1": d1.dim,
            "d2": d2.dim,
            "canonicalTwist1": s,
            "canonicalTwist2": -s,
            "calabiYau": s == 0,
        },
        "points": {
            "y1": str(d1.h(0, 0)) if d1.dim == 0 else None,
            "y2": str(d2.h(0, 0)) if d2.dim == 0 else None,
        },
        "bundles": {"y1": d1.meta["bundle"], "y2": d2.meta["bundle"]},
        "diamond1": d1.to_json_dict(),
        "diamond2": d2.to_json_dict(),
        "vRow1": report.v1,
        "vRow2": report.v2,
        "shift": s,
        "middleRowsMatch": report.passed,
        "failures": report.failures,
        "grothendieckIdentityHolds": ok_leq,
        "residual": None if residual is None else str(residual),
    }
    return outputs, 0 if report.passed and ok_leq else EXIT_MISMATCH


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
        for r in classify(args["max-rank"])
    ]
    return {"records": records, "count": len(records)}, 0


def _cmd_windows(args) -> tuple[dict, int]:
    sides = ["minus", "plus"] if args["side"] == "both" else [args["side"]]
    reports = []
    for side in sides:
        check = check_tilting_minus if side == "minus" else check_tilting_plus
        rep = check(args["n"], args["m-max"])
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
    results = run_suite(args["suite"])
    passed = sum(r.passed for r in results)
    status = 0 if passed == len(results) else EXIT_MISMATCH
    if args["json"]:
        checks = [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results]
        return {"checks": checks, "passed": passed, "total": len(results)}, status
    lines = [f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}" for r in results]
    lines.append(f"{passed}/{len(results)} checks passed")
    return "\n".join(lines), status


# command -> (summary, options); an option is (name, kind, default, help), with kind int,
# str, a tuple of choices or bool for a flag, and `...` as the default of a required one.
# Flags and --out say how the output is written; every other option is an input.
_GRASSMANNIAN = [("k", int, ..., "the k of G(k, n)"), ("n", int, ..., "the n of G(k, n)")]
_OUT = ("out", str, None, "also write the output to this file")
COMMANDS = {
    "bott": ("cohomology of one irreducible bundle",
             [*_GRASSMANNIAN, ("weight", str, ..., 'double weight, e.g. "2,2|1,0,0"')]),
    "lr": ("Littlewood-Richardson product", [
        ("rank", int, ..., "number of entries of each weight"),
        ("a", str, ..., 'weight, e.g. "2,1,0"'), ("b", str, ..., "the other weight")]),
    "hodge": ("Hodge diamond of a zero locus", [
        *_GRASSMANNIAN, ("bundle", str, ..., 'e.g. "QD*O(2)" or "O(1)+O(2)"'),
        ("diamond", bool, False, "render as a triangle")]),
    "pair": ("invariants, diamonds and checks of a zero-locus pair", _GRASSMANNIAN),
    "roofs": ("classify Picard-rank-two diagram roofs",
              [("max-rank", int, ..., "largest rank of a diagram")]),
    "windows": ("self-extension vanishing reports", [
        ("n", int, ..., "dimension of V"), ("m-max", int, 8, "highest Sym power checked"),
        ("side", ("minus", "plus", "both"), "both", "which of the two checks")]),
    "verify": ("run a reference verification suite", [
        ("suite", str, "paper", "suite to run"), ("json", bool, False, "print a JSON report")]),
}


def _help(command: str | None) -> str:
    head, rows = "[-h] [--version] COMMAND [OPTIONS]\n\ncommands:", [
        (name, summary) for name, (summary, _) in COMMANDS.items()]
    if command:
        head, rows = f"{command} [-h] [OPTIONS]\n\n{COMMANDS[command][0]}\n\noptions:", []
        for name, kind, default, text in [*COMMANDS[command][1], _OUT]:
            form = f"--{name} {{{','.join(kind)}}}" if type(kind) is tuple else f"--{name}"
            note = " (required)" if default is ... else f" (default {default})" if default else ""
            rows.append((form, text + note))
    return "\n".join([f"usage: roofcalc {head}", *(f"  {a:<26}{b}" for a, b in rows)])


def _option(token: str, names: list[str]) -> tuple[str, str | None] | None:
    # (name, "=" value or None) for one of `names` or its unique prefix, ("", None) for another
    # option, None for a value: "-", "x...", "-5...", "-.5..." or anything with a space
    if token.startswith("--") or token == "-h":
        key, eq, value = ("help" if token == "-h" else token[2:]).partition("=")
        hits = [key] if key in names else [name for name in names if name.startswith(key)]
        if len(hits) == 1:
            return hits[0], value if eq else None
    plain = token[:1] != "-" or token == "-" or token[1:].removeprefix(".")[:1].isdecimal()
    return None if plain or " " in token else ("", None)


def _value(what: str, kind, value: str):
    if kind is int:
        try:
            return int(value)
        except ValueError:
            raise UsageError(f"{what}: invalid int value: {value!r}") from None
    if kind is not str and value not in kind:
        choices = ", ".join(map(repr, kind))
        raise UsageError(f"{what}: invalid choice: {value!r} (choose from {choices})")
    return value


def _read(argv: list[str]) -> tuple[str | None, dict | str]:
    """The command and each option's value (its default if not given), or (None, text) for
    --help and --version.  A bad value fails at once, then a missing required option, then
    any argument left over, each a `UsageError` in the words of the argparse parser before."""
    prog, command, names, spec, values, extras = "roofcalc", None, ["help", "version"], {}, {}, []
    tokens = list(reversed(argv))  # the next token is tokens[-1]
    while tokens:
        token = tokens.pop()
        name, value = _option(token, names) or (None, None)
        what = f"{prog}: argument " + ("-h/--help" if name == "help" else f"--{name}")
        if name is None and command is None:
            command = _value("roofcalc: argument command", COMMANDS, token)
            prog, spec = f"roofcalc {command}", {o[0]: o for o in [*COMMANDS[command][1], _OUT]}
            names = ["help", *spec]
        elif not name:
            extras.append(token)
        elif name in ("help", "version") or spec[name][1] is bool:
            if value is not None:
                raise UsageError(f"{what}: ignored explicit argument {value!r}")
            if name in ("help", "version"):
                return None, _help(command) if name == "help" else f"roofcalc {__version__}"
            values[name] = True
        else:
            if value is None:
                if not tokens or _option(tokens[-1], names) is not None:
                    raise UsageError(f"{what}: expected one argument")
                value = tokens.pop()
            values[name] = _value(what, spec[name][1], value)
    missing = [f"--{n}" for n, o in spec.items() if o[2] is ... and n not in values]
    if missing or command is None:
        raise UsageError(f"{prog}: the following arguments are required: "
                         f"{', '.join(missing) if command else 'command'}")
    if extras:
        raise UsageError(f"roofcalc: unrecognized arguments: {' '.join(extras)}")
    return command, {name: values.get(name, o[2]) for name, o in spec.items()}


def _camel(name: str) -> str:
    head, *rest = name.split("-")
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
        command, values = _read(sys.argv[1:] if argv is None else argv)
        if command is None:  # --help or --version
            print(values)
            return 0
        t0 = time.perf_counter()
        outputs, status = globals()[f"_cmd_{command}"](values)
        if isinstance(outputs, str):
            text = outputs
        else:
            report = {
                "schemaVersion": SCHEMA_VERSION,
                "tool": {"name": "roofcalc", "version": __version__},
                "command": command,
                "inputs": {_camel(name): values[name]
                           for name, kind, _, _ in COMMANDS[command][1] if kind is not bool},
                "outputs": outputs,
                "timing": {"seconds": round(time.perf_counter() - t0, 3)},
            }
            text = json.dumps(report, sort_keys=True, ensure_ascii=False)
        _emit(text, values["out"])
    except RoofcalcError as exc:
        print(exc.cli_line(), file=sys.stderr)
        return exc.exit_code
    return status


if __name__ == "__main__":
    sys.exit(main())
