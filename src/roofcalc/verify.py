"""Reference-value verification suite.

Every check reproduces a published number or list exactly (integer
equality): the point count and diamonds of the three worked zero-locus
pairs, the middle-row matching across each pair, the Grothendieck-ring
identity, the second Betti number derivation, the roof classification
patterns, and the vanishing lemmas behind the window collections.  The
driver returns structured results so the CLI can emit one line per check
and exit nonzero on any failure.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cache

from .errors import ExcludedCaseError, UsageError
from .hodge import HodgeDiamond, PairReport, check_pair_theorem
from .motive import derive_b2
from .roofs import RoofRecord, classify
from .windows import (
    bar_moved_collection,
    check_tilting_minus,
    check_tilting_plus,
    kapranov_collection,
)


class CheckResult:
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str):
        self.name, self.passed, self.detail = name, passed, detail


def _expect(name: str, got, want) -> CheckResult:
    ok = got == want
    detail = f"got {got}" if ok else f"got {got}, want {want}"
    return CheckResult(name, ok, detail)


def _diagonal_only(
    name: str, d: HodgeDiamond, diagonal: list[int], middle: list[int],
    detail: Callable[[HodgeDiamond], str],
) -> CheckResult:
    """Check a diamond is exactly: given diagonal, given middle row, zeros.
    A passing check's detail is built by `detail`, once every entry is exact."""
    for p, row in enumerate(d.grid):
        for q, (lo, hi) in enumerate(row):
            if lo != hi:
                return CheckResult(name, False, f"h^{{{p},{q}}} inexact {(lo, hi)}")
            expected = middle[p] if p + q == d.dim else diagonal[p] if p == q else 0
            if lo != expected:
                return CheckResult(name, False, f"h^{{{p},{q}}} = {lo}, want {expected}")
    return CheckResult(name, True, detail(d))


def _middle(d: HodgeDiamond) -> str:
    return f"middle {d.middle_row()}"


# -- the three worked pairs --------------------------------------------------


@cache
def _pair(k: int, n: int) -> PairReport:
    """Both diamonds of a pair, computed once per `run_suite` call."""
    return check_pair_theorem(k, n)


Y2_DIAG_126 = [1, 1, 2, 22, 2, 1, 1]
Y1_MIDDLE_236 = [15, 672, 2271, 672, 15]
Y1_DIAG_236 = [1, 1, 2271, 1, 1]
Y2_MIDDLE_236 = [0, 15, 672, 2272, 672, 15, 0]
Y2_DIAG_236 = [1, 1, 2, 2272, 2, 1, 1]
CY_MIDDLE_347 = [1, 735, 41161, 395626, 825751, 395626, 41161, 735, 1]
CY_DIAG_347 = [1, 1, 2, 3, 825751, 3, 2, 1, 1]


def check_pair_126() -> list[CheckResult]:
    rep = _pair(1, 6)
    return [
        _expect("F(1,2,6): Y1 is 21 points", rep.diamond1.h(0, 0), 21),
        _diagonal_only(
            "F(1,2,6): Y2 diamond diagonal (1,1,2,22,2,1,1)", rep.diamond2,
            Y2_DIAG_126, [0, 0, 0, 22, 0, 0, 0], lambda d: f"diagonal {d.diagonal()}",
        ),
    ]


def check_pair_236() -> list[CheckResult]:
    rep = _pair(2, 6)
    return [
        _diagonal_only(
            "F(2,3,6): Y1 middle row (15,672,2271,672,15)", rep.diamond1,
            Y1_DIAG_236, Y1_MIDDLE_236, _middle,
        ),
        _diagonal_only(
            "F(2,3,6): Y2 middle row (0,15,672,2272,672,15,0)", rep.diamond2,
            Y2_DIAG_236, Y2_MIDDLE_236, _middle,
        ),
    ]


def check_pair_347() -> list[CheckResult]:
    rep = _pair(3, 7)
    return [
        _diagonal_only(
            f"F(3,4,7): {name} CY 8-fold middle row (1,735,41161,395626,825751,...)",
            d, CY_DIAG_347, CY_MIDDLE_347, _middle,
        )
        for name, d in (("Y1", rep.diamond1), ("Y2", rep.diamond2))
    ]


def check_hodge_theorem() -> list[CheckResult]:
    out = []
    for k, n in [(1, 5), (1, 6), (2, 5), (2, 6), (3, 7)]:
        rep = _pair(k, n)
        detail = f"v1={rep.v1}, v2={rep.v2}, shift={rep.shift}"
        if not rep.passed:
            detail = "; ".join(rep.failures[:3])
        out.append(CheckResult(f"middle v-rows match for ({k},{n})", rep.passed, detail))
        if (k, n) == (1, 6):
            out.append(
                _expect("v-dimensions for (1,6) are 20 = 20", (rep.v1[0], rep.v2[3]), (20, 20))
            )
        if (k, n) == (2, 6):
            out.append(
                _expect("central v-value for (2,6) is 2269", (rep.v1[2], rep.v2[3]), (2269, 2269))
            )
    return out


def check_grothendieck_identity() -> list[CheckResult]:
    out = []
    for k, n in [(1, 6), (2, 6), (2, 5), (3, 7)]:
        residual = _pair(k, n).residual
        out.append(
            CheckResult(
                f"Grothendieck-ring residual vanishes for ({k},{n})",
                residual is not None and residual.is_zero(),
                "no residual: a diamond is inexact" if residual is None
                else f"residual {residual}",
            )
        )
    return out


def check_b2() -> list[CheckResult]:
    # sweep over the pair domain n >= 2k+1 where Y2 is at least a surface
    failures = []
    excluded = []
    for k in range(1, 4):
        for n in range(2 * k + 1, 9):
            if (k + 1) * (n - k - 2) < 2:
                continue
            try:
                b2 = derive_b2(k, n)
                if b2 != 1:
                    failures.append(f"b2({k},{n})={b2}")
            except ExcludedCaseError:
                excluded.append((k, n))
    out = [
        CheckResult(
            "b2(Y2) = 1 across the sweep",
            not failures,
            "all 1" if not failures else "; ".join(failures),
        ),
        _expect("excluded case is exactly (1,4)", excluded, [(1, 4)]),
    ]
    return out


# -- roof classification golden ----------------------------------------------


def expected_roof_patterns(max_rank: int) -> set[tuple]:
    """Instances of every classification row realisable at rank <= max_rank,
    plus the rank-2 coincidence OF(1,3,7) and the two triality images of the
    OG(3,8) marking, written down independently of the classifier."""
    want: set[tuple] = set()
    for a in range(1, max_rank):
        for b in range(a, max_rank - a + 1):
            want.add((f"A{a}xA{b}", (1, a + 1), "AxA", f"P^{a}xP^{b}", b, a))
    for r in range(2, max_rank + 1):
        n = r + 1
        for k in range(1, r):
            want.add((f"A{r}", (k, k + 1), "A^G", f"F({k},{k + 1},{n})", n - k - 1, k))
        if r >= 3:
            want.add((f"A{r}", (1, r), "A^M", f"F(1,{n - 1},{n})", n - 2, n - 2))
    for m in range(2, max_rank + 1):
        want.add((f"B{m}", (m - 1, m), "B", f"OF({m - 1},{m},{2 * m + 1})", 1, m - 1))
    if max_rank >= 3:
        want.add(("B3", (1, 3), "B^s", "OF(1,3,7)", 3, 2))
    for m in range(3, max_rank + 1):
        for j in range(1, m):
            want.add((f"C{m}", (j, j + 1), "C", f"IF({j},{j + 1},{2 * m})", 2 * (m - j) - 1, j))
    for m in range(4, max_rank + 1):
        want.add((f"D{m}", (m - 1, m), "D", f"OG({m - 1},{2 * m})", m - 1, m - 1))
    if max_rank >= 4:
        want.add(("D4", (1, 3), "D^t", "D4/P{1,3}", 3, 3))
        want.add(("D4", (1, 4), "D^t", "D4/P{1,4}", 3, 3))
    if max_rank >= 4:
        want.add(("F4", (2, 3), "F4", "F4/P{2,3}", 2, 2))
    want.add(("G2", (1, 2), "G2", "G2/P{1,2}", 1, 1))
    return want


def _record_key(r: RoofRecord) -> tuple:
    return (r.group, r.marks, r.family, r.roof, r.fiber_dim1, r.fiber_dim2)


def check_roofs() -> list[CheckResult]:
    records = classify(8)
    got = {_record_key(r) for r in records}
    want = expected_roof_patterns(8)
    missing = want - got
    extra = got - want
    out = [
        CheckResult(
            "classification table at rank <= 8 matches the expected patterns",
            not missing and not extra,
            f"{len(records)} records"
            if not missing and not extra
            else f"missing {sorted(missing)[:3]}, extra {sorted(extra)[:3]}",
        )
    ]
    exceptional = [r for r in records if r.group[0] in "EFG"]
    out.append(
        _expect(
            "exceptional records are F4 {2,3} and G2 {1,2} only",
            sorted((r.group, r.marks) for r in exceptional),
            [("F4", (2, 3)), ("G2", (1, 2))],
        )
    )
    return out


# -- window collections --------------------------------------------------------

KAPRANOV_25 = [
    ((2, 2), (0, 0, 0)),
    ((2, 2), (1, 0, 0)),
    ((2, 2), (2, 0, 0)),
    ((2, 2), (1, 1, 0)),
    ((2, 2), (2, 1, 0)),
    ((2, 2), (2, 2, 0)),
    ((2, 2), (1, 1, 1)),
    ((2, 2), (2, 1, 1)),
    ((2, 2), (2, 2, 1)),
    ((2, 2), (2, 2, 2)),
]

KAPRANOV_25_BARMOVED = [
    ((2, 2, 0), (0, 0)),
    ((2, 2, 1), (0, 0)),
    ((2, 2, 2), (0, 0)),
    ((2, 2, 1), (1, 0)),
    ((2, 2, 2), (1, 0)),
    ((2, 2, 2), (2, 0)),
    ((2, 2, 1), (1, 1)),
    ((2, 2, 2), (1, 1)),
    ((2, 2, 2), (2, 1)),
    ((2, 2, 2), (2, 2)),
]


def check_windows() -> list[CheckResult]:
    kap = kapranov_collection(2, 5)
    got = {(w.upper, w.lower) for w in kap}
    want = set(KAPRANOV_25)
    out = [
        _expect("Kapranov collection on G(2,5) has the 10 published members", got, want)
    ]
    moved = bar_moved_collection(kap)
    got_moved = {(w.upper, w.lower) for w in moved}
    want_moved = {(tuple(u), tuple(l)) for u, l in KAPRANOV_25_BARMOVED}
    out.append(_expect("bar-moved collection matches member-for-member", got_moved, want_moved))
    sides = ((check_tilting_minus, "downstairs"), (check_tilting_plus, "upstairs"))
    for n in range(4, 9):
        for check, where in sides:
            rep = check(n, 8)
            out.append(
                CheckResult(
                    f"no higher self-extensions {where}, n={n}",
                    rep.passed,
                    f"{rep.checked_pairs} pairs, tail certified: {rep.tail_certified}"
                    if rep.passed
                    else f"{len(rep.failures)} failures",
                )
            )
    neg = check_tilting_minus(4, 8, box_cap=2)
    out.append(
        CheckResult(
            "negative control (box cap 2) produces failures",
            len(neg.failures) >= 1,
            f"{len(neg.failures)} failures recorded",
        )
    )
    return out


SUITES: dict[str, list[Callable[[], list[CheckResult]]]] = {
    "paper": [
        check_pair_126,
        check_pair_236,
        check_pair_347,
        check_hodge_theorem,
        check_grothendieck_identity,
        check_b2,
        check_roofs,
        check_windows,
    ],
}


def run_suite(name: str) -> list[CheckResult]:
    if name not in SUITES:
        raise UsageError(
            f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}"
        )
    results: list[CheckResult] = []
    try:
        for check in SUITES[name]:
            results.extend(check())
    finally:
        _pair.cache_clear()
    return results
