"""Checks of roofcalc's JSON outputs that share no code with roofcalc.

Each checker takes parsed CLI output and returns a list of problems (empty
when the output is right).  Nothing here imports roofcalc: Euler numbers come
from Atiyah-Bott localisation at the torus-fixed points of the Grassmannian,
Gaussian binomials from their product formula, and hypersurface diamonds from
Griffiths' Jacobian-ring formula.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations


# -- small polynomial helpers (coefficient lists, lowest degree first) ------


def _poly_mul(a: list[int], b: list[int], cap: int | None = None) -> list[int]:
    size = len(a) + len(b) - 1 if cap is None else min(len(a) + len(b) - 1, cap + 1)
    out = [0] * size
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b[: size - i]):
                out[i + j] += x * y
    return out


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    """Quotient of an exact division by a polynomial with constant term 1."""
    assert den[0] == 1
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out)):
        c = num[i]
        out[i] = c
        if c:
            for j, d in enumerate(den):
                num[i + j] -= c * d
    if any(num):
        raise ArithmeticError("division is not exact")
    return out


def gaussian_binomial(n: int, k: int) -> list[int]:
    """Coefficients of [n choose k]_q = prod_{i=1..k} (1-q^{n-k+i}) / (1-q^i);
    coefficient p counts partitions of p in the k x (n-k) box."""
    num = [1]
    den = [1]
    for i in range(1, k + 1):
        num = _poly_mul(num, [1] + [0] * (n - k + i - 1) + [-1])
        den = _poly_mul(den, [1] + [0] * (i - 1) + [-1])
    return _poly_div_exact(num, den)


# -- diamonds ------------------------------------------------------------------


def parse_diamond(block: dict) -> list[list[int]]:
    """The h-matrix of a `to_json_dict` diamond; inexact entries are errors."""
    rows = []
    for p, row in enumerate(block["h"]):
        if not all(block["exact"][p]):
            raise ValueError(f"row {p} has inexact entries")
        rows.append([int(x) for x in row])
    return rows


def euler_of(h: list[list[int]]) -> int:
    return sum((-1) ** (p + q) * v for p, row in enumerate(h) for q, v in enumerate(row))


def torus_weights(n: int, seed: int) -> list[int]:
    """Distinct integer weights, so every tangent weight x_i - x_j is nonzero."""
    return random.Random(seed).sample(range(-10_000, 10_001), n)


def localised_euler(k: int, n: int, bundle: str, x: list[int]) -> int:
    """Topological Euler number of the zero locus X of a general section of
    F = Q*(2) or U(2) on G(k,n):  e(X) = int_G c_r(F) c(T_G)/c(F),
    by Atiyah-Bott localisation at the fixed points I (k-subsets).

    At I: U* has weights x_i (i in I), Q* has x_j (j not in I), O(1) has
    sum_I x_i, and T_G = U* (x) Q has x_i - x_j."""
    dim_g = k * (n - k)
    total = Fraction(0)
    for sub in combinations(range(n), k):
        rest = [j for j in range(n) if j not in sub]
        o1 = sum(x[i] for i in sub)
        if bundle == "QD(2)":
            f = [x[j] + 2 * o1 for j in rest]
        elif bundle == "U(2)":
            f = [-x[i] + 2 * o1 for i in sub]
        else:
            raise ValueError(f"unknown bundle {bundle!r}")
        tangent = [x[i] - x[j] for i in sub for j in rest]
        d = dim_g - len(f)
        # [c(T_G) / c(F)] in degree d, as the t^d coefficient
        series = [1]
        for w in tangent:
            series = _poly_mul(series, [1, w], d)
        for w in f:
            inverse = [(-w) ** m for m in range(d + 1)]
            series = _poly_mul(series, inverse, d)
        top = series[d] if d < len(series) else 0
        euler_t = 1
        for w in tangent:
            euler_t *= w
        c_r = 1
        for w in f:
            c_r *= w
        total += Fraction(c_r * top, euler_t)
    if total.denominator != 1:
        raise ArithmeticError(f"localisation sum {total} is not an integer")
    return int(total)


def check_symmetries(h: list[list[int]]) -> list[str]:
    d = len(h) - 1
    bad = []
    for p in range(d + 1):
        for q in range(d + 1):
            if h[p][q] != h[q][p]:
                bad.append(f"Hodge symmetry fails at ({p},{q})")
            if h[p][q] != h[d - p][d - q]:
                bad.append(f"Serre duality fails at ({p},{q})")
    return bad


def check_lefschetz(h: list[list[int]], k: int, n: int) -> list[str]:
    """Below the middle row X looks like G(k,n): h^{p,p} counts partitions of
    p in the k x (n-k) box and off-diagonal entries vanish (the bundle is
    ample, so the Lefschetz hyperplane theorem applies)."""
    d = len(h) - 1
    box = gaussian_binomial(n, k)
    bad = []
    for p in range(d + 1):
        for q in range(d + 1 - p):
            if p + q >= d:
                continue
            want = (box[p] if p < len(box) else 0) if p == q else 0
            if h[p][q] != want:
                bad.append(f"Lefschetz: h^{{{p},{q}}} = {h[p][q]}, want {want}")
    return bad


def check_calabi_yau(h: list[list[int]]) -> list[str]:
    d = len(h) - 1
    bad = [f"CY: h^{{0,{q}}} = {h[0][q]}" for q in range(1, d) if h[0][q] != 0]
    if h[0][d] != 1:
        bad.append(f"CY: h^{{0,{d}}} = {h[0][d]}, want 1")
    return bad


def check_euler(h: list[list[int]], want: int) -> list[str]:
    got = euler_of(h)
    return [] if got == want else [f"Euler number {got}, localisation gives {want}"]


def _epoly(h: list[list[int]]) -> dict[tuple[int, int], int]:
    return {
        (p, q): (-1) ** (p + q) * v
        for p, row in enumerate(h)
        for q, v in enumerate(row)
        if v
    }


def _epoly_add(acc: dict, poly: dict, scale: int, shift: int) -> None:
    for (p, q), c in poly.items():
        key = (p + shift, q + shift)
        acc[key] = acc.get(key, 0) + scale * c


def check_grothendieck(h1: list[list[int]], h2: list[list[int]], k: int, n: int) -> list[str]:
    """(uv)^k E(Y2) - (uv)^{n-k-1} E(Y1) + E(G(k+1,n)) E(P^{k-1})
    - E(G(k,n)) E(P^{n-k-2}) = 0, with E(G) and E(P) from Gaussian binomials."""

    def diagonal(coeffs: list[int]) -> dict:
        return {(i, i): c for i, c in enumerate(coeffs) if c}

    def times_projective(coeffs: list[int], m: int) -> dict:
        return diagonal(_poly_mul(coeffs, [1] * (m + 1))) if m >= 0 else {}

    residual: dict[tuple[int, int], int] = {}
    _epoly_add(residual, _epoly(h2), 1, k)
    _epoly_add(residual, _epoly(h1), -1, n - k - 1)
    _epoly_add(residual, times_projective(gaussian_binomial(n, k + 1), k - 1), 1, 0)
    _epoly_add(residual, times_projective(gaussian_binomial(n, k), n - k - 2), -1, 0)
    left = {pq: c for pq, c in residual.items() if c}
    return [] if not left else [f"Grothendieck residual {sorted(left.items())[:3]}"]


def pair_checks(k: int, n: int, euler1: int, euler2: int):
    """Checkers for the diamonds of `pair --k k --n n`, given the localised
    Euler numbers of Y1 and Y2.  Each takes (h1, h2)."""
    return {
        "euler": lambda h1, h2: check_euler(h1, euler1) + check_euler(h2, euler2),
        "lefschetz": lambda h1, h2: check_lefschetz(h1, k, n) + check_lefschetz(h2, k + 1, n),
        "symmetry": lambda h1, h2: check_symmetries(h1) + check_symmetries(h2),
        "calabi_yau": lambda h1, h2: check_calabi_yau(h1) + check_calabi_yau(h2),
        "grothendieck": lambda h1, h2: check_grothendieck(h1, h2, k, n),
    }


def check_pair_output(out: dict, k: int, n: int, checks) -> list[str]:
    o = out["outputs"]
    h1 = parse_diamond(o["diamond1"])
    h2 = parse_diamond(o["diamond2"])
    bad = [f"{name}: {msg}" for name, fn in checks.items() for msg in fn(h1, h2)]
    if not o["middleRowsMatch"] or o["failures"]:
        bad.append(f"pair report failed: {o['failures'][:3]}")
    if o["grothendieckIdentityHolds"] is not True or o["residual"] != "0":
        bad.append(f"roofcalc reports residual {o['residual']}")
    return bad


# -- hypersurfaces -----------------------------------------------------------


def griffiths_diamond(big_n: int, degree: int) -> list[list[int]]:
    """Diamond of a smooth degree-`degree` hypersurface in P^N.  With Jacobian
    ring Hilbert series ((1 - t^{d-1}) / (1 - t))^{N+1}, the primitive
    h^{p,m-p} is its coefficient of t^{(m-p+1)d - N - 1}, m = N - 1."""
    m = big_n - 1
    step = [1] * (degree - 1)
    hilbert = [1]
    for _ in range(big_n + 1):
        hilbert = _poly_mul(hilbert, step)
    h = [[int(p == q) for q in range(m + 1)] for p in range(m + 1)]
    for p in range(m + 1):
        e = (m - p + 1) * degree - big_n - 1
        h[p][m - p] += hilbert[e] if 0 <= e < len(hilbert) else 0
    return h


def check_hypersurface_output(out: dict, big_n: int, degree: int) -> list[str]:
    h = parse_diamond(out["outputs"]["diamond"])
    want = griffiths_diamond(big_n, degree)
    if h == want:
        return []
    diffs = [
        f"h^{{{p},{q}}} = {h[p][q]}, Griffiths gives {want[p][q]}"
        for p in range(len(want))
        for q in range(len(want))
        if p >= len(h) or q >= len(h) or h[p][q] != want[p][q]
    ]
    return diffs[:3] or [f"dimension {len(h) - 1}, want {len(want) - 1}"]


# -- the paper suite -----------------------------------------------------------

PAPER_CHECKS = 34


def check_suite_output(out: dict) -> list[str]:
    checks = out["outputs"]["checks"]
    bad = [f"FAIL {c['name']}: {c['detail']}" for c in checks if not c["passed"]]
    if len(checks) < PAPER_CHECKS:
        bad.append(f"only {len(checks)} checks reported, want >= {PAPER_CHECKS}")
    if out["outputs"]["passed"] != len(checks):
        bad.append(f"{out['outputs']['passed']}/{len(checks)} checks passed")
    return bad


# -- self-test -------------------------------------------------------------------


def _perturbed(h: list[list[int]], p: int, q: int, delta: int) -> list[list[int]]:
    out = [list(row) for row in h]
    out[p][q] += delta
    return out


def self_test_pair(h1: list[list[int]], h2: list[list[int]], checks) -> list[str]:
    """Every checker accepts the diamonds it was given; each one rejects a
    single entry changed by one inside its domain; together they reject
    every single-entry change of either diamond."""
    bad = [f"{name} rejects the unperturbed diamonds" for name, fn in checks.items() if fn(h1, h2)]
    d1, d2 = len(h1) - 1, len(h2) - 1
    probes = {
        "euler": (1, d1 // 2, d1 - d1 // 2),
        "lefschetz": (2, 1, 1),
        "symmetry": (1, 0, 1),
        "calabi_yau": (1, 0, 1),
        "grothendieck": (2, d2 // 2, d2 - d2 // 2),
    }
    for name, (which, p, q) in probes.items():
        if name not in checks:
            continue
        for delta in (1, -1):
            args = (_perturbed(h1, p, q, delta), h2) if which == 1 else (h1, _perturbed(h2, p, q, delta))
            if not checks[name](*args):
                bad.append(f"{name} accepts h{which}^{{{p},{q}}} changed by {delta:+d}")
    for which, h in ((1, h1), (2, h2)):
        for p in range(len(h)):
            for q in range(len(h)):
                for delta in (1, -1):
                    bad_h = _perturbed(h, p, q, delta)
                    args = (bad_h, h2) if which == 1 else (h1, bad_h)
                    if not any(fn(*args) for fn in checks.values()):
                        bad.append(f"no checker rejects h{which}^{{{p},{q}}} {delta:+d}")
    return bad


def self_test_hypersurface(out: dict, big_n: int, degree: int) -> list[str]:
    bad = check_hypersurface_output(out, big_n, degree)
    block = out["outputs"]["diamond"]
    size = len(block["h"])
    for p in range(size):
        for q in range(size):
            for delta in (1, -1):
                h = [list(row) for row in block["h"]]
                h[p][q] = str(int(h[p][q]) + delta)
                if not check_hypersurface_output({"outputs": {"diamond": dict(block, h=h)}}, big_n, degree):
                    bad.append(f"Griffiths check accepts h^{{{p},{q}}} {delta:+d}")
    return bad


def self_test_suite(out: dict) -> list[str]:
    bad = check_suite_output(out)
    checks = out["outputs"]["checks"]
    failed = dict(out["outputs"], checks=[dict(checks[0], passed=False)] + checks[1:])
    if not check_suite_output({"outputs": failed}):
        bad.append("suite check accepts a failed check")
    if not check_suite_output({"outputs": dict(failed, checks=checks[1:], passed=len(checks) - 1)}):
        bad.append("suite check accepts a missing check")
    return bad
