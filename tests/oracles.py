"""Independent brute-force oracles used to pin expected test values.

These deliberately avoid the code paths they check: Schur polynomials are
expanded monomial-by-monomial from semistandard tableaux, dimensions are
tableau counts, cohomology on projective space comes from the classical
closed-form expressions, and diamonds are held to Hodge symmetry, Serre
duality and their Euler columns entry by entry.
"""

from __future__ import annotations

from itertools import product
from math import comb


def ssyt_monomials(shape: tuple[int, ...], nvars: int):
    """Yield the content vector of every semistandard tableau of `shape`
    with entries in 1..nvars (weakly increasing rows, strict columns)."""
    rows = [r for r in shape if r > 0]
    if not rows:
        yield (0,) * nvars
        return

    def fill(r: int, above: tuple[int, ...], acc: list[tuple[int, ...]]):
        width = rows[r]
        # enumerate one weakly increasing row dominating the row above
        def row_fill(c: int, prev: int, current: list[int]):
            if c == width:
                yield tuple(current)
                return
            lo = prev
            if above and c < len(above):
                lo = max(lo, above[c] + 1)
            for v in range(lo, nvars + 1):
                current.append(v)
                yield from row_fill(c + 1, v, current)
                current.pop()

        for row in row_fill(0, 1, []):
            if r + 1 == len(rows):
                yield acc + [row]
            else:
                yield from fill(r + 1, row, acc + [row])

    for tableau in fill(0, (), []):
        content = [0] * nvars
        for row in tableau:
            for v in row:
                content[v - 1] += 1
        yield tuple(content)


def schur_polynomial(shape: tuple[int, ...], nvars: int) -> dict[tuple[int, ...], int]:
    """Monomial expansion of s_shape in nvars variables."""
    out: dict[tuple[int, ...], int] = {}
    for mono in ssyt_monomials(shape, nvars):
        out[mono] = out.get(mono, 0) + 1
    return out


def poly_multiply(a: dict, b: dict) -> dict:
    out: dict[tuple[int, ...], int] = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            key = tuple(x + y for x, y in zip(ma, mb))
            out[key] = out.get(key, 0) + ca * cb
    return out


def decompose_into_schur(poly: dict, nvars: int) -> dict[tuple[int, ...], int]:
    """Greedy decomposition: repeatedly strip the lexicographically largest
    monomial, which is always a partition with coefficient its multiplicity."""
    work = {m: c for m, c in poly.items() if c}
    out: dict[tuple[int, ...], int] = {}
    while work:
        lead = max(work)
        coeff = work[lead]
        assert all(a >= b for a, b in zip(lead, lead[1:])), (
            f"leading monomial {lead} is not a partition"
        )
        out[lead] = coeff
        for mono, c in schur_polynomial(lead, nvars).items():
            work[mono] = work.get(mono, 0) - coeff * c
            if work[mono] == 0:
                del work[mono]
    return out


def schur_product_oracle(
    lam: tuple[int, ...], mu: tuple[int, ...], rank: int
) -> dict[tuple[int, ...], int]:
    """s_lam * s_mu in `rank` variables, re-decomposed into Schur terms."""
    prod = poly_multiply(schur_polynomial(lam, rank), schur_polynomial(mu, rank))
    return decompose_into_schur(prod, rank)


def count_ssyt(shape: tuple[int, ...], nvars: int) -> int:
    return sum(1 for _ in ssyt_monomials(shape, nvars))


def projective_space_omega_cohomology(n: int, p: int, t: int) -> dict[int, int]:
    """h^q(P^n, Omega^p(t)) by the classical closed form."""
    out: dict[int, int] = {}
    if t > p:
        h0 = comb(t + n - p, t) * comb(t - 1, p)
        if h0:
            out[0] = h0
    if t == 0 and 0 <= p <= n:
        out[p] = out.get(p, 0) + 1
    if t < p - n:
        hn = comb(-t + p, -t) * comb(-t - 1, n - p)
        if hn:
            out[n] = out.get(n, 0) + hn
    return {q: v for q, v in out.items() if v}


def partitions_up_to(size: int, max_parts: int):
    """All partitions of every size <= `size` with at most `max_parts` parts."""
    def rec(remaining: int, maxpart: int, acc: tuple[int, ...]):
        yield acc
        if len(acc) == max_parts:
            return
        for part in range(min(maxpart, remaining), 0, -1):
            yield from rec(remaining - part, part, acc + (part,))

    seen = set()
    for lam in rec(size, size, ()):
        if lam not in seen:
            seen.add(lam)
            yield lam


def brute_force_box(a: int, b: int) -> set[tuple[int, ...]]:
    """Every dominance-filtered tuple in [0,b]^a, by full enumeration."""
    return {
        w
        for w in product(range(b + 1), repeat=a)
        if all(x >= y for x, y in zip(w, w[1:]))
    }


def gaussian_binomial(n: int, k: int) -> tuple[int, ...]:
    """Coefficients of the Gaussian binomial [n choose k]_q, lowest degree
    first, by the q-Pascal recursion [n, k] = [n-1, k-1] + q^k [n-1, k]."""
    if k < 0 or k > n:
        return ()
    if k in (0, n):
        return (1,)
    out = [0] * (k * (n - k) + 1)
    for i, c in enumerate(gaussian_binomial(n - 1, k - 1)):
        out[i] += c
    for i, c in enumerate(gaussian_binomial(n - 1, k)):
        out[i + k] += c
    return tuple(out)


def q_integer(n: int, step: int = 1) -> tuple[int, ...]:
    """[n]_{q^step} = 1 + q^step + ... + q^(step (n-1)), lowest degree first."""
    out = [0] * (step * (n - 1) + 1)
    for i in range(n):
        out[step * i] = 1
    return tuple(out)


def q_multiply(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def dual_schur_q(lam: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """The dual of S_lam Q* as (weight, twist): S_lam_bar Q* (x) O(lam_1),
    with lam_bar = (lam_1 - lam_r, ..., lam_1 - lam_2, 0)."""
    top = lam[0]
    return tuple(top - e for e in reversed(lam[1:])) + (0,), top


def check_diamond(grid: list[list[tuple[int, int]]], chis: list[int]) -> None:
    """Theorems every diamond of a smooth projective variety obeys, on a grid
    of intervals (lo, hi) indexed [p][q]: Hodge symmetry h^{p,q} = h^{q,p}
    and Serre duality h^{p,q} = h^{d-p,d-q} wherever both entries are exact,
    and each Euler column chi_p inside the range of sum_q (-1)^q h^{p,q}.
    Raises AssertionError naming the first failure."""
    d = len(grid) - 1
    for p, row in enumerate(grid):
        for q, (lo, hi) in enumerate(row):
            if lo != hi:
                continue
            for name, (a, b) in (("Hodge", grid[q][p]), ("Serre", grid[d - p][d - q])):
                if a == b != lo:
                    raise AssertionError(f"{name} symmetry fails at ({p},{q}): {lo} != {a}")
    for p, chi in enumerate(chis):
        lo = sum(-b if q % 2 else a for q, (a, b) in enumerate(grid[p]))
        hi = sum(-a if q % 2 else b for q, (a, b) in enumerate(grid[p]))
        if not lo <= chi <= hi:
            raise AssertionError(f"Euler column {p}: chi={chi} outside [{lo},{hi}]")


def expr_items(expr) -> list[tuple[tuple[int, ...], int]]:
    """A `BundleExpr`'s terms as the (upper + lower, multiplicity) items
    that `bwb.tensor_cohomology` and `bwb.euler_characteristic` read."""
    return [(w.concat(), m) for w, m in expr.terms]
