"""Borel-Weil-Bott on G(k,n) and GL(n) dimension arithmetic.

For an irreducible bundle labelled (upper|lower), form the total sequence
s = (upper, lower) + rho with rho = (n-1, ..., 1, 0).  If s has a repeated
entry the bundle is acyclic; otherwise all cohomology sits in a single degree
equal to the number of inversions of s (the minimal transposition count that
sorts s strictly decreasing), and the group is the GL(n) representation of
highest weight sort_desc(s) - rho.

The sort here is to the strictly *decreasing* chamber: dominant total
sequences must land in degree zero with H^0 the space of sections, which
the trivial examples pin down.

Klimyk-Bott shortcut (`tensor_cohomology`).  The cohomology of E (x) W, for
E irreducible with label lam and W any representation of the Levi
L = GL(k) x GL(n-k), needs no Littlewood-Richardson decomposition.  By
Klimyk's formula (Racah-Speiser reflection), E (x) W is the signed sum over
the weights nu of W of the L-irreducible obtained by sorting lam + nu + rho_L
within each block, with sign (-1)^(within-block inversions), or zero if that
has a repeat.  Since rho_G - rho_L is constant on each block, Bott's theorem
then acts on the same sequence seq = lam + nu + rho_G, sorted within blocks.
So each weight contributes sign * |prod_{i<j} (seq_i - seq_j)| / prod_{i<j}
(j - i) in degree (cross-block inversions of seq), and nothing if seq has a
repeated entry.  Two terms that cancel in Klimyk's sum are the same
L-irreducible and so have the same degree: per-degree totals are exact.

Euler characteristics (`euler_characteristic`) need even less.  The plain
Vandermonde prod_{i<j} (seq_i - seq_j) is zero on a repeated entry and
carries the sign (-1)^(all inversions), which is the Klimyk sign times
(-1)^degree.  So chi(G, E (x) W) is the sum of the Vandermondes of all
seq = lam + nu + rho_G, weighted by multiplicities, over prod_{i<j} (j - i):
no repeat test, no inversion count and one division.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product, repeat, starmap
from math import factorial, prod
from operator import add, lt, sub
from typing import TYPE_CHECKING

from .weights import DoubleWeight, Weight, check_dominant

if TYPE_CHECKING:  # pragma: no cover
    from .bundles import BundleExpr


@dataclass(frozen=True)
class BottResult:
    """Outcome of the algorithm: acyclic, or one degree with one irrep."""

    acyclic: bool
    degree: int | None = None
    weight: Weight | None = None
    dimension: int | None = None


def rho(n: int) -> Weight:
    return tuple(range(n - 1, -1, -1))


def _weyl_quotient(num: int, n: int) -> int:
    """A Weyl numerator (or a sum of them) over prod_{i<j} (j - i), which is
    0! 1! ... (n-1)!; exact and non-negative by the Weyl dimension formula."""
    q, r = divmod(num, prod(map(factorial, range(n))))
    assert r == 0 and q >= 0, (num, n)
    return q


def _bott_sort(seq: Weight, k: int) -> tuple[int, int] | None:
    """Bott's sort of a rho-shifted sequence whose first k entries form the
    upper block.

    None when an entry repeats (no cohomology).  Otherwise (degree, num):
    degree counts the cross-block inversions (i < k <= j with
    seq_i < seq_j), and num is (-1)^(within-block inversions) times
    prod_{i<j} |seq_i - seq_j|, the Weyl numerator of the sorted sequence.
    """
    if len(set(seq)) < len(seq):
        return None
    degree = sum(starmap(lt, product(seq[:k], seq[k:])))
    num = prod(starmap(sub, combinations(seq, 2)))
    # num carries (-1)^(all inversions); drop the cross-block ones
    return degree, -num if degree & 1 else num


def bott(w: DoubleWeight) -> BottResult:
    """All cohomology of the irreducible homogeneous bundle labelled by w."""
    n = w.n
    s = tuple(a + b for a, b in zip(w.concat(), rho(n)))
    res = _bott_sort(s, w.k)
    if res is None:
        return BottResult(acyclic=True)
    # both blocks are dominant, so s has no within-block inversions: num > 0
    degree, num = res
    weight = tuple(a - b for a, b in zip(sorted(s, reverse=True), rho(n)))
    return BottResult(False, degree, weight, _weyl_quotient(num, n))


def gl_dimension(mu: Weight) -> int:
    """Weyl dimension formula: prod_{i<j} (mu_i - mu_j + j - i)/(j - i), exact.

    A pair with mu_i = mu_j contributes 1.  Equal entries of a dominant
    weight are contiguous, so each i is paired only with the j past its run,
    and wide constant blocks cost linear time.
    """
    mu = check_dominant(mu)
    n = len(mu)
    s = tuple(map(add, mu, rho(n)))
    num = den = 1
    end = 0  # first index past the run of entries equal to mu[i]
    for i, a in enumerate(mu):
        while end < n and mu[end] == a:
            end += 1
        num *= prod(map(sub, repeat(s[i], n - end), s[end:]))
        den *= prod(range(end - i, n - i))
    return num // den


def tensor_cohomology(
    expr: "BundleExpr", character: dict[Weight, int]
) -> dict[int, int]:
    """Per-degree dimensions of H^*(G(k,n), E (x) W), by Klimyk and Bott.

    E is `expr`; W is a representation of GL(k) x GL(n-k) given by its
    `character`, which maps each weight (upper block, then lower block) to
    its multiplicity.  Degrees with zero total are left out.  See the module
    docstring for why the signed per-degree sums are exact.
    """
    k, n = expr.ambient
    r = rho(n)
    buckets: dict[int, int] = {}
    for w, mult in expr.terms:
        shifted = tuple(map(add, w.concat(), r))
        for nu, c in character.items():
            res = _bott_sort(tuple(map(add, shifted, nu)), k)
            if res is not None:
                degree, num = res
                buckets[degree] = buckets.get(degree, 0) + mult * c * num
    out = {}
    for degree, num in sorted(buckets.items()):
        dim = _weyl_quotient(num, n)
        if dim:
            out[degree] = dim
    return out


def euler_characteristic(expr: "BundleExpr", character: dict[Weight, int]) -> int:
    """chi(G(k,n), E (x) W) with E = `expr` and W given by its `character`,
    as in `tensor_cohomology`; W may be virtual (negative multiplicities).

    Each weight contributes its signed Vandermonde; see the module docstring.
    """
    r = rho(expr.n)
    num = 0
    for w, mult in expr.terms:
        shifted = tuple(map(add, w.concat(), r))
        num += mult * sum(
            c * prod(starmap(sub, combinations(map(add, shifted, nu), 2)))
            for nu, c in character.items()
        )
    chi = _weyl_quotient(abs(num), expr.n)
    return chi if num >= 0 else -chi
