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

Klimyk-Bott shortcut.  The cohomology of E (x) W, for E irreducible with
label lam and W any representation of the Levi L = GL(k) x GL(n-k), needs
no Littlewood-Richardson decomposition.  By Klimyk's formula (Racah-Speiser
reflection), E (x) W is the signed sum over the weights nu of W of the
L-irreducible obtained by sorting lam + nu + rho_L within each block, with
sign (-1)^(within-block inversions), or zero if that has a repeat.  Since
rho_G - rho_L is constant on each block, Bott's theorem then acts on the
same sequence seq = lam + nu + rho_G, sorted within blocks.

One walk, `_sequences`, yields every such seq without a repeated entry,
and `bott` (W trivial), `tensor_cohomology` and `euler_characteristic` read
it.  The Vandermonde prod_{i<j} (seq_i - seq_j) carries the Klimyk sign
times (-1)^degree, degree being the cross-block inversions of seq, so
`tensor_cohomology` buckets (-1)^degree times it by degree (terms that
cancel are the same L-irreducible, in the same degree, so the totals are
exact) and `euler_characteristic` just sums it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product, repeat, starmap
from math import factorial, prod
from operator import add, lt, sub
from typing import TYPE_CHECKING, Iterable, Iterator

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


def _sequences(
    terms: Iterable[tuple[DoubleWeight, int]], n: int, character: dict[Weight, int]
) -> Iterator[tuple[int, Weight]]:
    """(mult * c, seq) for each term (lam, mult) and weight nu of multiplicity
    c in `character`, with seq = lam + nu + rho; sequences with a repeated
    entry have no cohomology and are skipped."""
    r = rho(n)
    for w, mult in terms:
        shifted = tuple(map(add, w.concat(), r))
        for nu, c in character.items():
            seq = tuple(map(add, shifted, nu))
            if len(set(seq)) == n:
                yield mult * c, seq


def _degree(seq: Weight, k: int) -> int:
    """Bott degree: the cross-block inversions, i < k <= j with seq_i < seq_j."""
    return sum(starmap(lt, product(seq[:k], seq[k:])))


def _vandermonde(seq: Weight) -> int:
    """prod_{i<j} (seq_i - seq_j), signed by (-1)^(all inversions)."""
    return prod(starmap(sub, combinations(seq, 2)))


def bott(w: DoubleWeight) -> BottResult:
    """All cohomology of the irreducible homogeneous bundle labelled by w."""
    n = w.n
    for _, seq in _sequences(((w, 1),), n, {(0,) * n: 1}):
        # both blocks are dominant, so all inversions are cross-block ones
        weight = tuple(map(sub, sorted(seq, reverse=True), rho(n)))
        dim = _weyl_quotient(abs(_vandermonde(seq)), n)
        return BottResult(False, _degree(seq, w.k), weight, dim)
    return BottResult(acyclic=True)


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
    buckets: dict[int, int] = {}
    for c, seq in _sequences(expr.terms, n, character):
        degree = _degree(seq, k)
        num = _vandermonde(seq)
        buckets[degree] = buckets.get(degree, 0) + (-c if degree & 1 else c) * num
    out = {}
    for degree, num in sorted(buckets.items()):
        dim = _weyl_quotient(num, n)
        if dim:
            out[degree] = dim
    return out


def euler_characteristic(expr: "BundleExpr", character: dict[Weight, int]) -> int:
    """chi(G(k,n), E (x) W) with E = `expr` and W given by its `character`,
    as in `tensor_cohomology`; W may be virtual (negative multiplicities).

    The sum of the Vandermondes of the walk; see the module docstring.
    """
    n = expr.n
    num = sum(c * _vandermonde(seq) for c, seq in _sequences(expr.terms, n, character))
    chi = _weyl_quotient(abs(num), n)
    return chi if num >= 0 else -chi
