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

One walk, `_sequences`, yields every such seq without a repeated entry, and
`tensor_cohomology` and `euler_characteristic` read it.  `bott` is the case
W trivial, with the one seq lam + rho_G, so it tests that for a repeat
directly.  W may be graded, W = (W_0, W_1, ...), as the Koszul layers
wedge^s F* are; a `Character` holds every layer under one mask layout, so
each term's gaps are marked once.  The repeat test is one AND of two
bitmasks.  Entries i < j of seq = s + nu, with s = lam + rho_G, collide
exactly when s_i - s_j = nu_j - nu_i.  A `Character` is prepared once, where it is built: each
active pair (i, j) gives each distinct value of nu_j - nu_i over the
weights a bit of its own, and each weight's mask holds its value's bit for
every pair.  Masks thus grow with the number of weights, never with the
size of their entries.  Per term the walk sets, once, the bit of each gap
s_i - s_j that some weight takes, and keeps nu only when its mask misses
all of them.  The active pairs are every cross-block pair and each
same-block pair whose two character columns differ: if the columns are
identical, nu_j - nu_i = 0, and s is strictly decreasing within each block,
so that pair never collides.

The Vandermonde prod_{i<j} (seq_i - seq_j) carries the Klimyk sign times
(-1)^degree, degree being the cross-block inversions of seq.
`euler_characteristic` sums it times (-1)^s c, which is chi(E (x) sum_s
(-1)^s W_s), as the sum is linear.  `tensor_cohomology` buckets (-1)^degree
c times it by (s, degree): terms that cancel are the same L-irreducible, in
the same layer and degree, so each bucket is one dimension times
prod (j - i), and `_weyl_quotient` divides it exactly.  (Buckets by degree
alone would, with the signs (-1)^s c, subtract the dimensions of different
layers.)  The totals are keyed by the antidiagonal m = degree - s.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import combinations, product, repeat, starmap
from math import factorial, prod
from operator import add, lt, sub

from .weights import DoubleWeight, Value, Weight, check_dominant


class BottResult(Value):
    """Outcome of the algorithm: acyclic, or one degree with one irrep."""

    __slots__ = ("acyclic", "degree", "weight", "dimension")

    def __init__(
        self, acyclic: bool, degree: int | None = None,
        weight: Weight | None = None, dimension: int | None = None,
    ):
        self.acyclic, self.degree = acyclic, degree
        self.weight, self.dimension = weight, dimension


def rho(n: int) -> Weight:
    return tuple(range(n - 1, -1, -1))


def _weyl_quotient(num: int, n: int) -> int:
    """A Weyl numerator (or a sum of them) over prod_{i<j} (j - i), which is
    0! 1! ... (n-1)!; exact and non-negative by the Weyl dimension formula."""
    q, r = divmod(num, prod(map(factorial, range(n))))
    assert r == 0 and q >= 0, (num, n)
    return q


class Character:
    """A torus character of GL(k) x GL(n-k), in layers, prepared for `_sequences`.

    Built from a list of layers (a plain character is one layer), layers[s]
    mapping each weight (upper block, then lower block) to its multiplicity,
    which may be negative.  `pairs` lists (i, j, bits) for each active pair,
    bits mapping each value of nu_j - nu_i over all weights to a bit of its
    own; `weights` lists (nu, s, (-1)^s c, mask), mask holding the bit of
    nu_j - nu_i of every pair (see the module docstring).
    """

    __slots__ = ("n", "pairs", "weights")

    def __init__(self, layers: list[dict[Weight, int]], k: int, n: int):
        self.n = n
        union = dict.fromkeys(nu for layer in layers for nu in layer)
        columns = list(zip(*union)) or [()] * n
        pairs = []
        width = 0
        for i, j in combinations(range(n), 2):
            if i < k <= j or columns[i] != columns[j]:
                diffs = dict.fromkeys(map(sub, columns[j], columns[i]))
                bits = {d: 1 << b for b, d in enumerate(diffs, width)}
                width += len(bits)
                pairs.append((i, j, bits))
        self.pairs = tuple(pairs)
        self.weights = tuple(
            (nu, s, -c if s & 1 else c, sum(bits[nu[j] - nu[i]] for i, j, bits in pairs))
            for s, layer in enumerate(layers)
            for nu, c in layer.items()
        )


def _sequences(
    terms: Iterable[tuple[DoubleWeight, int]], character: Character
) -> Iterator[tuple[int, int, Weight]]:
    """(mult * (-1)^s c, s, seq) for each term (lam, mult) and weight nu of
    multiplicity c in layer s of `character`, with seq = lam + nu + rho,
    skipping every seq with a repeated entry (it has no cohomology).  The
    gaps of lam + rho are marked once per term, and a weight is skipped when
    its collision mask meets them, before its seq is built."""
    r = rho(character.n)
    pairs, weights = character.pairs, character.weights
    for w, mult in terms:
        shifted = tuple(map(add, w.concat(), r))
        gaps = 0
        for i, j, bits in pairs:
            gaps |= bits.get(shifted[i] - shifted[j], 0)
        for nu, s, c, mask in weights:
            if not mask & gaps:
                yield mult * c, s, tuple(map(add, shifted, nu))


def _degree(seq: Weight, k: int) -> int:
    """Bott degree: the cross-block inversions, i < k <= j with seq_i < seq_j."""
    return sum(starmap(lt, product(seq[:k], seq[k:])))


def _vandermonde(seq: Weight) -> int:
    """prod_{i<j} (seq_i - seq_j), signed by (-1)^(all inversions)."""
    return prod(starmap(sub, combinations(seq, 2)))


def bott(w: DoubleWeight) -> BottResult:
    """All cohomology of the irreducible homogeneous bundle labelled by w."""
    n = w.n
    seq = tuple(map(add, w.concat(), rho(n)))
    if len(set(seq)) < n:
        return BottResult(acyclic=True)
    # both blocks are dominant, so all inversions are cross-block ones
    weight = tuple(map(sub, sorted(seq, reverse=True), rho(n)))
    dim = _weyl_quotient(abs(_vandermonde(seq)), n)
    return BottResult(False, _degree(seq, w.k), weight, dim)


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


def tensor_cohomology(expr: "BundleExpr", character: Character) -> dict[int, int]:
    """Totals of H^*(G(k,n), E (x) W_s) on antidiagonals, by Klimyk and Bott.

    E is `expr`; the layers W_s of `character` are representations of
    GL(k) x GL(n-k).  Entry m sums dim H^{m+s}(E (x) W_s) over s; for one
    layer, it is the dimension in degree m.  Zero totals are left out.  See
    the module docstring for why the signed sums are exact.
    """
    k, n = expr.ambient
    buckets: dict[tuple[int, int], int] = {}
    for c, s, seq in _sequences(expr.terms, character):
        key = (s, _degree(seq, k))
        num = _vandermonde(seq)
        buckets[key] = buckets.get(key, 0) + (-c if (key[1] - s) & 1 else c) * num
    out: dict[int, int] = {}
    for (s, degree), num in sorted(buckets.items()):
        dim = _weyl_quotient(num, n)
        if dim:
            out[degree - s] = out.get(degree - s, 0) + dim
    return out


def euler_characteristic(expr: "BundleExpr", character: Character) -> int:
    """chi(G(k,n), E (x) W) with E = `expr` and W = sum_s (-1)^s W_s over the
    layers of `character`, as in `tensor_cohomology`; W may be virtual
    (negative multiplicities).

    The sum of the Vandermondes of the walk; see the module docstring.
    """
    walk = _sequences(expr.terms, character)
    num = sum(c * _vandermonde(seq) for c, _, seq in walk)
    chi = _weyl_quotient(abs(num), character.n)
    return chi if num >= 0 else -chi
