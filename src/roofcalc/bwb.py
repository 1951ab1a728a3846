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

One walk, `_walk`, finds every such seq without a repeated entry, and
`tensor_cohomology` and `euler_characteristic` read it.  Their input E is a
sum of (upper + lower, multiplicity) items in any uniform shift (no
canonical form is needed: the collisions, the Vandermonde and the Bott
degree read differences alone).  `bott` is the case W trivial, with the one
seq lam + rho_G, so it tests that for a repeat directly.  W may be graded,
W = (W_0, W_1, ...), as the Koszul layers wedge^s F* are; a `Character`
holds every weight of every layer as one record, under one layout, so each
term's gaps are looked up once.  Entries i < j of seq = s + nu, with
s = lam + rho_G, collide exactly when s_i - s_j = nu_j - nu_i.  A
`Character` is prepared once, where it is built: each active pair (i, j)
maps each value of nu_j - nu_i over the records to the bitset of the
records that take it, one bit per record, and pairs between the same two
columns share that map.  The bitsets thus grow with the number of weights,
never with the size of their entries.  The active pairs are every
cross-block pair and each same-block pair at which some weight has
nu_i != nu_j.  The other same-block pairs join two positions of one class,
the positions of a block whose columns are equal on every weight; there
nu_j - nu_i = 0, and s is strictly decreasing within each block, so they
never collide.  The set-up lists the classes and the active pairs only,
so it grows with the active pairs, not with n^2.

Per term the walk computes the active gaps s_i - s_j once and joins the
bitsets they hit into the set of records whose sequence has a repeat; the
binary digits of that bitset flag the records kept.  The Vandermonde
prod_{i<j} (seq_i - seq_j) of a kept nu is the fixed factor, the product of
the gaps that no weight moves, times the product of gap + offset over the
active pairs, offset = nu_i - nu_j.  The fixed factor is the product, over
the classes of equal columns of one block, of the Vandermonde of s at the
class's positions; s is strictly decreasing there, so `_run_vandermonde`
builds it from runs of consecutive integers, and the `Character` keeps it
by s at all class positions, so the walk takes it once per distinct key.
A record's offsets are computed the first time it survives and then kept,
so a large character that few terms reach never holds them all.  Each
survivor costs one product.

The Vandermonde carries the Klimyk sign times (-1)^degree, degree being the
cross-block inversions of seq, that is, the negative cross factors (the
cross pairs lead the active ones).  `euler_characteristic` sums it times
(-1)^s c, which is chi(E (x) sum_s (-1)^s W_s), as the sum is linear.
`tensor_cohomology` buckets (-1)^degree c times it by (s, degree): terms
that cancel are the same L-irreducible, in the same layer and degree, so
each bucket is one dimension times prod (j - i) = 0! 1! ... (n-1)!, and
`_weyl_quotient` divides it exactly.  (Buckets by degree alone would, with
the signs (-1)^s c, subtract the dimensions of different layers.)  The
totals are keyed by the antidiagonal m = degree - s.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import cache, reduce
from itertools import combinations, compress, product, repeat, starmap
from math import factorial, perm, prod
from operator import add, eq, gt, itemgetter, lt, or_, sub

from .errors import InconsistentDataError
from .weights import DoubleWeight, Value, Weight, check_dominant

# (upper + lower, multiplicity): one summand of a bundle, in any uniform shift
Item = tuple[Weight, int]


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


@cache
def _superfactorial(n: int) -> int:
    """0! 1! ... (n-1)! = prod_{i<j<n} (j - i), the Weyl denominator of GL(n)."""
    return prod(map(factorial, range(n)))


def _weyl_quotient(num: int, denominator: int) -> int:
    """A Weyl numerator (or a sum of them) over the superfactorial
    `denominator`; exact and non-negative by the Weyl dimension formula."""
    if not num:
        return 0
    q, r = divmod(num, denominator)
    if r or q < 0:
        raise InconsistentDataError(
            "Weyl quotient", f"{num} is not a non-negative multiple of {denominator}"
        )
    return q


def _getter(positions: Sequence[int]) -> Callable[[Weight], tuple[int, ...]]:
    """A function reading the entries at `positions` off a sequence, as a
    tuple, for any number of positions."""
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        (i,) = positions
        return lambda seq: (seq[i],)
    return lambda seq: ()


def _getters(pairs: list[tuple[int, int]]):
    """Two functions reading entries i and entries j of the pairs (i, j) off
    a sequence, each as a tuple, for any number of pairs."""
    left, right = zip(*pairs) if pairs else ((), ())
    return _getter(left), _getter(right)


def _run_vandermonde(x: Weight) -> int:
    """prod_{i<j} (x_i - x_j) for strictly decreasing x, run by run: a run of
    L consecutive integers a, a - 1, ... gives 0! 1! ... (L-1)! within
    itself and perm(a - b, L) = (a - b)(a - b - 1) ... (a - b - L + 1)
    with each later entry b.  So each run costs one product over the
    entries after it, however long the run is."""
    out, start, n = 1, 0, len(x)
    while start < n:
        a, end = x[start], start + 1
        while end < n and x[end] == a - (end - start):
            end += 1
        length = end - start
        out *= _superfactorial(length)
        if end < n:
            out *= prod(map(perm, map(sub, repeat(a), x[end:]), repeat(length)))
        start = end
    return out


class Character:
    """A torus character of GL(k) x GL(n-k), in layers, prepared for `_walk`.

    Built from a list of layers (a plain character is one layer), layers[s]
    mapping each weight (upper block, then lower block) to its multiplicity,
    which may be negative.  Record r is the weight `weights[r]` of layer
    `layers[r]`, with coefficient (-1)^s c in `coefficients[r]`.  `pairs`
    lists the active pairs (i, j), the k(n-k) cross-block pairs first, and
    `dead[a]` maps each value of nu_j - nu_i over the records at the a-th
    of them to the bitset of the records that take it, record r at bit
    R - 1 - r of R (see the module docstring).  `active` reads the left and
    right entries of the active pairs off a sequence, and `classes` the
    entries at the positions of every class of two or more equal columns,
    class after class, each `spans` long.  `fixed` maps those entries of
    s = seq + rho (`rho`) to the product of the class Vandermondes, once
    a term with them has a survivor.  `offsets[r]` holds record r's
    nu_i - nu_j over the active pairs once r has survived a term, and None
    before.
    """

    __slots__ = (
        "n", "rho", "pairs", "dead", "cross", "active", "classes", "spans", "fixed",
        "weights", "layers", "coefficients", "offsets", "digits", "superfactorial",
    )

    def __init__(self, layers: list[dict[Weight, int]], k: int, n: int):
        self.n, self.rho = n, rho(n)
        self.weights = [nu for layer in layers for nu in layer]
        self.layers = [s for s, layer in enumerate(layers) for _ in layer]
        self.coefficients = [
            -c if s & 1 else c for s, layer in enumerate(layers) for c in layer.values()
        ]
        cross = [(i, j) for i in range(k) for j in range(k, n)]
        weights, column = self.weights, [itemgetter(i) for i in range(n)]
        first = _first_equal_columns(weights, column)
        # a block's positions grouped by equal columns; a pair inside a group
        # never collides, since nu_j - nu_i = 0 and s strictly decreases
        same, classes = [], []
        for block in (range(k), range(k, n)):
            groups: dict[int, list[int]] = {}
            for i in block:
                groups.setdefault(first[i], []).append(i)
            classes += [g for g in groups.values() if len(g) > 1]
            for a, b in combinations(groups.values(), 2):
                same += [(i, j) if i < j else (j, i) for i in a for j in b]
        same.sort()
        pairs = cross + same
        # pairs whose columns are equal share one table
        tables: dict[tuple[int, int], dict[int, int]] = {}
        for i, j in pairs:
            if (first[i], first[j]) not in tables:
                diffs = list(map(sub, map(column[j], weights), map(column[i], weights)))
                tables[first[i], first[j]] = _positions(diffs)
        self.dead = tuple(tables[first[i], first[j]] for i, j in pairs)
        self.pairs, self.cross = tuple(pairs), len(cross)
        self.active = _getters(pairs)
        self.classes = _getter([i for g in classes for i in g])
        self.spans = [len(g) for g in classes]
        self.fixed: dict[tuple[int, ...], int] = {}
        self.offsets: list[Weight | None] = [None] * len(self.weights)
        self.digits = f"0{len(self.weights)}b"  # a bitset's binary digits, one per record
        self.superfactorial = _superfactorial(n)

    def _fill(self, keep: bytes) -> None:
        """Compute the offsets of the kept records that have none yet."""
        left, right = self.active
        for r in compress(range(len(keep)), keep):
            if self.offsets[r] is None:
                nu = self.weights[r]
                self.offsets[r] = tuple(map(sub, left(nu), right(nu)))

    def _fixed(self, key: tuple[int, ...]) -> int:
        """The product of the class Vandermondes of s, whose entries at the
        class positions are `key`, kept under `key`."""
        out, start = 1, 0
        for length in self.spans:
            out *= _run_vandermonde(key[start : start + length])
            start += length
        self.fixed[key] = out
        return out


def _first_equal_columns(weights: list[Weight], column: list) -> list[int]:
    """For each position i, the first position whose entries equal position
    i's on every weight.  Equal columns hash alike, so only columns of one
    hash are compared, and no column tuple is kept."""
    first: dict[int, list[int]] = {}
    out = []
    for i, entry in enumerate(column):
        seen = first.setdefault(hash(tuple(map(entry, weights))), [])
        for j in seen:
            if all(map(eq, map(column[j], weights), map(entry, weights))):
                out.append(j)
                break
        else:
            seen.append(i)
            out.append(i)
    return out


_ZEROS = b"0" * 256


def _positions(values: list[int]) -> dict[int, int]:
    """Each distinct entry of `values` -> the bitset of its positions, the
    entry at position r at bit len(values) - 1 - r.  The entries are coded
    as bytes, up to 255 distinct ones per pass; a translate of the codes
    that sends one code to "1" and the rest to "0" spells out that code's
    bitset in binary, most significant bit first."""
    distinct = list(dict.fromkeys(values))
    out = {}
    for start in range(0, len(distinct), 255):
        chunk = {d: c for c, d in enumerate(distinct[start : start + 255])}
        codes = bytes(map(chunk.get, values, repeat(255)))
        for d, c in chunk.items():
            out[d] = int(codes.translate(_ZEROS[:c] + b"1" + _ZEROS[c + 1 :]), 2)
    return out


# a bitset's binary digits of dead records -> keep flags, 1 for a survivor
_KEEP = bytes.maketrans(b"01", b"\x01\x00")


def _walk(
    items: Iterable[Item], character: Character
) -> Iterator[tuple[int, Weight, int, bytes, list[Weight]]]:
    """(mult, gaps, fixed, keep, offsets) for each item (seq, mult) that
    some record of `character` keeps.  With s = seq + rho, gaps lists
    s_i - s_j over the active pairs and fixed is the product of s_i - s_j
    over the pairs inside a class, read from the character's memo; keep
    flags each record nu whose sequence s + nu has no repeated entry, and
    offsets lists the kept records' offsets in order.  A kept record's
    Vandermonde is fixed times the product of gaps + offsets.  The records
    that a gap hits are joined into one bitset, whose binary digits give
    the flags."""
    r, (left, right), classes = character.rho, character.active, character.classes
    dead, digits, offsets = character.dead, character.digits, character.offsets
    memo = character.fixed
    for seq, mult in items:
        s = tuple(map(add, seq, r))
        gaps = tuple(map(sub, left(s), right(s)))
        killed = reduce(or_, filter(None, map(dict.get, dead, gaps)), 0)
        keep = format(killed, digits).encode().translate(_KEEP)
        live = list(compress(offsets, keep))
        if not live:
            continue
        if None in live:
            character._fill(keep)
            live = list(compress(offsets, keep))
        key = classes(s)
        fixed = memo.get(key)
        if fixed is None:
            fixed = character._fixed(key)
        yield mult, gaps, fixed, keep, live


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
    dim = _weyl_quotient(abs(_vandermonde(seq)), _superfactorial(n))
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


def tensor_cohomology(items: Iterable[Item], character: Character) -> dict[int, int]:
    """Totals of H^*(G(k,n), E (x) W_s) on antidiagonals, by Klimyk and Bott.

    E is the sum of the `items` (upper + lower, multiplicity); the layers W_s
    of `character` are representations of GL(k) x GL(n-k).  Entry m sums
    dim H^{m+s}(E (x) W_s) over s; for one layer, it is the dimension in
    degree m.  Zero totals are left out.  See the module docstring for why
    the signed sums are exact.
    """
    zeros = (0,) * character.cross  # the cross factors lead each product
    buckets: dict[tuple[int, int], int] = {}
    for mult, gaps, fixed, keep, live in _walk(items, character):
        scale = mult * fixed
        records = zip(compress(character.layers, keep), compress(character.coefficients, keep))
        for (s, c), offsets in zip(records, live):
            factors = tuple(map(add, gaps, offsets))
            degree = sum(map(gt, zeros, factors))  # the negative cross factors
            num = scale * c * prod(factors)
            key = (s, degree)
            buckets[key] = buckets.get(key, 0) + (-num if (degree - s) & 1 else num)
    out: dict[int, int] = {}
    for (s, degree), num in sorted(buckets.items()):
        dim = _weyl_quotient(num, character.superfactorial)
        if dim:
            out[degree - s] = out.get(degree - s, 0) + dim
    return out


def euler_characteristic(items: Iterable[Item], character: Character) -> int:
    """chi(G(k,n), E (x) W) with E the sum of the `items` and
    W = sum_s (-1)^s W_s over the layers of `character`, as in
    `tensor_cohomology`; W may be virtual (negative multiplicities).

    The sum of the Vandermondes of the walk; see the module docstring.
    """
    num = 0
    for mult, gaps, fixed, keep, live in _walk(items, character):
        coefficients = compress(character.coefficients, keep)
        num += mult * fixed * sum([c * prod(map(add, gaps, o)) for c, o in zip(coefficients, live)])
    chi = _weyl_quotient(abs(num), character.superfactorial)
    return chi if num >= 0 else -chi
