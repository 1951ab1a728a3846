"""Littlewood-Richardson products of Schur functors.

Products with a Pieri factor take the Pieri rule (Macdonald, Symmetric
Functions and Hall Polynomials, I (5.16)-(5.17)), where every term has
multiplicity 1:

    one row (m)          ->  add a horizontal strip of m boxes;
    one column (1^m)     ->  add a vertical strip of m boxes;
    (m^(r-1), 0)         ->  det^m (x) Sym^m of the dual, i.e. every mu with
                             a_i >= mu_i >= a_(i+1) and |a| - |mu| = m,
                             then shifted by m.

Sym and wedge powers of one atom are such factors, so these cover every
product of `pair` and of the `windows` subcommand; `verify --suite paper`
reaches the tableau rule once, (2,1,0) (x) (2,1,0) in the box_cap=2
negative control of its window check.  Every other product (a general
`lr` or `schur` input, a parsed product such as S[2,1]QD*S[2,1]QD, products
inside Sym of a sum of atoms) takes the classical rule, which the tests also
keep as the strip rules' reference: coefficients count skew semistandard
tableaux with given content whose reverse reading word is a ballot sequence.
Tableaux are built value by value, each value v one horizontal strip, and
the ballot condition becomes a bound on the strip's prefix sums,

    #(v placed in rows 1..j)  <=  #(v-1 placed in rows 1..j-1),

so the tableau rule and the three strip rules share one enumerator,
`_compositions`.  Every rule places boxes in the first `rank` rows only,
which is exactly the GL(r) truncation (columns taller than r vanish).

A constant factor (c, ..., c) is det^c, and S_lam (x) det^c = S_{lam + c*1}:
its product is a shift, with no rule at all (every rank-1 block is such a
factor).  Each other factor is first shifted to end in 0, by the same
identity, so a twist of a Pieri factor takes its strip rule too.  The one
cache sits on `_lr_terms`, the unchecked core behind `lr_product` and
`_blockwise`, so a repeated product costs a lookup with no shifting.
`_blockwise` is the one loop of the product on G(k,n), blocks multiplied
separately; `lr_double_product`, `bundles.tensor` and the window check's
Sym degrees read its items.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, repeat
from operator import sub

from .errors import AmbientMismatchError, RankError
from .weights import DoubleWeight, Weight, check_dominant, negate_reverse


def _lr_partitions(inner: Weight, content: Weight, rank: int) -> tuple[tuple[Weight, int], ...]:
    """Expand s_inner * s_content for partitions padded to `rank`.

    Each value of the content goes in as one horizontal strip, under the
    ballot bound against the previous value's strip.  Partial tableaux that
    reach the same (shape, last strip) are merged with a count, since the
    rest of the placement depends on nothing else."""
    states: dict[tuple[Weight, Weight | None], int] = {(inner, None): 1}
    for size in filter(None, content):  # zero parts place no boxes
        placed: dict[tuple[Weight, Weight | None], int] = {}
        for (shape, prev), count in states.items():
            # #(v in rows <= j) <= #(v-1 in rows < j); the first value is free
            limits = prev and (0, *accumulate(prev))
            for nu in _horizontal_strips(shape, size, limits):
                state = (nu, tuple(map(sub, nu, shape)))
                placed[state] = placed.get(state, 0) + count
        states = placed
    results: dict[Weight, int] = {}
    for (shape, _), count in states.items():
        results[shape] = results.get(shape, 0) + count
    return tuple(sorted(results.items(), reverse=True))


def _compositions(
    caps: list[int], m: int, limits: list[int] | None = None
) -> list[tuple[int, ...]]:
    """Every d with 0 <= d_i <= caps[i] and sum m; with `limits`, also
    d_0 + ... + d_i <= limits[i] for every i."""
    room = [0] * (len(caps) + 1)  # room[i]: the most that fits in caps[i:]
    for i in range(len(caps) - 1, -1, -1):
        room[i] = room[i + 1] + caps[i]
    parts: list[tuple[tuple[int, ...], int]] = [((), m)]
    for cap, rest, limit in zip(caps, room[1:], limits or repeat(m)):
        # m - left boxes are placed, so x <= limit - (m - left)
        parts = [
            (d + (x,), left - x)
            for d, left in parts
            for x in range(max(0, left - rest), min(cap, left, limit - m + left) + 1)
        ]
    return [d for d, _ in parts]


def _horizontal_strips(a: Weight, m: int, limits: Weight | None = None) -> list[Weight]:
    """a plus a horizontal strip of m boxes, in len(a) rows: row i grows by
    at most a_(i-1) - a_i, the first row without bound.  With `limits`, the
    strip holds at most limits[j] boxes in rows 0..j."""
    rows = [0] + [i for i in range(1, len(a)) if a[i - 1] > a[i]]
    caps = [m] + [a[i - 1] - a[i] for i in rows[1:]]
    out = []
    # the other rows add nothing to a prefix, so the bound is checked at these
    for d in _compositions(caps, m, limits and [limits[i] for i in rows]):
        nu = list(a)
        for i, x in zip(rows, d):
            nu[i] += x
        out.append(tuple(nu))
    return out


def _vertical_strips(a: Weight, m: int) -> list[Weight]:
    """a plus a vertical strip of m boxes, in len(a) rows: within each run
    of equal rows of a, the boxes go to the top rows of the run."""
    starts = [0] + [i for i in range(1, len(a)) if a[i - 1] > a[i]]
    ends = starts[1:] + [len(a)]
    out = []
    for d in _compositions([e - s for s, e in zip(starts, ends)], m):
        nu = list(a)
        for s, x in zip(starts, d):
            for i in range(s, s + x):
                nu[i] += 1
        out.append(tuple(nu))
    return out


def _pieri_terms(a: Weight, b: Weight) -> list[Weight] | None:
    """The terms of s_a * s_b when b is a Pieri factor, else None; a and b
    are partitions padded to the rank."""
    if len(b) == 1 or b[1] == 0:
        return _horizontal_strips(a, b[0])
    if b[0] == 1:
        return _vertical_strips(a, sum(b))
    if b[-1] == 0 and b[0] == b[-2]:
        # S_(m^(r-1),0) = det^m (x) Sym^m of the dual: add a horizontal
        # strip to the dual of a, dualise back and shift by m
        m = b[0]
        return [
            tuple(m - e for e in reversed(nu))
            for nu in _horizontal_strips(negate_reverse(a), m)
        ]
    return None


@lru_cache(maxsize=None)
def _lr_terms(lam: Weight, mu: Weight, rank: int) -> tuple[tuple[Weight, int], ...]:
    """`lr_product`'s terms, unchecked and cached.  A constant factor
    (c, ..., c) is det^c, so its product is the other factor shifted by c,
    with multiplicity 1; every rank-1 product is such a shift.  Otherwise
    both factors are shifted to end in 0, expanded and shifted back, which
    keeps the terms lex-descending.  A Pieri factor on either side, up to
    that shift, takes its strip rule; any other product takes the tableau
    rule."""
    if lam[0] == lam[-1]:
        c = lam[0]
        return ((tuple([e + c for e in mu]), 1),)
    if mu[0] == mu[-1]:
        c = mu[0]
        return ((tuple([e + c for e in lam]), 1),)
    ca = -lam[-1]
    cb = -mu[-1]
    a = tuple([e + ca for e in lam])
    b = tuple([e + cb for e in mu])
    shift = ca + cb
    strips = _pieri_terms(a, b)
    if strips is None:
        strips = _pieri_terms(b, a)
    if strips is not None:
        terms = [(nu, 1) for nu in sorted(strips, reverse=True)]
    else:
        # the content partition is placed value by value; pick the smaller one
        if (sum(b), b) > (sum(a), a):
            a, b = b, a
        terms = _lr_partitions(a, b, rank)
    return tuple((tuple([e - shift for e in nu]), m) for nu, m in terms)


def lr_product(lam: Weight, mu: Weight, rank: int) -> tuple[tuple[Weight, int], ...]:
    """Tensor product multiplicities of two GL(rank) Schur functors, as
    (weight, multiplicity) pairs, lex-descending by weight, no weight twice.

    Both inputs must be non-increasing of length `rank`.
    """
    lam = check_dominant(lam)
    mu = check_dominant(mu)
    if len(lam) != rank or len(mu) != rank:
        raise RankError(
            f"rank mismatch: len({lam})={len(lam)}, len({mu})={len(mu)}, rank={rank}"
        )
    return _lr_terms(lam, mu, rank)


def _blockwise(a_terms, b_terms, k: int, q: int):
    """The blockwise product of two sums of double weights on G(k, k+q), as
    ((upper, lower), multiplicity) items, unmerged and unshifted: the blocks
    above and below the bar multiply separately (`_lr_terms`), and each pair
    of block terms gives one item."""
    for wa, ma in a_terms:
        for wb, mb in b_terms:
            uppers = _lr_terms(wa.upper, wb.upper, k)
            m = ma * mb
            for lo, ml in _lr_terms(wa.lower, wb.lower, q):
                mlo = m * ml
                for up, mu in uppers:
                    yield (up, lo), mlo * mu


def lr_double_product(a: DoubleWeight, b: DoubleWeight) -> dict[DoubleWeight, int]:
    """Blockwise product of two double weights on the same G(k,n).

    The rule applies to the blocks above and below the bar separately; the
    result is the Cartesian combination with multiplied multiplicities.
    """
    k, q = len(a.upper), len(a.lower)
    if len(b.upper) != k or len(b.lower) != q:
        raise AmbientMismatchError(f"ambient mismatch: {a.ambient} vs {b.ambient}")
    return {
        DoubleWeight._trusted(up, lo): m
        for (up, lo), m in _blockwise(((a, 1),), ((b, 1),), k, q)
    }
