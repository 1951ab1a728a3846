"""Littlewood-Richardson products of Schur functors.

The product is computed by the classical rule: coefficients count skew
semistandard tableaux with given content whose reverse reading word is a
ballot sequence.  Tableaux are built value by value as interlaced horizontal
strips; the ballot condition becomes the prefix inequality

    #(v placed in rows 1..j)  <=  #(v-1 placed in rows 1..j-1)

checked while distributing each value.  Rows beyond the requested rank are
pruned, which is exactly the GL(r) truncation (columns taller than r vanish).

Negative entries are handled by the uniform shift S_{lam + c*1} = S_lam (x) det^c.
The one cache sits on `_lr_terms`, the unchecked core behind both
`lr_product` and `lr_double_product`, so a repeated product costs a lookup
with no shifting.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import add

from .errors import AmbientMismatchError, RankError
from .weights import DoubleWeight, Weight, check_dominant


@dataclass(frozen=True)
class SchurSum:
    """Multiset of GL(rank) Schur labels with positive multiplicities."""

    rank: int
    terms: tuple[tuple[Weight, int], ...]  # lex-descending by weight, no dupes

    def as_dict(self) -> dict[Weight, int]:
        return dict(self.terms)

    def __iter__(self):
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)


def _strips(
    shape: tuple[int, ...], prev: tuple[int, ...], v: int, size: int, rank: int
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every way to add a horizontal strip of `size` copies of value v to
    `shape`, as (new shape, strip row counts); `prev` is value v-1's strip.

    Row j of the strip is capped by the interlacing bound (old row j-1) and
    by the ballot prefix bound against the previous value's row counts."""
    rows = len(shape)
    out: list[tuple[tuple[int, ...], tuple[int, ...]]] = []

    def rec(j: int, remaining: int, acc: tuple[int, ...], prefix_v: int, prefix_prev: int) -> None:
        if remaining == 0:
            grow = len(acc) - rows
            if grow > 0:
                out.append((tuple(map(add, shape + (0,) * grow, acc)), acc))
            else:
                strip = acc + (0,) * -grow
                out.append((tuple(map(add, shape, strip)), strip))
            return
        if j >= rank:
            return
        old_j = shape[j] if j < rows else 0
        old_above = shape[j - 1] if 0 < j <= rows else (10**9 if j == 0 else 0)
        cap = old_above - old_j  # interlacing: new row j <= old row j-1
        if v > 0:
            cap = min(cap, prefix_prev - prefix_v)  # ballot prefix bound
        cap = min(cap, remaining)
        if cap < 0:
            cap = -1
        next_prev = prefix_prev + (prev[j] if v > 0 and j < len(prev) else 0)
        for a in range(cap, -1, -1):
            if a == 0 and old_j == 0 and remaining > 0:
                # rows below an empty row are empty; nothing can be placed
                return
            rec(j + 1, remaining - a, acc + (a,), prefix_v + a, next_prev)

    rec(0, size, (), 0, 0)
    return out


def _lr_partitions(inner: Weight, content: Weight, rank: int) -> tuple[tuple[Weight, int], ...]:
    """Expand s_inner * s_content for partitions, rows truncated at `rank`.

    Values are placed one at a time: all strips of value v are collected
    before value v+1 is placed, so the recursion is only as deep as the rank.
    Partial tableaux that reach the same (shape, last strip) are merged with
    a count, since the rest of the placement depends on nothing else."""
    # zero parts place no boxes, so they are dropped from both partitions
    states = {(tuple(e for e in inner if e > 0), ()): 1}
    for v, size in enumerate(e for e in content if e > 0):
        placed: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
        for (shape, prev), count in states.items():
            for state in _strips(shape, prev, v, size, rank):
                placed[state] = placed.get(state, 0) + count
        states = placed
    results: dict[Weight, int] = {}
    for (shape, _), count in states.items():
        key = shape + (0,) * (rank - len(shape))
        results[key] = results.get(key, 0) + count
    return tuple(sorted(results.items(), reverse=True))


@lru_cache(maxsize=None)
def _lr_terms(lam: Weight, mu: Weight, rank: int) -> tuple[tuple[Weight, int], ...]:
    """`lr_product`'s terms, unchecked and cached: negative entries are
    shifted away, expanded and shifted back, which keeps the terms
    lex-descending."""
    ca = -min(lam[-1], 0)
    cb = -min(mu[-1], 0)
    a = tuple(e + ca for e in lam)
    b = tuple(e + cb for e in mu)
    # recursion is over the content partition; pick the smaller one
    if (sum(b), b) > (sum(a), a):
        a, b = b, a
    shift = ca + cb
    return tuple(
        (tuple(e - shift for e in nu), m) for nu, m in _lr_partitions(a, b, rank)
    )


def lr_product(lam: Weight, mu: Weight, rank: int) -> SchurSum:
    """Tensor product multiplicities of two GL(rank) Schur functors.

    Both inputs must be non-increasing of length `rank`.
    """
    lam = check_dominant(lam)
    mu = check_dominant(mu)
    if len(lam) != rank or len(mu) != rank:
        raise RankError(
            f"rank mismatch: len({lam})={len(lam)}, len({mu})={len(mu)}, rank={rank}"
        )
    return SchurSum(rank=rank, terms=_lr_terms(lam, mu, rank))


def lr_double_product(a: DoubleWeight, b: DoubleWeight) -> dict[DoubleWeight, int]:
    """Blockwise product of two double weights on the same G(k,n).

    The rule applies to the blocks above and below the bar separately; the
    result is the Cartesian combination with multiplied multiplicities.
    """
    k, q = len(a.upper), len(a.lower)
    if len(b.upper) != k or len(b.lower) != q:
        raise AmbientMismatchError(f"ambient mismatch: {a.ambient} vs {b.ambient}")
    lower = _lr_terms(a.lower, b.lower, q)
    return {
        DoubleWeight._trusted(up, lo): mu * ml
        for up, mu in _lr_terms(a.upper, b.upper, k)
        for lo, ml in lower
    }
