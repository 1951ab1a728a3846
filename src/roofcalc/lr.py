"""Littlewood-Richardson products of Schur functors.

The product is computed by the classical rule: coefficients count skew
semistandard tableaux with given content whose reverse reading word is a
ballot sequence.  Tableaux are built value by value as interlaced horizontal
strips; the ballot condition becomes the prefix inequality

    #(v placed in rows 1..j)  <=  #(v-1 placed in rows 1..j-1)

checked while distributing each value.  Rows beyond the requested rank are
pruned, which is exactly the GL(r) truncation (columns taller than r vanish).

Negative entries are handled by the uniform shift S_{lam + c*1} = S_lam (x) det^c.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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


@lru_cache(maxsize=None)
def _lr_partitions(inner: Weight, content: Weight, rank: int) -> tuple[tuple[Weight, int], ...]:
    """Expand s_inner * s_content for partitions, rows truncated at `rank`."""
    results: dict[Weight, int] = {}
    # zero parts place no boxes; dropping them keeps the recursion as deep as
    # the content's nonzero rows rather than as deep as the rank
    content = tuple(e for e in content if e > 0)
    nrows = len(content)

    def place(v: int, shape: tuple[int, ...], prev: tuple[int, ...]) -> None:
        if v == nrows:
            key = shape + (0,) * (rank - len(shape))
            results[key] = results.get(key, 0) + 1
            return
        size = content[v]
        rows = len(shape)

        # Distribute `size` copies of value v over rows; row j of the new
        # strip is capped by the interlacing bound (old row j-1) and by the
        # ballot prefix bound against the previous value's row counts.
        def rec(j: int, remaining: int, acc: tuple[int, ...], prefix_v: int, prefix_prev: int) -> None:
            if remaining == 0:
                new_shape = tuple(
                    (shape[i] if i < rows else 0) + (acc[i] if i < len(acc) else 0)
                    for i in range(max(rows, len(acc)))
                )
                place(v + 1, new_shape, acc + (0,) * (max(rows, len(acc)) - len(acc)))
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

    place(0, tuple(e for e in inner if e > 0), ())
    return tuple(sorted(results.items(), reverse=True))


def _lr_terms(lam: Weight, mu: Weight, rank: int) -> tuple[tuple[Weight, int], ...]:
    """`lr_product`'s terms, unchecked: negative entries are shifted away,
    expanded and shifted back, which keeps the terms lex-descending."""
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
    if a.ambient != b.ambient:
        raise AmbientMismatchError(f"ambient mismatch: {a.ambient} vs {b.ambient}")
    k, n = a.ambient
    lower = _lr_terms(a.lower, b.lower, n - k)
    return {
        DoubleWeight._trusted(up, lo): mu * ml
        for up, mu in _lr_terms(a.upper, b.upper, k)
        for lo, ml in lower
    }
