"""GL(r) weights, double weights on G(k,n), box sets and bar moving.

A weight is a dense tuple of integers of fixed length (trailing zeros kept
explicit).  Weights labelling Schur functors must be non-increasing; negative
entries are allowed, so twists like O(2m + lambda_1) can be absorbed without a
separate normalisation step.

Validation happens once, at the boundary: public constructors such as
`DoubleWeight(...)` check their input.  Weights derived from checked ones
(the canonical terms of `bundles._expr`, LR output, atom powers, bar moves)
are dominant by construction; they come from the private
`DoubleWeight._trusted` unchecked.

The package's value classes derive from `Value`: `__slots__` classes, equal
when class and fields are, hashed as the tuple of their fields, and immutable
by convention (no field is assigned after `__init__`).
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from .errors import DominanceError, NotGloballyGeneratedError, RankError

Weight = tuple[int, ...]


class Value:
    """Equality, hash and repr read from the subclass's `__slots__`."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        args = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__name__}({args})"


def is_dominant(entries: Weight) -> bool:
    """True when the sequence is non-increasing."""
    return all(a >= b for a, b in zip(entries, entries[1:]))


def check_dominant(entries: Weight, what: str = "weight") -> Weight:
    entries = tuple(int(e) for e in entries)
    if len(entries) < 1:
        raise RankError(f"{what} must have length >= 1")
    if not is_dominant(entries):
        raise DominanceError(f"{what} {entries} is not non-increasing")
    return entries


def negate_reverse(entries: Weight) -> Weight:
    """Dual weight (-a_r, ..., -a_1); non-increasing iff the input is."""
    return tuple(-e for e in reversed(entries))


class DoubleWeight(Value):
    """Label (upper|lower) of an irreducible homogeneous bundle on G(k,n).

    The upper block (length k) labels the Schur functor applied to the dual
    tautological subbundle, the lower block (length n-k) the one applied to
    the dual quotient bundle.  Both blocks are non-increasing.
    """

    __slots__ = ("upper", "lower")

    def __init__(self, upper: Weight, lower: Weight):
        self.upper = check_dominant(upper, "upper block")
        self.lower = check_dominant(lower, "lower block")

    @classmethod
    def _trusted(cls, upper: Weight, lower: Weight) -> "DoubleWeight":
        """Unchecked constructor for int tuples already non-increasing."""
        w = object.__new__(cls)
        w.upper = upper
        w.lower = lower
        return w

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.upper == other.upper and self.lower == other.lower

    def __hash__(self) -> int:
        return hash((self.upper, self.lower))

    @property
    def k(self) -> int:
        return len(self.upper)

    @property
    def n(self) -> int:
        return len(self.upper) + len(self.lower)

    @property
    def ambient(self) -> tuple[int, int]:
        return (self.k, self.n)

    def concat(self) -> Weight:
        return self.upper + self.lower

    def is_fully_ordered(self) -> bool:
        """True when the total sequence (upper, lower) is non-increasing.

        Both blocks are non-increasing, so only the step across the bar
        needs checking: upper[-1] >= lower[0]."""
        return self.upper[-1] >= self.lower[0]

    def __str__(self) -> str:
        up = ",".join(str(e) for e in self.upper)
        lo = ",".join(str(e) for e in self.lower)
        return f"({up}|{lo})"


class BoxSet(Value):
    """All weights of length `rows` with entries in [0, cap], cap at the top."""

    __slots__ = ("rows", "cap", "members")

    def __init__(self, rows: int, cap: int, members: tuple[Weight, ...]):
        self.rows, self.cap, self.members = rows, cap, members

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


def enumerate_box(a: int, b: int) -> BoxSet:
    """Non-increasing weights of length a with entries in [0, b].

    Sorted lexicographically descending; the count is C(a+b, b).
    """
    if a < 1:
        raise RankError(f"box needs at least one row, got a={a}")
    if b < 0:
        raise RankError(f"box cap must be >= 0, got b={b}")
    members = tuple(combinations_with_replacement(range(b, -1, -1), a))
    return BoxSet(rows=a, cap=b, members=members)


def bar_move(w: DoubleWeight) -> DoubleWeight:
    """Move the top entry of the lower block across the bar.

    (l_1,...,l_k | d_1,...,d_{n-k}) becomes (l_1,...,l_k,d_1 | d_2,...,d_{n-k})
    on G(k+1, n).  Defined exactly when the total sequence is non-increasing
    (the globally generated case); preserves all cohomology since the total
    sequence is unchanged.
    """
    if w.k >= w.n - 1:
        raise RankError(f"bar move needs k < n-1, got (k,n)={w.ambient}")
    if not w.is_fully_ordered():
        raise NotGloballyGeneratedError(
            f"{w} is not fully ordered; bar moving is undefined"
        )
    return DoubleWeight._trusted(w.upper + (w.lower[0],), w.lower[1:])
