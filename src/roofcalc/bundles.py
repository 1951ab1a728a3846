"""Formal algebra of completely reducible homogeneous bundles on G(k,n).

An expression is a non-negative integer combination of irreducible summands
labelled by double weights.  Line bundles are folded into the upper block
(det of the dual subbundle is O(1)).  Every expression is in one canonical
form: each lower block is shifted to end in 0 (the two conventions
S_d Q* = S_{d-c}Q* (x) O(-c) then never give two keys for one bundle), equal
terms are merged and the terms sorted in descending order.  The operations
below hand `_expr` plain ((upper, lower), multiplicity) items; only `_expr`
and `dual`, which keeps a canonical form canonical in one pass, make their
`DoubleWeight`s.

Sym and wedge powers are only defined for twists of the five atoms
U, U*, Q, Q*, O(t) and direct sums of those; anything else raises
PlethysmRequiredError rather than silently computing a wrong plethysm.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import cache
from itertools import combinations
from operator import add

from .bwb import gl_dimension
from .errors import (
    AmbientMismatchError,
    PlethysmRequiredError,
    RankError,
)
from .lr import _blockwise
from .weights import DoubleWeight, Value, Weight, enumerate_box, negate_reverse


class BundleExpr(Value):
    """Canonical-form sum of irreducible homogeneous bundles on one G(k,n)."""

    __slots__ = ("k", "n", "terms")

    def __init__(self, k: int, n: int, terms: tuple[tuple[DoubleWeight, int], ...]):
        self.k, self.n = k, n
        self.terms = terms  # sorted, no dupes, mults >= 1

    @property
    def ambient(self) -> tuple[int, int]:
        return (self.k, self.n)

    def is_zero(self) -> bool:
        return not self.terms

    def as_dict(self) -> dict[DoubleWeight, int]:
        return dict(self.terms)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        return " + ".join(
            (f"{m}*{w}" if m > 1 else str(w)) for w, m in self.terms
        )


def _expr(
    k: int, n: int, items: Iterable[tuple[tuple[Weight, Weight], int]]
) -> BundleExpr:
    """The canonical form of ((upper, lower), multiplicity) items: shift each
    lower block to end in 0 and fold the leftover twist into the upper
    block, merge equal terms, drop zero multiplicities and sort descending
    by (upper, lower)."""
    merged: dict[tuple[Weight, Weight], int] = {}
    for key, m in items:
        c = key[1][-1]
        if c:
            key = (tuple([e - c for e in key[0]]), tuple([e - c for e in key[1]]))
        merged[key] = merged.get(key, 0) + m
    ordered = sorted(merged.items(), reverse=True)
    terms = tuple((DoubleWeight._trusted(*w), m) for w, m in ordered if m)
    return BundleExpr(k, n, terms)


def zero(k: int, n: int) -> BundleExpr:
    if not (1 <= k < n):
        raise RankError(f"need 1 <= k < n, got ({k},{n})")
    return BundleExpr(k, n, ())


def irreducible(k: int, n: int, upper: Weight, lower: Weight) -> BundleExpr:
    w = DoubleWeight(tuple(upper), tuple(lower))
    if w.ambient != (k, n):
        raise AmbientMismatchError(f"{w} does not live on G({k},{n})")
    return _expr(k, n, [((w.upper, w.lower), 1)])


def line(k: int, n: int, t: int) -> BundleExpr:
    """O(t), i.e. the t-th power of det of the dual subbundle."""
    return irreducible(k, n, (t,) * k, (0,) * (n - k))


def tautological_dual(k: int, n: int) -> BundleExpr:
    """U*, the dual rank-k subbundle."""
    return irreducible(k, n, (1,) + (0,) * (k - 1), (0,) * (n - k))


def tautological(k: int, n: int) -> BundleExpr:
    """U, the rank-k subbundle of the trivial bundle."""
    return irreducible(k, n, (0,) * (k - 1) + (-1,), (0,) * (n - k))


def quotient_dual(k: int, n: int) -> BundleExpr:
    """Q*, the dual rank-(n-k) quotient bundle."""
    return irreducible(k, n, (0,) * k, (1,) + (0,) * (n - k - 1))


def quotient(k: int, n: int) -> BundleExpr:
    """Q, the rank-(n-k) quotient bundle."""
    return irreducible(k, n, (0,) * k, (0,) * (n - k - 1) + (-1,))


def schur(k: int, n: int, block: str, lam: Weight) -> BundleExpr:
    """Schur functor of one of U, U*, Q, Q* (block in {U, UD, Q, QD}).

    lam is padded with zeros to the block rank; functors of the undualised
    bundles are rewritten on the dual by negate-and-reverse.
    """
    w = _atom_power(block, 0, tuple(lam), k, n)
    if w is None:
        raise RankError(
            f"label {tuple(lam)} longer than block rank {_atom_rank(block, k, n)}"
        )
    return irreducible(k, n, w.upper, w.lower)


def direct_sum(*exprs: BundleExpr) -> BundleExpr:
    if not exprs:
        raise RankError("empty direct sum")
    k, n = exprs[0].ambient
    if any(e.ambient != (k, n) for e in exprs):
        raise AmbientMismatchError("direct sum across different ambients")
    return _expr(k, n, (((w.upper, w.lower), m) for e in exprs for w, m in e.terms))


def tensor(a: BundleExpr, b: BundleExpr) -> BundleExpr:
    """Bilinear extension of the blockwise Littlewood-Richardson product
    (`lr._blockwise`), put in canonical form by `_expr`."""
    if a.ambient != b.ambient:
        raise AmbientMismatchError(f"tensor across {a.ambient} and {b.ambient}")
    return _expr(a.k, a.n, _blockwise(a.terms, b.terms, a.k, a.n - a.k))


def twist(a: BundleExpr, t: int) -> BundleExpr:
    """a (x) O(t): O(t) is det^t of U*, so t is added to every upper block."""
    if t == 0:
        return a
    items = (((tuple(e + t for e in w.upper), w.lower), m) for w, m in a.terms)
    return _expr(a.k, a.n, items)


def dual(a: BundleExpr) -> BundleExpr:
    """Termwise dual: negate and reverse each block, in canonical form in one
    pass.  A canonical lower block ends in 0, so the dual of (upper, lower)
    shifted to end in 0 is lower[0] - e over each reversed block; the dual is
    injective, so the terms stay distinct and only need sorting."""
    items = []
    for w, m in a.terms:
        c = w.lower[0]
        up = tuple([c - e for e in reversed(w.upper)])
        items.append(((up, tuple([c - e for e in reversed(w.lower)])), m))
    items.sort(reverse=True)
    terms = tuple((DoubleWeight._trusted(*key), m) for key, m in items)
    return BundleExpr(a.k, a.n, terms)


# -- atoms and their Sym/wedge powers ---------------------------------------

def _atom_of(w: DoubleWeight) -> tuple[str, int] | None:
    """Recognise a canonical-form term as a twisted atom: (kind, twist).

    In canonical form the lower block ends with 0, so Q(t) appears as
    ((t+1)^k | 1^{q-1},0).  On blocks of rank 2 the U/UD and Q/QD patterns
    coincide; either name denotes the same bundle and Sym/wedge agree.
    """
    k, n = w.ambient
    up, lo = w.upper, w.lower
    q = n - k
    if all(e == 0 for e in lo):
        t = up[0]
        if all(e == t for e in up):
            return ("O", t)
        if k >= 2 and up == (t,) + (t - 1,) * (k - 1):
            return ("UD", t - 1)
        if k >= 2 and up == (t,) * (k - 1) + (t - 1,):
            return ("U", t)
        return None
    if all(e == up[0] for e in up):
        t = up[0]
        if lo == (1,) + (0,) * (q - 1):
            return ("QD", t)
        if q >= 2 and lo == (1,) * (q - 1) + (0,):
            return ("Q", t - 1)
    return None


def _atom_rank(kind: str, k: int, n: int) -> int:
    if kind == "O":
        return 1
    return k if kind in ("U", "UD") else n - k


def _atom_power(kind: str, t: int, label: Weight, k: int, n: int) -> DoubleWeight | None:
    """S_label of the atom `kind` twisted by O(t); None when it vanishes.

    The label goes on the atom's block as in `schur`, and the twist becomes
    O(|label| t).  Sym^m takes the label (m,), wedge^m the label (1^m).
    """
    r = _atom_rank(kind, k, n)
    if len(label) > r:
        return None
    shift = sum(label) * t
    block = label + (0,) * (r - len(label))
    if kind in ("U", "Q"):
        block = negate_reverse(block)
    if kind in ("U", "UD"):
        return DoubleWeight._trusted(tuple(e + shift for e in block), (0,) * (n - k))
    lower = (0,) * (n - k) if kind == "O" else block
    return DoubleWeight._trusted((shift,) * k, lower)


def _atom_list(a: BundleExpr) -> list[tuple[str, int]]:
    atoms: list[tuple[str, int]] = []
    for w, mult in a.terms:
        atom = _atom_of(w)
        if atom is None:
            raise PlethysmRequiredError(
                f"Sym/wedge powers need atoms or sums of atoms; {w} is neither"
            )
        atoms.extend([atom] * mult)
    return atoms


def _graded_power(a: BundleExpr, m: int, label) -> list[BundleExpr]:
    """Powers of degree 0..m of a direct sum of atoms, by the binomial rule;
    the degree-j power of one atom is its Schur functor S_{label(j)}.  One
    fold over the atoms builds every degree up to m at once; it stops at the
    top nonzero degree (for wedge, the summed atom ranks), and the degrees
    above it are zero."""
    if m < 0:
        raise RankError(f"power must be >= 0, got {m}")
    k, n = a.ambient
    if m == 0:
        return [line(k, n, 0)]
    atoms = _atom_list(a)

    @cache
    def heads(atom: tuple[str, int]) -> list[BundleExpr]:
        """The atom's nonzero powers, from degree 0 up to degree m at most."""
        out = []
        for j in range(m + 1):
            w = _atom_power(atom[0], atom[1], label(j), k, n)
            if w is None:  # so is every power of higher degree
                break
            out.append(_expr(k, n, [((w.upper, w.lower), 1)]))
        return out

    # powers[b]: the degree-b power of the atoms folded in so far, all nonzero
    powers = heads(atoms[0]) if atoms else [line(k, n, 0)]
    for atom in atoms[1:]:
        head = heads(atom)
        last = len(powers) - 1
        powers = [
            direct_sum(
                *powers[b : b + 1],  # j = 0: the degree-0 power of an atom is O
                *(
                    tensor(head[j], powers[b - j])
                    for j in range(max(1, b - last), min(b, len(head) - 1) + 1)
                ),
            )
            for b in range(min(m, last + len(head) - 1) + 1)
        ]
    return powers + [zero(k, n)] * (m + 1 - len(powers))


def sym_powers(a: BundleExpr, m: int) -> list[BundleExpr]:
    """Sym^0 .. Sym^m of an atom twist or a direct sum of atom twists."""
    return _graded_power(a, m, lambda j: (j,))


def sym_power(a: BundleExpr, m: int) -> BundleExpr:
    """Sym^m of an atom twist or a direct sum of atom twists."""
    return sym_powers(a, m)[m]


def wedge_power(a: BundleExpr, m: int) -> BundleExpr:
    """wedge^m of an atom twist or a direct sum of atom twists."""
    return _graded_power(a, m, lambda j: (1,) * j)[m]


def _block_orbit(block: Weight) -> list[Weight]:
    """Rearrangements of a block with at most two distinct values."""
    high, low = block[0], block[-1]
    if high == low:
        return [block]
    r = len(block)
    return [
        tuple(high if i in chosen else low for i in range(r))
        for chosen in map(set, combinations(range(r), block.count(high)))
    ]


def wedge_characters(a: BundleExpr) -> list[dict[Weight, int]]:
    """Torus characters of wedge^0 a, ..., wedge^rank(a) a, for an atom twist
    or a direct sum of atom twists.

    Entry s maps each weight of wedge^s a, written as the upper block then
    the lower block, to its multiplicity.  The weights of wedge^j of one atom
    are the within-block rearrangements of its label, and a sum folds with
    the binomial rule, as in `_graded_power`.
    """
    k, n = a.ambient
    powers: list[dict[Weight, int]] = [{(0,) * n: 1}]
    for kind, t in _atom_list(a):
        heads = []
        for j in range(_atom_rank(kind, k, n) + 1):
            w = _atom_power(kind, t, (1,) * j, k, n)
            heads.append(
                [u + v for u in _block_orbit(w.upper) for v in _block_orbit(w.lower)]
            )
        folded: list[dict[Weight, int]] = [
            {} for _ in range(len(powers) + len(heads) - 1)
        ]
        for b, power in enumerate(powers):
            for j, head in enumerate(heads):
                out = folded[b + j]
                for mu, c in power.items():
                    for nu in head:
                        key = tuple(map(add, mu, nu))
                        out[key] = out.get(key, 0) + c
        powers = folded
    return powers


def _conjugate(lam: tuple[int, ...]) -> tuple[int, ...]:
    if not lam or lam[0] == 0:
        return ()
    return tuple(sum(1 for e in lam if e > j) for j in range(lam[0]))


def cotangent_powers(k: int, n: int, top: int) -> list[BundleExpr]:
    """wedge^0 .. wedge^top of the cotangent bundle of G(k,n), by the Cauchy
    formula, from one pass over the k x (n-k) box.

    Omega^1 = U (x) Q*, so Omega^t is the sum of S_mu U (x) S_mu' Q* over
    partitions mu of t inside the box; above t = k(n-k) it is zero.
    """
    zero(k, n)  # checks 1 <= k < n before the box is enumerated
    pad, dim = (0,) * (n - k), k * (n - k)
    rows: list[list] = [[] for _ in range(min(top, dim) + 1)]
    for mu in enumerate_box(k, n - k):
        t = sum(mu)
        if t < len(rows):
            rows[t].append(((negate_reverse(mu), (_conjugate(mu) + pad)[: n - k]), 1))
    return [_expr(k, n, row) for row in rows] + [zero(k, n)] * (top - dim)


def cotangent_power(k: int, n: int, t: int) -> BundleExpr:
    """wedge^t of the cotangent bundle of G(k,n) (`cotangent_powers`); zero
    for t < 0 and t > k(n-k)."""
    if not 0 <= t <= k * (n - k):
        return zero(k, n)
    return cotangent_powers(k, n, t)[t]


def rank(a: BundleExpr) -> int:
    """Exact rank: blockwise Weyl dimensions, summed with multiplicities."""
    return sum(
        m * gl_dimension(w.upper) * gl_dimension(w.lower) for w, m in a.terms
    )


def is_globally_generated(a: BundleExpr) -> bool:
    """Every irreducible summand has a fully ordered total sequence."""
    return all(w.is_fully_ordered() for w, _ in a.terms)


def is_ample(a: BundleExpr) -> bool:
    """Snow's criterion (Trans. AMS 294, 1986), the strict form of global
    generation: every summand's upper block ends above its lower block's
    start.  So O(1), U*(1) and Q*(2) are ample; U*, Q and Q*(1) are not."""
    return all(w.upper[-1] > w.lower[0] for w, _ in a.terms)
