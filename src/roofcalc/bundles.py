"""Formal algebra of completely reducible homogeneous bundles on G(k,n).

An expression is a non-negative integer combination of irreducible summands
labelled by double weights.  Line bundles are folded into the upper block
(det of the dual subbundle is O(1)), and every term is normalised so that the
last entry of the lower block is zero; the two conventions
S_d Q* = S_{d-c}Q* (x) O(-c) then never produce duplicate keys.

Sym and wedge powers are only defined for twists of the five atoms
U, U*, Q, Q*, O(t) and direct sums of those; anything else raises
PlethysmRequiredError rather than silently computing a wrong plethysm.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from operator import add

from .bwb import gl_dimension
from .errors import (
    AmbientMismatchError,
    PlethysmRequiredError,
    RankError,
)
from .lr import _lr_terms
from .weights import DoubleWeight, Weight, enumerate_box, negate_reverse


def _normalise(w: DoubleWeight) -> DoubleWeight:
    """Shift so the lower block ends in 0 (fold the residual twist upward)."""
    c = w.lower[-1]
    return w.shift(-c) if c else w


@dataclass(frozen=True)
class BundleExpr:
    """Canonical-form sum of irreducible homogeneous bundles on one G(k,n)."""

    k: int
    n: int
    terms: tuple[tuple[DoubleWeight, int], ...]  # sorted, no dupes, mults >= 1

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


def _expr(k: int, n: int, terms: dict[DoubleWeight, int]) -> BundleExpr:
    merged: dict[DoubleWeight, int] = {}
    for w, m in terms.items():
        if m == 0:
            continue
        wn = _normalise(w)
        merged[wn] = merged.get(wn, 0) + m
    ordered = tuple(
        sorted(merged.items(), key=lambda t: (t[0].upper, t[0].lower), reverse=True)
    )
    return BundleExpr(k, n, ordered)


def zero(k: int, n: int) -> BundleExpr:
    if not (1 <= k < n):
        raise RankError(f"need 1 <= k < n, got ({k},{n})")
    return BundleExpr(k, n, ())


def irreducible(k: int, n: int, upper: Weight, lower: Weight) -> BundleExpr:
    w = DoubleWeight(tuple(upper), tuple(lower))
    if w.ambient != (k, n):
        raise AmbientMismatchError(f"{w} does not live on G({k},{n})")
    return _expr(k, n, {w: 1})


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
        raise ValueError("empty direct sum")
    k, n = exprs[0].ambient
    out: dict[DoubleWeight, int] = {}
    for e in exprs:
        if e.ambient != (k, n):
            raise AmbientMismatchError("direct sum across different ambients")
        for w, m in e.terms:
            out[w] = out.get(w, 0) + m
    return _expr(k, n, out)


def tensor(a: BundleExpr, b: BundleExpr) -> BundleExpr:
    """Bilinear extension of the blockwise Littlewood-Richardson product.

    The blocks multiply separately (`lr._lr_terms`), and each product term
    is normalised and merged as a pair of tuples; one `DoubleWeight` is made
    per output term, in `_expr`'s order."""
    if a.ambient != b.ambient:
        raise AmbientMismatchError(f"tensor across {a.ambient} and {b.ambient}")
    k, q = a.k, a.n - a.k
    out: dict[tuple[Weight, Weight], int] = {}
    for wa, ma in a.terms:
        for wb, mb in b.terms:
            uppers = _lr_terms(wa.upper, wb.upper, k)
            m = ma * mb
            for lo, ml in _lr_terms(wa.lower, wb.lower, q):
                c = lo[-1]  # fold the lower block's last entry upward
                if c:
                    lo = tuple(e - c for e in lo)
                for up, mu in uppers:
                    key = (tuple(e - c for e in up) if c else up, lo)
                    out[key] = out.get(key, 0) + m * mu * ml
    return BundleExpr(
        a.k,
        a.n,
        tuple(
            (DoubleWeight._trusted(up, lo), m)
            for (up, lo), m in sorted(out.items(), reverse=True)
        ),
    )


def twist(a: BundleExpr, t: int) -> BundleExpr:
    """a (x) O(t): O(t) is det^t of U*, so t is added to every upper block."""
    if t == 0:
        return a
    out = {
        DoubleWeight._trusted(tuple(e + t for e in w.upper), w.lower): m
        for w, m in a.terms
    }
    return _expr(a.k, a.n, out)


def dual(a: BundleExpr) -> BundleExpr:
    """Termwise dual: negate and reverse each block."""
    out = {
        DoubleWeight._trusted(negate_reverse(w.upper), negate_reverse(w.lower)): m
        for w, m in a.terms
    }
    return _expr(a.k, a.n, out)


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
    fold over the atoms builds every degree up to m at once."""
    if m < 0:
        raise RankError(f"power must be >= 0, got {m}")
    k, n = a.ambient
    if m == 0:
        return [line(k, n, 0)]
    atoms = _atom_list(a)
    if not atoms:
        return [line(k, n, 0)] + [zero(k, n)] * m

    @cache
    def factor(atom: tuple[str, int], j: int) -> BundleExpr:
        w = _atom_power(atom[0], atom[1], label(j), k, n)
        return zero(k, n) if w is None else _expr(k, n, {w: 1})

    # powers[b]: the degree-b power of the atoms folded in so far, b <= m
    powers = [factor(atoms[0], b) for b in range(m + 1)]
    for atom in atoms[1:]:
        heads = [factor(atom, j) for j in range(m + 1)]
        # the degree-0 power of an atom is O, so j = 0 contributes powers[b]
        powers = [
            direct_sum(
                powers[b],
                *(
                    tensor(heads[j], powers[b - j])
                    for j in range(1, b + 1)
                    if not (heads[j].is_zero() or powers[b - j].is_zero())
                ),
            )
            for b in range(m + 1)
        ]
    return powers


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


def cotangent_power(k: int, n: int, t: int) -> BundleExpr:
    """wedge^t of the cotangent bundle of G(k,n), by the Cauchy formula.

    Omega^1 = U (x) Q*, so Omega^t is the sum of S_mu U (x) S_mu' Q* over
    partitions mu of t inside the k x (n-k) box.
    """
    zero(k, n)  # checks 1 <= k < n before the box is enumerated
    out: dict[DoubleWeight, int] = {}
    for mu in enumerate_box(k, n - k):
        if sum(mu) == t:
            conj = _conjugate(mu)
            lower = conj + (0,) * (n - k - len(conj))
            out[DoubleWeight._trusted(negate_reverse(mu), lower)] = 1
    return _expr(k, n, out)


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
