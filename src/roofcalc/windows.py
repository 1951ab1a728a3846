"""Kapranov collections, bar moving, and partial-tilting vanishing checks.

The two checks verify mechanically that the twisted Kapranov generators on
P(V) and their bar-moved images on G(2,V) have no higher self-extensions on
the relevant total spaces.  Pushing forward the structure sheaf of the total
space turns each Ext group into cohomology on the base of

    dual(E) (x) E' (x) Sym^m(A(2))        (A = Q* downstairs, U upstairs)

summed over m >= 0, truncated at m_max.  A summand whose total sequence is
fully ordered has cohomology in degree 0 only (Borel-Weil), so the verifier
runs Borel-Weil-Bott on the other summands alone and records any
positive-degree survivor.

The expansion of one pair stops at the first degree m where every
summand is fully ordered.  This rests on the atom A(2) being globally
generated, which Q*(2) and U(2) are and which `_check_pairs` checks: an
irreducible bundle is globally generated exactly when it is fully ordered,
global generation survives (x) and direct summands, and Sym^(m+1) is a
direct summand of Sym^m (x) A(2).  So once degree m is fully ordered, every
higher degree is too, nothing above it can fail, and the tail past m_max
provably stays in degree zero.  The report's `tail_certified` records
whether every pair reached that point by m = m_max.

One loop (`_check_pairs`) serves both sides: it takes the labelled members
and the atom A(2), and the two public checks differ only in those inputs.
Each pair product dual(E) (x) E' is one `bundles.tensor`, once per unordered
pair; the transposed pair's product dual(E') (x) E is its `bundles.dual`.
A summand's margin upper[-1] - lower[0] is negative exactly when it is not
fully ordered.  Every summand of a block product has at least the sum of its
factors' margins, and the summand whose blocks are the sums of the factors'
blocks has exactly that sum, so a degree m >= 1 multiplies only the pair
terms whose margin and Sym^m(A(2))'s sum below 0, and a degree with none is
fully ordered with no product at all.  That product drops its fully ordered
`lr._blockwise` items before `bundles._expr` puts the rest in canonical form.
"""

from __future__ import annotations

from functools import cache, partial

from . import bundles
from .bundles import BundleExpr
from .bwb import bott
from .errors import NotGloballyGeneratedError, RankError
from .lr import _blockwise
from .weights import DoubleWeight, Value, Weight, bar_move, enumerate_box


class VanishingFailure(Value):
    __slots__ = ("lam", "lam_prime", "m", "degree", "weight")

    def __init__(self, lam: Weight, lam_prime: Weight, m: int, degree: int, weight: Weight):
        self.lam, self.lam_prime, self.m = lam, lam_prime, m
        self.degree, self.weight = degree, weight

    def as_dict(self) -> dict:
        return {
            "lam": list(self.lam),
            "lamPrime": list(self.lam_prime),
            "m": self.m,
            "degree": self.degree,
            "weight": list(self.weight),
        }


class VanishingReport:
    __slots__ = ("side", "n", "m_max", "checked_pairs", "failures", "tail_certified")

    def __init__(
        self, side: str, n: int, m_max: int, checked_pairs: int = 0,
        failures: list[VanishingFailure] | None = None, tail_certified: bool = True,
    ):
        self.side, self.n, self.m_max, self.checked_pairs = side, n, m_max, checked_pairs
        self.failures = [] if failures is None else failures
        self.tail_certified = tail_certified  # every pair fully ordered by m = m_max

    @property
    def passed(self) -> bool:
        return not self.failures


def kapranov_collection(k: int, n: int) -> tuple[DoubleWeight, ...]:
    """Summands of the twisted tilting generator on G(k,n): the bundles
    S_lam Q*(k) for lam in Box(n-k, k), in canonical descending order."""
    if not (1 <= k < n):
        raise RankError(f"need 1 <= k < n, got ({k},{n})")
    return tuple(
        DoubleWeight((k,) * k, lam) for lam in enumerate_box(n - k, k)
    )


def bar_moved_collection(members: tuple[DoubleWeight, ...]) -> tuple[DoubleWeight, ...]:
    """Memberwise bar move of double weights on G(k,n); lands on G(k+1, n)."""
    return tuple(bar_move(w) for w in members)


def _check_pairs(
    report: VanishingReport,
    members: list[tuple[Weight, DoubleWeight]],
    atom: BundleExpr,
) -> VanishingReport:
    """Expand dual(w) (x) w' (x) Sym^m(atom) for every ordered pair of
    labelled members and 0 <= m <= report.m_max, recording failures under
    the labels.  Bott runs only on summands that are not fully ordered, a
    degree multiplies only the pair terms that can give one, and a pair's
    expansion stops at the first degree where every summand is fully ordered
    (see the module docstring); `tail_certified` is cleared for a pair that
    does not reach one by m_max.  Sym^m(atom) is built once, for the
    degrees some pair reaches."""
    if not bundles.is_globally_generated(atom):
        # the early stop needs a globally generated atom
        raise NotGloballyGeneratedError(
            f"window check needs a globally generated atom, got {atom}"
        )
    k, n = atom.ambient
    sym = cache(partial(bundles.sym_power, atom))
    exprs = [(label, bundles.irreducible(k, n, w.upper, w.lower)) for label, w in members]
    # the product of pair (i, j), i < j, kept until pair (j, i) reads its dual
    transposed: dict[tuple[int, int], BundleExpr] = {}
    for i, (label, e) in enumerate(exprs):
        dual_e = bundles.dual(e)
        for j, (label_prime, e_prime) in enumerate(exprs):
            report.checked_pairs += 1
            if j < i:
                # dual(w) (x) w' is the dual of dual(w') (x) w
                product = bundles.dual(transposed.pop((j, i)))
            else:
                product = bundles.tensor(dual_e, e_prime)
                if j > i:
                    transposed[i, j] = product
            # only terms whose margin and Sym^m's sum below 0 give summands
            # that are not fully ordered (see the module docstring)
            sym_margin = 0  # Sym^0 is O, so degree 0 is the pair product itself
            for m in range(report.m_max + 1):
                if m:
                    [(s, _)] = sym(m).terms  # Sym^m of an atom is irreducible
                    sym_margin = s.upper[-1] - s.lower[0]
                live = [
                    (v, c) for v, c in product.terms
                    if v.upper[-1] - v.lower[0] + sym_margin < 0
                ]
                if not live:
                    break
                if m:
                    # a fully ordered item stays so under the canonical shift
                    items = _blockwise(live, sym(m).terms, k, n - k)
                    live = bundles._expr(
                        k, n, (it for it in items if it[0][0][-1] < it[0][1][0])
                    ).terms
                for v, _ in live:
                    res = bott(v)
                    if not res.acyclic and res.degree > 0:
                        report.failures.append(
                            VanishingFailure(label, label_prime, m, res.degree, v.concat())
                        )
            else:
                report.tail_certified = False
    return report


def check_tilting_minus(n: int, m_max: int = 8, box_cap: int = 1) -> VanishingReport:
    """Ext vanishing for the Kapranov generators on the total space over
    P(V) = G(1,n).

    For lam, lam' in Box(n-1, box_cap) and 0 <= m <= m_max, expands

        S_{lam_bar} Q* (x) S_{lam'} Q* (x) Sym^m Q* (x) O(2m + lam_1)

    (the dual of S_lam Q* is S_{lam_bar} Q* (x) O(lam_1)) and records any
    positive-degree cohomology under the labels lam, lam'.  box_cap defaults
    to the collection's cap 1; raising it is the designed negative control.
    """
    if n < 3:
        raise RankError(f"minus-side check needs n >= 3, got {n}")
    if m_max < 0:
        raise RankError(f"m_max must be >= 0, got {m_max}")
    members = [(lam, DoubleWeight((0,), lam)) for lam in enumerate_box(n - 1, box_cap)]
    return _check_pairs(
        VanishingReport(side="minus", n=n, m_max=m_max),
        members,
        bundles.twist(bundles.quotient_dual(1, n), 2),
    )


def check_tilting_plus(n: int, m_max: int = 8) -> VanishingReport:
    """Ext vanishing for the bar-moved generators on the total space over
    G(2,n): expands dual(w) (x) w' (x) Sym^m(U(2)) for every pair of
    bar-moved members and records positive-degree cohomology under their
    total sequences."""
    if n < 4:
        raise RankError(f"plus-side check needs n >= 4, got {n}")
    if m_max < 0:
        raise RankError(f"m_max must be >= 0, got {m_max}")
    members = [
        (w.concat(), w) for w in bar_moved_collection(kapranov_collection(1, n))
    ]
    return _check_pairs(
        VanishingReport(side="plus", n=n, m_max=m_max),
        members,
        bundles.twist(bundles.tautological(2, n), 2),
    )
