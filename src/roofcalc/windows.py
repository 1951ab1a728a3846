"""Kapranov collections, bar moving, and partial-tilting vanishing checks.

The two checks verify mechanically that the twisted Kapranov generators on
P(V) and their bar-moved images on G(2,V) have no higher self-extensions on
the relevant total spaces.  Pushing forward the structure sheaf of the total
space turns each Ext group into cohomology on the base of

    dual(E) (x) E' (x) Sym^m(A(2))        (A = Q* downstairs, U upstairs)

summed over m >= 0; the verifier expands every summand and runs Borel-Weil-
Bott on it, recording any positive-degree survivor.  The sum over m is
truncated at m_max, and at the cut-off we additionally record whether every
summand is already fully ordered, in which case larger m only multiplies in
more fully ordered rows and the remaining tail provably stays in degree zero.

One loop (`_check_pairs`) serves both sides: it takes the labelled members
and the atom A(2), and the two public checks differ only in those inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import bundles
from .bundles import BundleExpr
from .bwb import bott
from .errors import RankError
from .weights import DoubleWeight, Weight, bar_move, enumerate_box


@dataclass(frozen=True)
class Collection:
    """Ordered list of distinct double weights on one G(k,n)."""

    k: int
    n: int
    members: tuple[DoubleWeight, ...]

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class VanishingFailure:
    lam: Weight
    lam_prime: Weight
    m: int
    degree: int
    weight: Weight

    def as_dict(self) -> dict:
        return {
            "lam": list(self.lam),
            "lamPrime": list(self.lam_prime),
            "m": self.m,
            "degree": self.degree,
            "weight": list(self.weight),
        }


@dataclass
class VanishingReport:
    side: str
    n: int
    m_max: int
    checked_pairs: int = 0
    failures: list[VanishingFailure] = field(default_factory=list)
    tail_certified: bool = True  # every pair fully ordered at m = m_max

    @property
    def passed(self) -> bool:
        return not self.failures


def kapranov_collection(k: int, n: int) -> Collection:
    """Summands of the twisted tilting generator on G(k,n): the bundles
    S_lam Q*(k) for lam in Box(n-k, k), in canonical descending order."""
    if not (1 <= k < n):
        raise RankError(f"need 1 <= k < n, got ({k},{n})")
    members = tuple(
        DoubleWeight((k,) * k, lam) for lam in enumerate_box(n - k, k)
    )
    return Collection(k, n, members)


def bar_moved_collection(c: Collection) -> Collection:
    """Memberwise bar move; lands on G(k+1, n)."""
    members = tuple(bar_move(w) for w in c)
    return Collection(c.k + 1, c.n, members)


def _record_positive_degrees(
    expr: BundleExpr,
    lam: Weight,
    lam_prime: Weight,
    m: int,
    failures: list[VanishingFailure],
) -> None:
    for w, _ in expr.terms:
        res = bott(w)
        if not res.acyclic and res.degree > 0:
            failures.append(
                VanishingFailure(lam, lam_prime, m, res.degree, w.concat())
            )


def _check_pairs(
    report: VanishingReport,
    members: list[tuple[Weight, DoubleWeight]],
    atom: BundleExpr,
) -> VanishingReport:
    """Expand dual(w) (x) w' (x) Sym^m(atom) for every ordered pair of
    labelled members and 0 <= m <= report.m_max, recording failures under
    the labels."""
    k, n = atom.ambient
    syms = [bundles.sym_power(atom, m) for m in range(report.m_max + 1)]
    exprs = [
        (label, bundles.irreducible(k, n, w.upper, w.lower)) for label, w in members
    ]
    for label, e in exprs:
        dual_expr = bundles.dual(e)
        for label_prime, e_prime in exprs:
            report.checked_pairs += 1
            pair_part = bundles.tensor(dual_expr, e_prime)
            for m, sym in enumerate(syms):
                expr = bundles.tensor(pair_part, sym)
                _record_positive_degrees(expr, label, label_prime, m, report.failures)
            # expr is the m = m_max summand
            if not bundles.is_globally_generated(expr):
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
