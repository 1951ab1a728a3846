"""Hodge diamonds of smooth zero loci of homogeneous bundles on G(k,n).

For X = Z(s) with s a general section of a globally generated, completely
reducible bundle F of rank r, h^{p,q}(X) = h^q(X, Omega^p_X) is computed by
one of two routes, chosen by `bundles.is_ample(F)` and dim X.  Both read
the same Koszul stage: `_conormal_rows` yields, for each degree j, the terms
Sym^{j-t} F* (x) Omega^t_G of wedge^j of the conormal sequence, building
each Sym^m F* and Omega^t once, and `bundles.wedge_characters` gives the
torus characters of the wedge^s F* that resolve their restrictions to X.

  1. Lefschetz route, when every summand of F is ample or dim X = 0 (a
     point set has the single entry h^{0,0} = chi(O_X)).  Sommese's
     Lefschetz theorem for ample vector bundles (Lazarsfeld, Positivity II,
     7.1) gives h^{p,q}(X) = h^{p,q}(G) for p+q < dim X, and Poincare
     duality gives the entries above the middle row.  Each middle entry then
     follows from the exact column Euler characteristic chi_p = chi(Omega^p_X),
     and Serre duality chi_{d-p} = (-1)^d chi_p halves the columns needed.
     chi_p is the alternating sum over t of chi(X, (Sym^{p-t} F* (x)
     Omega^t_G)|_X); each of those comes from the Koszul complex as
     chi(G, base (x) lambda_{-1} F*), with lambda_{-1} F* = sum_s (-1)^s
     wedge^s F* merged into one virtual character, summed by the signed
     Vandermonde kernel `bwb.euler_characteristic`.  No per-degree totals,
     no linear system.
  2. Chase route, for every other F with dim X > 0 (e.g. U*, Q or
     U* + O(1) on G(2,5)).
     Every term (Sym^{p-t} F* (x) Omega^t_G)|_X of the exterior power of
     the conormal sequence is resolved by the Koszul complex of wedge powers
     of F* (`_koszul_totals`); the hypercohomology spectral sequence is
     solved antidiagonal-wise (differentials raise total degree by one and
     vanish outside [0, dim X]).  Only the per-degree totals of H^*(G, wedge^s F* (x)
     Sym^{p-t} F* (x) Omega^t_G) enter, so wedge^s F* is never multiplied
     out: its torus character goes straight into `bwb.tensor_cohomology`,
     which sums Klimyk's signed weights by Bott's degree.  Terms of
     opposite sign there are the same irreducible summand, in the same
     degree, so they cancel within one total and every total stays exact.
     The conormal complex itself is then split into short exact sequences
     and the long exact sequences are chased.

On the chase route all unknown connecting ranks stay symbolic in one linear
system per column, so forced cancellations propagate exactly; afterwards
Hodge symmetry, Serre duality, ample-class positivity and the exact column
Euler sums are iterated to a fixpoint over the whole table (all theorems for
a nonempty smooth projective variety; they pin down the columns above the
middle that dimension bookkeeping alone leaves open).  Entries that still
cannot be forced are reported as intervals and flagged inexact; no rank is
guessed.  Euler characteristics of columns are alternating sums, hence
always exact.  Both routes end with the same Euler-column and symmetry
checks.

Emptiness is decided, not assumed.  For F not ample, deg X = c_r(F) H^d
is computed first as the d-th finite difference of m -> chi(X, O(m)), m =
0..d, each term by the same Euler kernel on lambda_{-1} F*; a general zero
locus of a globally generated F is empty iff that is 0, and then
`EmptyZeroLocusError` is raised.  Ample F skips the check: c_r(F) > 0 when
rank F <= dim G (Fulton-Lazarsfeld 1983).  Smoothness and generality of the
section are recorded assumptions, not verified.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from . import bundles
from .bundles import BundleExpr, _box_partitions
from .bwb import euler_characteristic, tensor_cohomology
from .chase import Form, LinearSystem, les_chain, spectral_flow
from .errors import (
    AmbiguityError,
    EmptyZeroLocusError,
    InconsistentDataError,
    InjectivityViolationError,
    PlethysmRequiredError,
    RankError,
    WorkLimitError,
)
from .weights import Weight

# Limit on n^2 (rank F + 1) (atoms of F), a coarse measure of the Koszul
# stage's work: the wedge characters fold up to rank F + 1 powers per atom,
# and every weight of them costs a Vandermonde of n^2/2 factors.  The pair
# bundles up to G(8,15) stay below 3000; 1200 copies of O(1) on P^1299 is
# at 2.4e12.
MAX_KOSZUL_WORK = 10**8


class HodgeDiamond:
    """Matrix of h^{p,q} with per-entry exactness and exact Euler columns."""

    def __init__(self, dim: int, meta: dict | None = None):
        self.dim = dim
        self.entries: dict[tuple[int, int], tuple[int, int]] = {}
        self.euler_columns: dict[int, int] = {}
        self.meta = dict(meta or {})

    def set_entry(self, p: int, q: int, lo: int, hi: int | None = None) -> None:
        hi = lo if hi is None else hi
        if lo == hi == 0:
            self.entries.pop((p, q), None)
        else:
            self.entries[(p, q)] = (lo, hi)

    def interval(self, p: int, q: int) -> tuple[int, int]:
        return self.entries.get((p, q), (0, 0))

    def is_exact(self, p: int, q: int) -> bool:
        lo, hi = self.interval(p, q)
        return lo == hi

    def h(self, p: int, q: int) -> int:
        lo, hi = self.interval(p, q)
        if lo != hi:
            raise AmbiguityError(f"h^{{{p},{q}}} only known in [{lo},{hi}]")
        return lo

    def fully_exact(self) -> bool:
        return all(lo == hi for lo, hi in self.entries.values())

    def middle_row(self) -> list[int]:
        d = self.dim
        return [self.h(p, d - p) for p in range(d + 1)]

    def middle_row_exact(self) -> bool:
        return all(self.is_exact(p, self.dim - p) for p in range(self.dim + 1))

    def diagonal(self) -> list[int]:
        return [self.h(p, p) for p in range(self.dim + 1)]

    def euler_characteristic(self) -> int:
        return sum((-1) ** p * chi for p, chi in self.euler_columns.items())

    def matrix(self) -> list[list[int]]:
        return [[self.h(p, q) for q in range(self.dim + 1)] for p in range(self.dim + 1)]

    def check_symmetries(self) -> None:
        """Hodge symmetry and Serre duality on all exact entries."""
        d = self.dim
        for p in range(d + 1):
            for q in range(d + 1):
                if self.is_exact(p, q) and self.is_exact(q, p):
                    if self.h(p, q) != self.h(q, p):
                        raise ArithmeticError(
                            f"Hodge symmetry fails at ({p},{q}): "
                            f"{self.h(p, q)} != {self.h(q, p)}"
                        )
                if self.is_exact(p, q) and self.is_exact(d - p, d - q):
                    if self.h(p, q) != self.h(d - p, d - q):
                        raise ArithmeticError(
                            f"Serre symmetry fails at ({p},{q}): "
                            f"{self.h(p, q)} != {self.h(d - p, d - q)}"
                        )

    def check_euler_columns(self) -> None:
        """The alternating sum of each column must be able to reach its chi."""
        for p, chi in self.euler_columns.items():
            lo = hi = 0
            for q in range(self.dim + 1):
                a, b = self.interval(p, q)
                if q % 2 == 0:
                    lo, hi = lo + a, hi + b
                else:
                    lo, hi = lo - b, hi - a
            if not (lo <= chi <= hi):
                raise ArithmeticError(
                    f"Euler column {p}: chi={chi} outside chase range [{lo},{hi}]"
                )

    def render(self) -> str:
        """Diamond layout: row r holds h^{p,q} with p+q = r, p decreasing."""
        d = self.dim
        rows = []
        for r in range(2 * d + 1):
            row = []
            for p in range(min(r, d), max(0, r - d) - 1, -1):
                lo, hi = self.interval(p, r - p)
                row.append(str(lo) if lo == hi else f"[{lo}..{hi}]")
            rows.append(row)
        width = max(len(c) for row in rows for c in row) + 1
        lines = []
        for row in rows:
            pad = " " * ((2 * d + 1 - len(row)) * width // 2)
            lines.append((pad + "".join(c.center(width) for c in row)).rstrip())
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        d = self.dim
        h = []
        exact = []
        for p in range(d + 1):
            hrow = []
            erow = []
            for q in range(d + 1):
                lo, hi = self.interval(p, q)
                hrow.append(str(lo) if lo == hi else {"lo": str(lo), "hi": str(hi)})
                erow.append(lo == hi)
            h.append(hrow)
            exact.append(erow)
        return {
            "dim": d,
            "h": h,
            "exact": exact,
            "eulerColumns": {str(p): str(v) for p, v in sorted(self.euler_columns.items())},
            "meta": self.meta,
        }


@dataclass(frozen=True)
class ZeroLocusSpec:
    """Zero locus of a general section of a globally generated bundle."""

    k: int
    n: int
    bundle: BundleExpr

    def __post_init__(self):
        if self.bundle.ambient != (self.k, self.n):
            raise RankError(
                f"bundle on G{self.bundle.ambient}, spec says G({self.k},{self.n})"
            )
        if not bundles.is_globally_generated(self.bundle):
            raise RankError(f"{self.bundle} is not globally generated")
        if self.dim < 0:
            raise RankError(
                f"rank {bundles.rank(self.bundle)} exceeds dim G = {self.ambient_dim}"
            )
        for w, _ in self.bundle.terms:
            if bundles._atom_of(w) is None:
                raise PlethysmRequiredError(
                    "a zero locus needs a sum of twisted U, UD, Q, QD, O(t); "
                    f"{w} is none of these"
                )

    @property
    def ambient_dim(self) -> int:
        return self.k * (self.n - self.k)

    @property
    def dim(self) -> int:
        return self.ambient_dim - bundles.rank(self.bundle)


def ambient_diamond(k: int, n: int) -> HodgeDiamond:
    """Diamond of G(k,n): h^{p,p} counts partitions of p in the k x (n-k) box."""
    if not (1 <= k < n):
        raise RankError(f"need 1 <= k < n, got ({k},{n})")
    d = k * (n - k)
    out = HodgeDiamond(d, meta={"variety": f"G({k},{n})"})
    for p in range(d + 1):
        c = sum(1 for _ in _box_partitions(p, k, n - k))
        out.set_entry(p, p, c)
        out.euler_columns[p] = (-1) ** p * c
    return out


def _wedge_characters(spec: ZeroLocusSpec) -> list[dict[Weight, int]]:
    """`bundles.wedge_characters` of F*, once the input passes the work limit."""
    f = spec.bundle
    work = spec.n**2 * (bundles.rank(f) + 1) * sum(m for _, m in f.terms)
    if work > MAX_KOSZUL_WORK:
        raise WorkLimitError(
            f"Koszul stage too large: n^2 (rank F + 1) (atoms of F) = {work} "
            f"exceeds {MAX_KOSZUL_WORK}"
        )
    return bundles.wedge_characters(bundles.dual(f))


def _conormal_rows(spec: ZeroLocusSpec, top: int):
    """Rows j = 0..top of the exterior powers of the conormal sequence:
    row j lists Sym^{j-t} F* (x) Omega^t_G for t = 0..j, before restriction
    to X.  Each Sym^m F* and Omega^t is built once, when its row comes up."""
    f_dual = bundles.dual(spec.bundle)
    syms: list[BundleExpr] = []
    omegas: list[BundleExpr] = []
    for j in range(top + 1):
        syms.append(bundles.sym_power(f_dual, j))
        omegas.append(bundles.cotangent_power(spec.k, spec.n, j))
        yield [bundles.tensor(syms[j - t], omegas[t]) for t in range(j + 1)]


def _koszul_character(spec: ZeroLocusSpec) -> dict[Weight, int]:
    """The virtual torus character of lambda_{-1} F* = sum_s (-1)^s wedge^s F*."""
    koszul: dict[Weight, int] = {}
    for s, character in enumerate(_wedge_characters(spec)):
        sign = -1 if s & 1 else 1
        for nu, c in character.items():
            koszul[nu] = koszul.get(nu, 0) + sign * c
    return {nu: c for nu, c in koszul.items() if c}


def _euler_columns(spec: ZeroLocusSpec, top: int) -> list[int]:
    """chi(Omega^p_X) for p = 0..top, by the Euler kernel on lambda_{-1} F*."""
    koszul = _koszul_character(spec)
    return [
        sum(
            (-1) ** (p - t) * euler_characteristic(base, koszul)
            for t, base in enumerate(row)
        )
        for p, row in enumerate(_conormal_rows(spec, top))
    ]


def _degree(spec: ZeroLocusSpec) -> int:
    """deg X = c_r(F) H^d, the d-th finite difference of m -> chi(X, O(m)):
    sum_{m=0..d} (-1)^{d-m} C(d,m) chi(X, O(m)), each by the Euler kernel."""
    d = spec.dim
    koszul = _koszul_character(spec)
    return sum(
        (-1) ** (d - m) * comb(d, m)
        * euler_characteristic(bundles.line(spec.k, spec.n, m), koszul)
        for m in range(d + 1)
    )


def _koszul_totals(
    base: BundleExpr, characters: list[dict[Weight, int]]
) -> tuple[dict[int, int], int]:
    """Antidiagonal totals and chi of the Koszul resolution of base|_X, where
    characters[s] is the torus character of wedge^s F*."""
    totals: dict[int, int] = {}
    chi = 0
    for s, character in enumerate(characters):
        for degree, dim in tensor_cohomology(base, character).items():
            totals[degree - s] = totals.get(degree - s, 0) + dim
            chi += (-1) ** (s + degree) * dim
    return totals, chi


def _intersect(a: tuple[int, int], b: tuple[int, int], where: str) -> tuple[int, int]:
    lo, hi = max(a[0], b[0]), min(a[1], b[1])
    if lo > hi:
        raise InconsistentDataError(
            "Hodge symmetry fixpoint", f"inconsistent Hodge data at {where}: {a} vs {b}"
        )
    return lo, hi


def _symmetrise(grid: list[list[tuple[int, int]]], chis: list[int]) -> None:
    """Interval fixpoint over the diamond: Hodge symmetry h^{p,q} = h^{q,p},
    Serre duality h^{p,q} = h^{d-p,d-q}, ample-class positivity h^{p,p} >= 1,
    and the exact column Euler sums.  All are theorems for a nonempty smooth
    projective variety; they pin down exactly the entries that dimension
    bookkeeping leaves open."""
    d = len(grid) - 1
    for _ in range(4 * (d + 2)):
        changed = False

        def refine(p: int, q: int, new: tuple[int, int]) -> None:
            nonlocal changed
            merged = _intersect(grid[p][q], new, f"h^{{{p},{q}}}")
            if merged != grid[p][q]:
                grid[p][q] = merged
                changed = True

        for p in range(d + 1):
            refine(p, p, (1, grid[p][p][1]))
        for p in range(d + 1):
            for q in range(d + 1):
                refine(p, q, grid[q][p])
                refine(p, q, grid[d - p][d - q])
        for p in range(d + 1):
            for q0 in range(d + 1):
                # (-1)^{q0} h_{p,q0} = chi_p - sum_{q != q0} (-1)^q h_{p,q}
                lo = hi = chis[p]
                for q in range(d + 1):
                    if q == q0:
                        continue
                    a, b = grid[p][q]
                    if q % 2 == 0:
                        lo, hi = lo - b, hi - a
                    else:
                        lo, hi = lo + a, hi + b
                bound = (lo, hi) if q0 % 2 == 0 else (-hi, -lo)
                refine(p, q0, (max(bound[0], 0), bound[1]))
        if not changed:
            return


def _meta(spec: ZeroLocusSpec) -> dict:
    return {
        "ambient": f"G({spec.k},{spec.n})",
        "bundle": str(spec.bundle),
        "assumes": "general section, smooth zero locus",
    }


def _lefschetz_diamond(spec: ZeroLocusSpec) -> HodgeDiamond:
    """Diamond of the zero locus of an ample F: ambient entries off the
    middle row, middle entries from the Euler columns p <= d/2."""
    d = spec.dim
    diagonal = ambient_diamond(spec.k, spec.n).diagonal()
    half = _euler_columns(spec, d // 2)
    chis = half + [(-1) ** d * half[d - p] for p in range(len(half), d + 1)]
    out = HodgeDiamond(d, meta=_meta(spec))
    for p in range(d + 1):
        # (-1)^{d-p} h^{p,d-p} = chi_p - (-1)^p h^{p,p}, where h^{p,p} is the
        # column's one entry off the middle row
        middle = chis[p]
        if 2 * p != d:
            below = diagonal[min(p, d - p)]
            out.set_entry(p, p, below)
            middle -= (-1) ** p * below
        middle *= (-1) ** (d - p)
        if middle < 0:
            raise InconsistentDataError(
                "Lefschetz middle row", f"h^{{{p},{d - p}}} = {middle} < 0"
            )
        out.set_entry(p, d - p, middle)
        out.euler_columns[p] = chis[p]
    out.check_euler_columns()
    out.check_symmetries()
    return out


def _chase_diamond(spec: ZeroLocusSpec) -> HodgeDiamond:
    """Diamond of the zero locus by the Koszul/conormal chase and the
    symmetry fixpoint; entries it cannot force stay intervals."""
    d = spec.dim
    characters = _wedge_characters(spec)
    grid: list[list[tuple[int, int]]] = []
    chis: list[int] = []
    for j, row in enumerate(_conormal_rows(spec, d)):
        # one system per column keeps its rank correlations undiluted
        system = LinearSystem()
        vectors = []
        chi = 0
        for t, base in enumerate(row):
            totals, c = _koszul_totals(base, characters)
            flow = spectral_flow(system, totals, low=0, high=d)
            vectors.append([flow.get(q, Form.of(0)) for q in range(d + 1)])
            chi += (-1) ** (j - t) * c
        forms = les_chain(system, vectors[0], vectors[1:], top=d)
        system.propagate()
        grid.append([(max(lo, 0), hi) for lo, hi in map(system.bounds, forms)])
        chis.append(chi)
    _symmetrise(grid, chis)

    out = HodgeDiamond(d, meta=_meta(spec))
    for p in range(d + 1):
        for q in range(d + 1):
            lo, hi = grid[p][q]
            out.set_entry(p, q, lo, hi)
        out.euler_columns[p] = chis[p]
    out.check_euler_columns()
    out.check_symmetries()
    return out


def hodge_numbers(spec: ZeroLocusSpec) -> HodgeDiamond:
    """Full diamond of the zero locus.

    For ample F every entry is exact (Lefschetz route).  Otherwise entries
    are exact whenever the chase together with Hodge and Serre symmetry
    forces them; everything else is reported as an interval.  A point set
    (dim X = 0) takes the Lefschetz route too.  For F not ample, an empty X
    (degree 0) raises EmptyZeroLocusError; ample F is never empty."""
    ample = bundles.is_ample(spec.bundle)
    if not ample and _degree(spec) == 0:
        raise EmptyZeroLocusError(
            "zero locus is empty (degree 0): c_r(F) = 0, so a general section "
            f"of F vanishes nowhere on G({spec.k},{spec.n})"
        )
    if ample or spec.dim == 0:
        return _lefschetz_diamond(spec)
    return _chase_diamond(spec)


def point_count(spec: ZeroLocusSpec) -> int:
    """Length of a zero-dimensional zero locus: chi(O_X) from the Koszul
    complex of wedge powers of the dual bundle."""
    if spec.dim != 0:
        raise RankError(f"point count needs dim 0, got {spec.dim}")
    return _euler_columns(spec, 0)[0]


def v_cohomology(y: HodgeDiamond, ambient: HodgeDiamond) -> list[int]:
    """Middle-row dimensions orthogonal to the ambient classes.

    Componentwise h^{p,q}(Y) - h^{p,q}(G) over p+q = dim Y (the ambient has
    no off-diagonal classes, so only a central diagonal entry can shift).
    """
    d = y.dim
    if not y.middle_row_exact():
        raise AmbiguityError("middle row of the zero locus diamond is not exact")
    out = []
    for p in range(d + 1):
        q = d - p
        ambient_part = ambient.h(p, q) if p == q else 0
        v = y.h(p, q) - ambient_part
        if v < 0:
            raise InjectivityViolationError(
                f"h^{{{p},{q}}}(Y)={y.h(p, q)} < ambient {ambient_part}"
            )
        out.append(v)
    return out


@dataclass(frozen=True)
class PairInvariants:
    k: int
    n: int
    d1: int
    d2: int
    canonical_twist_1: int
    canonical_twist_2: int
    cy: bool


def pair_invariants(k: int, n: int) -> PairInvariants:
    """Dimensions and canonical twists of the zero-locus pair on
    G(k,n) / G(k+1,n), by adjunction."""
    if not (1 <= k and n >= 2 * k + 1):
        raise RankError(f"pair needs n >= 2k+1, got (k,n)=({k},{n})")
    d1 = k * n - k * k - n + k
    d2 = k * n + n - k * k - 3 * k - 2
    return PairInvariants(
        k=k,
        n=n,
        d1=d1,
        d2=d2,
        canonical_twist_1=n - 2 * k - 1,
        canonical_twist_2=-(n - 2 * k - 1),
        cy=(n == 2 * k + 1),
    )


def pair_specs(k: int, n: int) -> tuple[ZeroLocusSpec, ZeroLocusSpec]:
    """The two zero loci cut out by the pushforwards of a (1,1) section:
    Z(Q*(2)) in G(k,n) and Z(U(2)) in G(k+1,n)."""
    y1 = ZeroLocusSpec(k, n, bundles.twist(bundles.quotient_dual(k, n), 2))
    y2 = ZeroLocusSpec(k + 1, n, bundles.twist(bundles.tautological(k + 1, n), 2))
    return y1, y2


@dataclass
class PairReport:
    k: int
    n: int
    invariants: PairInvariants
    diamond1: HodgeDiamond
    diamond2: HodgeDiamond
    v1: list[int] = field(default_factory=list)
    v2: list[int] = field(default_factory=list)
    shift: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def check_pair_theorem(k: int, n: int) -> PairReport:
    """Verify numerically that the two middle v-rows agree after the index
    shift, that the co-level bound holds, and that off-middle rows are
    diagonal.  A verifier: failures are collected, not proved impossible."""
    inv = pair_invariants(k, n)
    spec1, spec2 = pair_specs(k, n)
    d1m, d2m = hodge_numbers(spec1), hodge_numbers(spec2)
    report = PairReport(k=k, n=n, invariants=inv, diamond1=d1m, diamond2=d2m)
    fail = report.failures.append

    if (inv.d2 - inv.d1) % 2 != 0:
        fail(f"dimension gap d2-d1={inv.d2 - inv.d1} is odd; no index shift")
        return report
    s = (inv.d2 - inv.d1) // 2
    report.shift = s

    g1 = ambient_diamond(k, n)
    g2 = ambient_diamond(k + 1, n)
    try:
        report.v1 = v_cohomology(d1m, g1)
        report.v2 = v_cohomology(d2m, g2)
    except (AmbiguityError, InjectivityViolationError) as exc:
        fail(str(exc))
        return report

    for p in range(inv.d1 + 1):
        if report.v1[p] != report.v2[p + s]:
            fail(
                f"v-rows differ at p={p}: {report.v1[p]} != {report.v2[p + s]}"
            )
    for p in range(inv.d2 + 1):
        if (p < s or p > inv.d2 - s) and report.v2[p] != 0:
            fail(f"v-cohomology of Y2 nonzero at p={p} outside the shifted band")

    # co-level: middle row of Y2 vanishes below p = n-2k-1 and not at it
    colevel = n - 2 * k - 1
    for p in range(min(colevel, inv.d2 + 1)):
        if d2m.h(p, inv.d2 - p) != 0:
            fail(f"co-level violated: h^{{{p},{inv.d2 - p}}}(Y2) != 0")
    if colevel <= inv.d2 and d2m.h(colevel, inv.d2 - colevel) == 0:
        fail(f"h^{{{colevel},{inv.d2 - colevel}}}(Y2) = 0 at the co-level")

    for dm in (d1m, d2m):
        for (p, q), (lo, hi) in dm.entries.items():
            if p + q != dm.dim and p != q and (lo, hi) != (0, 0):
                fail(f"off-middle non-diagonal entry at ({p},{q}): {lo}..{hi}")
    return report
