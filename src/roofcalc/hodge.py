"""Hodge diamonds of smooth zero loci of homogeneous bundles on G(k,n).

For X = Z(s) with s a general section of a globally generated, completely
reducible bundle F of rank r, h^{p,q}(X) = h^q(X, Omega^p_X) is computed by
one of two routes, chosen by `bundles.is_ample(F)` and dim X.  Both read
the same Koszul stage: `_conormal_rows` yields, for each degree j, the terms
Sym^{j-t} F* (x) Omega^t_G of wedge^j of the conormal sequence, each as
the merged (upper + lower, multiplicity) items of its block products
(`lr._blockwise`), never put in canonical `BundleExpr` form, since chi and
the Bott degree do not change when both blocks shift alike; one binomial
fold of F* (`bundles.sym_powers`) gives Sym^0..top F*, one pass over the
k x (n-k) box (`bundles.cotangent_powers`) gives Omega^0..top, and
`bundles.wedge_characters` gives the torus characters of the wedge^s F*
that resolve their restrictions to X.
`_koszul_character` prepares those once per spec, as the layers s of one
`bwb.Character` with one collision layout, and the degree check, the
Euler kernel and the chase all read that one character.

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
     wedge^s F*, summed by the signed Vandermonde kernel
     `bwb.euler_characteristic` over the layers of the Koszul character (the
     sum is linear, so the layers need no merging), which multiplies per
     surviving weight only the factors a weight can move.  No per-degree
     totals, no linear system.
  2. Chase route, for every other F with dim X > 0 (e.g. U*, Q or
     U* + O(1) on G(2,5)).
     Every term (Sym^{p-t} F* (x) Omega^t_G)|_X of the exterior power of
     the conormal sequence is resolved by the Koszul complex of wedge powers
     of F*; the hypercohomology spectral sequence is solved
     antidiagonal-wise (differentials raise total degree by one and vanish
     outside [0, dim X]).  Only the antidiagonal totals, the sums over s of
     dim H^{m+s}(G, wedge^s F* (x) Sym^{p-t} F* (x) Omega^t_G), enter, so
     wedge^s F* is never multiplied out: one call of
     `bwb.tensor_cohomology` per term walks every layer of the Koszul
     character at once, sums Klimyk's signed weights by (s, Bott degree)
     and keys the totals by m.  Terms of opposite sign in one (s, degree)
     are the same irreducible summand, in the same degree, so they cancel
     within it and every total stays exact.
     The conormal complex itself is then split into short exact sequences
     and the long exact sequences are chased.

On the chase route all unknown connecting ranks stay symbolic in one linear
system per column, so forced cancellations propagate exactly; afterwards
Hodge symmetry, Serre duality, ample-class positivity and the exact column
Euler sums (all theorems for a nonempty smooth projective variety; they pin
down the columns above the middle that dimension bookkeeping alone leaves
open) become constraints of one more `LinearSystem`, one variable per entry,
and the same `propagate` runs them to a fixpoint over the whole table (the
columns' systems stay apart from it: propagating on their rank forms would
lose the per-entry intervals).  Entries that still cannot be forced are
reported as intervals and flagged inexact; no rank is guessed.  Euler
characteristics of columns are alternating sums, hence always exact.  Each
route returns only its grid of intervals and its Euler columns; that grid
becomes the diamond's one storage format, as is.  Each theorem holds where
the route writes the grid, and nothing checks it again: the Lefschetz grid
is symmetric and sums to its Euler columns by construction, and on the
chase `_symmetrise`'s fixpoint gives symmetric entries equal boxes and puts
each chi_p inside its column's range, or raises InconsistentDataError.

Emptiness is decided, not assumed.  For F not ample, deg X = c_r(F) H^d
is computed first as the d-th finite difference of m -> chi(X, O(m)), m =
0..d, each term by the same Euler kernel on lambda_{-1} F*; a general zero
locus of a globally generated F is empty iff that is 0, and then
`EmptyZeroLocusError` is raised.  Ample F skips the check: c_r(F) > 0 when
rank F <= dim G (Fulton-Lazarsfeld 1983).  Smoothness and generality of the
section are recorded assumptions, not verified.  An exact diamond and its
E-polynomial (`motive.EPoly`, the layer below) convert both ways, and the
ambient diamond of G(k,n) is the diamond of E(G(k,n)).
"""

from __future__ import annotations

from math import comb

from . import bundles
from .bundles import BundleExpr
from .bwb import Character, euler_characteristic, gl_dimension, tensor_cohomology
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
from .lr import _blockwise
from .motive import EPoly, _gaussian_binomial, epoly_grassmannian, verify_lemma_leq
from .weights import Value, Weight

# Limit on n^2 prod (m+1)^(rank A) over the summands m*A of F, a measure of
# the Koszul character's size.  Each copy of an atom A adds a 0/1 vector on
# A's block to a weight of lambda_{-1} F*, and A's twist is fixed by the size
# of that vector, so A^{+m} contributes one vector in {0..m}^(rank A) and the
# product bounds the character's records (one per weight of each layer).
# Each of up to n^2/2 position pairs is prepared once into collision
# bitsets with one bit per record (they grow with the number of weights, not
# with the size of the twist); per term the walk looks up up to n^2/2 gaps
# once and reads one keep flag per record, and a surviving record costs a
# product of its active factors, up to n^2/2 of them (its offsets are
# computed once, when it first survives).  The measure does not count the
# conormal terms.  Q*(2) on P^18 (the pair at (1,19)) is at 9.5e7,
# the pair bundles up to G(8,15) at 57600, and 1200 copies of O(1) on
# P^1299 at 2.0e9.
MAX_KOSZUL_WORK = 10**8


# intervals (lo, hi) of h^{p,q}, indexed [p][q]
Grid = list[list[tuple[int, int]]]


class HodgeDiamond:
    """Diamond of a variety of dimension len(grid) - 1, with per-entry
    exactness and exact Euler columns.

    `grid[p][q]` is the interval (lo, hi) of h^{p,q}, exact when lo == hi,
    and `euler_columns[p]` is chi_p = chi(Omega^p).  The grid is the one the
    route and `_symmetrise` wrote, with Hodge symmetry, Serre duality and
    the Euler columns already in force, and it is the diamond's only
    storage: the renderings and `epoly` read its rows, and `from_epoly`
    writes the exact grid of an E-polynomial, such as E(G(k,n))."""

    def __init__(self, grid: Grid, chis: list[int], meta: dict | None = None):
        self.grid = grid
        self.euler_columns = chis
        self.dim = len(grid) - 1
        self.meta = dict(meta or {})

    def h(self, p: int, q: int) -> int:
        lo, hi = self.grid[p][q]
        if lo != hi:
            raise AmbiguityError(f"h^{{{p},{q}}} only known in [{lo},{hi}]")
        return lo

    def fully_exact(self) -> bool:
        return all(lo == hi for row in self.grid for lo, hi in row)

    def epoly(self) -> EPoly:
        """E-polynomial of a smooth projective variety from its exact diamond."""
        if not self.fully_exact():
            raise AmbiguityError("diamond has inexact entries; no E-polynomial")
        return EPoly.from_dict({
            (p, q): (-1) ** (p + q) * lo
            for p, row in enumerate(self.grid)
            for q, (lo, _) in enumerate(row)
        })

    @staticmethod
    def from_epoly(e: EPoly, meta: dict) -> "HodgeDiamond":
        """Exact diamond with h^{p,q} = (-1)^{p+q} e_{p,q}, of the dimension of
        the top exponent, and chi_p = sum_q (-1)^q h^{p,q}."""
        d = max((max(pq) for pq, _ in e.coeffs), default=0)
        grid = [[(0, 0)] * (d + 1) for _ in range(d + 1)]
        for (p, q), c in e.coeffs:
            h = (-1) ** (p + q) * c
            if h < 0:
                raise InconsistentDataError("E-polynomial", f"h^{{{p},{q}}} = {h} < 0")
            grid[p][q] = (h, h)
        chis = [sum((-1) ** q * lo for q, (lo, _) in enumerate(row)) for row in grid]
        return HodgeDiamond(grid, chis, meta)

    def middle_row(self) -> list[int]:
        d = self.dim
        return [self.h(p, d - p) for p in range(d + 1)]

    def diagonal(self) -> list[int]:
        return [self.h(p, p) for p in range(self.dim + 1)]

    def render(self) -> str:
        """Diamond layout: row r holds h^{p,q} with p+q = r, p decreasing."""
        d = self.dim
        rows = []
        for r in range(2 * d + 1):
            row = []
            for p in range(min(r, d), max(0, r - d) - 1, -1):
                lo, hi = self.grid[p][r - p]
                row.append(str(lo) if lo == hi else f"[{lo}..{hi}]")
            rows.append(row)
        width = max(len(c) for row in rows for c in row) + 1
        lines = []
        for row in rows:
            pad = " " * ((2 * d + 1 - len(row)) * width // 2)
            lines.append((pad + "".join(c.center(width) for c in row)).rstrip())
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "h": [
                [str(lo) if lo == hi else {"lo": str(lo), "hi": str(hi)} for lo, hi in row]
                for row in self.grid
            ],
            "exact": [[lo == hi for lo, hi in row] for row in self.grid],
            "eulerColumns": {str(p): str(v) for p, v in enumerate(self.euler_columns)},
            "meta": self.meta,
        }


class ZeroLocusSpec(Value):
    """Zero locus of a general section of a globally generated bundle."""

    __slots__ = ("k", "n", "bundle")

    def __init__(self, k: int, n: int, bundle: BundleExpr):
        self.k, self.n, self.bundle = k, n, bundle
        if bundle.ambient != (k, n):
            raise RankError(f"bundle on G{bundle.ambient}, spec says G({k},{n})")
        if not bundles.is_globally_generated(bundle):
            raise RankError(f"{bundle} is not globally generated")
        if self.dim < 0:
            raise RankError(
                f"rank {bundles.rank(bundle)} exceeds dim G = {self.ambient_dim}"
            )
        for w, _ in bundle.terms:
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
    """Diamond of G(k,n), the diamond of E(G(k,n)): h^{p,p} counts partitions
    of p in the k x (n-k) box."""
    return HodgeDiamond.from_epoly(epoly_grassmannian(k, n), {"variety": f"G({k},{n})"})


def _conormal_rows(spec: ZeroLocusSpec, top: int):
    """Rows j = 0..top of the exterior powers of the conormal sequence:
    row j lists Sym^{j-t} F* (x) Omega^t_G for t = 0..j, before restriction
    to X, each as merged (upper + lower, multiplicity) items straight from
    `lr._blockwise`, in no canonical shift: chi and the Bott degree do not
    change when both blocks shift alike.  One fold of F* gives Sym^0..top F*,
    and one pass over the box gives Omega^0..top."""
    k, n = spec.k, spec.n
    syms = bundles.sym_powers(bundles.dual(spec.bundle), top)
    omegas = bundles.cotangent_powers(k, n, top)
    for j in range(top + 1):
        row = []
        for t in range(j + 1):
            merged: dict[Weight, int] = {}
            for (up, lo), m in _blockwise(syms[j - t].terms, omegas[t].terms, k, n - k):
                key = up + lo
                merged[key] = merged.get(key, 0) + m
            row.append(list(merged.items()))
        yield row


def _koszul_character(spec: ZeroLocusSpec) -> Character:
    """The torus characters of wedge^s F*, s = 0..rank F, as the layers of
    one `Character`, once the input passes the work limit.  Its signed sum
    is lambda_{-1} F*, which the Euler kernel reads."""
    f = spec.bundle
    work = spec.n**2
    for w, m in f.terms:
        # stop at the first factor past the limit: the product can be 2^dim G
        work *= (m + 1) ** (gl_dimension(w.upper) * gl_dimension(w.lower))
        if work > MAX_KOSZUL_WORK:
            raise WorkLimitError(
                "Koszul stage too large: n^2 prod (m+1)^(rank A) over the "
                f"summands m*A of F exceeds {MAX_KOSZUL_WORK}"
            )
    return Character(bundles.wedge_characters(bundles.dual(f)), spec.k, spec.n)


def _euler_columns(spec: ZeroLocusSpec, koszul: Character, top: int) -> list[int]:
    """chi(Omega^p_X) for p = 0..top, by the Euler kernel on lambda_{-1} F*."""
    return [
        sum(
            (-1) ** (p - t) * euler_characteristic(base, koszul)
            for t, base in enumerate(row)
        )
        for p, row in enumerate(_conormal_rows(spec, top))
    ]


def _degree(spec: ZeroLocusSpec, koszul: Character) -> int:
    """deg X = c_r(F) H^d, the d-th finite difference of m -> chi(X, O(m)):
    sum_{m=0..d} (-1)^{d-m} C(d,m) chi(X, O(m)), each by the Euler kernel
    on `koszul`, whose layers wedge^s F* sum to lambda_{-1} F*; O(m) is the
    one item (m^k | 0^(n-k))."""
    d, k = spec.dim, spec.k
    return sum(
        (-1) ** (d - m) * comb(d, m)
        * euler_characteristic([((m,) * k + (0,) * (spec.n - k), 1)], koszul)
        for m in range(d + 1)
    )


def _symmetrise(grid: Grid, chis: list[int]) -> None:
    """Narrow the diamond's intervals to the fixpoint of four theorems for a
    nonempty smooth projective variety: Hodge symmetry h^{p,q} = h^{q,p},
    Serre duality h^{p,q} = h^{d-p,d-q}, positivity (h^{p,q} >= 0, and
    h^{p,p} >= 1 by the ample class) and the exact column Euler sums
    sum_q (-1)^q h^{p,q} = chi_p.  They pin down exactly the entries that
    dimension bookkeeping leaves open.  Each entry is one variable of a
    `LinearSystem`, boxed by its interval, and `propagate` runs the theorems
    as >= 0 constraints to the fixpoint or raises InconsistentDataError."""
    d = len(grid) - 1
    system = LinearSystem()
    ids = [
        [system.new_var(max(lo, int(p == q)), hi) for q, (lo, hi) in enumerate(row)]
        for p, row in enumerate(grid)
    ]
    # each symmetry as two inequalities, not a substitution, which would
    # give the middle column's Euler sum coefficients +-2 and round them
    for p in range(d + 1):
        for q in range(d + 1):
            h = Form.var(ids[p][q])
            system.add_ge0(h - Form.var(ids[q][p]))
            system.add_ge0(h - Form.var(ids[d - p][d - q]))
        column = Form({v: (-1) ** q for q, v in enumerate(ids[p])}, -chis[p])
        system.add_ge0(column)
        system.add_ge0(-column)
    system.propagate()
    for row, vs in zip(grid, ids):
        row[:] = [tuple(system.boxes[v]) for v in vs]


def _lefschetz_grid(spec: ZeroLocusSpec, koszul: Character) -> tuple[Grid, list[int]]:
    """Entries and Euler columns of the zero locus of an ample F, or of a
    point set: ambient entries off the middle row, middle entries from the
    Euler columns p <= d/2."""
    d = spec.dim
    diagonal = _gaussian_binomial(spec.k, spec.n)
    half = _euler_columns(spec, koszul, d // 2)
    chis = half + [(-1) ** d * half[d - p] for p in range(len(half), d + 1)]
    grid = [[(0, 0)] * (d + 1) for _ in range(d + 1)]
    for p in range(d + 1):
        # (-1)^{d-p} h^{p,d-p} = chi_p - (-1)^p h^{p,p}, where h^{p,p} is the
        # column's one entry off the middle row
        middle = chis[p]
        if 2 * p != d:
            below = diagonal[min(p, d - p)]
            grid[p][p] = (below, below)
            middle -= (-1) ** p * below
        middle *= (-1) ** (d - p)
        if middle < 0:
            raise InconsistentDataError(
                "Lefschetz middle row", f"h^{{{p},{d - p}}} = {middle} < 0"
            )
        grid[p][d - p] = (middle, middle)
    return grid, chis


def _chase_grid(spec: ZeroLocusSpec, koszul: Character) -> tuple[Grid, list[int]]:
    """Entries and Euler columns of the zero locus by the Koszul/conormal
    chase, one `LinearSystem` per column, then the symmetry fixpoint
    `_symmetrise`, which also raises every lower end to 0; entries they
    cannot force stay intervals.  `koszul` holds the layers wedge^s F* of
    the Koszul resolution."""
    d = spec.dim
    grid: Grid = []
    chis: list[int] = []
    for j, row in enumerate(_conormal_rows(spec, d)):
        # one system per column keeps its rank correlations undiluted
        system = LinearSystem()
        vectors = []
        chi = 0
        for t, base in enumerate(row):
            totals = tensor_cohomology(base, koszul)
            flow = spectral_flow(system, totals, high=d)
            vectors.append([flow.get(q, Form.of(0)) for q in range(d + 1)])
            # m may be negative, where (-1) ** m is a float
            c = sum(-h if m & 1 else h for m, h in totals.items())
            chi += (-1) ** (j - t) * c
        forms = les_chain(system, vectors[0], vectors[1:], top=d)
        system.propagate()
        grid.append(list(map(system.bounds, forms)))
        chis.append(chi)
    _symmetrise(grid, chis)
    return grid, chis


def hodge_numbers(spec: ZeroLocusSpec) -> HodgeDiamond:
    """Full diamond of the zero locus.

    For ample F every entry is exact (Lefschetz route).  Otherwise entries
    are exact whenever the chase together with Hodge and Serre symmetry
    forces them; everything else is reported as an interval.  A point set
    (dim X = 0) takes the Lefschetz route too.  For F not ample, an empty X
    (degree 0) raises EmptyZeroLocusError; ample F is never empty.  The
    diamond is not checked again here: `_lefschetz_grid` writes h^{p,p}
    from the ambient diagonal at min(p, d-p), chi_{d-p} = (-1)^d chi_p and
    each middle entry from its column's chi_p, and `_symmetrise` holds the
    chase's grid to the same theorems."""
    ample = bundles.is_ample(spec.bundle)
    koszul = _koszul_character(spec)
    if not ample and _degree(spec, koszul) == 0:
        raise EmptyZeroLocusError(
            "zero locus is empty (degree 0): c_r(F) = 0, so a general section "
            f"of F vanishes nowhere on G({spec.k},{spec.n})"
        )
    route = _lefschetz_grid if ample or spec.dim == 0 else _chase_grid
    grid, chis = route(spec, koszul)
    return HodgeDiamond(
        grid,
        chis,
        meta={
            "ambient": f"G({spec.k},{spec.n})",
            "bundle": str(spec.bundle),
            "assumes": "general section, smooth zero locus",
        },
    )


def v_cohomology(y: HodgeDiamond, ambient: HodgeDiamond) -> list[int]:
    """Middle-row dimensions orthogonal to the ambient classes.

    Componentwise h^{p,q}(Y) - h^{p,q}(G) over p+q = dim Y (the ambient has
    no off-diagonal classes, so only a central diagonal entry can shift).
    """
    d = y.dim
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


def pair_specs(k: int, n: int) -> tuple[ZeroLocusSpec, ZeroLocusSpec]:
    """The two zero loci cut out by the pushforwards of a (1,1) section:
    Z(Q*(2)) in G(k,n) and Z(U(2)) in G(k+1,n)."""
    if not (1 <= k and n >= 2 * k + 1):
        raise RankError(f"pair needs n >= 2k+1, got (k,n)=({k},{n})")
    y1 = ZeroLocusSpec(k, n, bundles.twist(bundles.quotient_dual(k, n), 2))
    y2 = ZeroLocusSpec(k + 1, n, bundles.twist(bundles.tautological(k + 1, n), 2))
    return y1, y2


class PairReport:
    __slots__ = ("diamond1", "diamond2", "v1", "v2", "shift", "failures", "residual")

    def __init__(
        self, diamond1: HodgeDiamond, diamond2: HodgeDiamond,
        v1: list[int] | None = None, v2: list[int] | None = None,
        shift: int = 0, failures: list[str] | None = None, residual: EPoly | None = None,
    ):
        self.diamond1, self.diamond2, self.shift = diamond1, diamond2, shift
        self.v1 = [] if v1 is None else v1
        self.v2 = [] if v2 is None else v2
        self.failures = [] if failures is None else failures
        self.residual = residual  # of the Grothendieck identity; None if a diamond is inexact

    @property
    def passed(self) -> bool:
        return not self.failures


def check_pair_theorem(k: int, n: int) -> PairReport:
    """Verify numerically that the two middle v-rows agree after the index
    shift and that the co-level bound holds, and take the residual of the
    Grothendieck identity (`motive.verify_lemma_leq`) when both diamonds are
    exact.  Q*(2) and U(2) are ample, so both diamonds take the Lefschetz
    route, which writes nothing off the diagonal and the middle row.  A
    verifier: failures are collected, not proved impossible."""
    spec1, spec2 = pair_specs(k, n)
    y1, y2 = hodge_numbers(spec1), hodge_numbers(spec2)
    report = PairReport(diamond1=y1, diamond2=y2)
    if y1.fully_exact() and y2.fully_exact():
        report.residual = verify_lemma_leq(k, n, y1, y2)[1]
    fail = report.failures.append
    d1, d2 = y1.dim, y2.dim

    # d2 - d1 = 2(n-2k-1): the shift of the v-rows is the co-level s, and by
    # adjunction it is also the canonical twist, K_{Y1} = O(s), K_{Y2} = O(-s)
    s = report.shift = n - 2 * k - 1

    g1 = ambient_diamond(k, n)
    g2 = ambient_diamond(k + 1, n)
    try:
        report.v1 = v_cohomology(y1, g1)
        report.v2 = v_cohomology(y2, g2)
    except (AmbiguityError, InjectivityViolationError) as exc:
        fail(str(exc))
        return report

    for p in range(d1 + 1):
        if report.v1[p] != report.v2[p + s]:
            fail(
                f"v-rows differ at p={p}: {report.v1[p]} != {report.v2[p + s]}"
            )
    for p in range(d2 + 1):
        if (p < s or p > d2 - s) and report.v2[p] != 0:
            fail(f"v-cohomology of Y2 nonzero at p={p} outside the shifted band")

    # co-level: middle row of Y2 vanishes below p = s and not at it
    for p in range(min(s, d2 + 1)):
        if y2.h(p, d2 - p) != 0:
            fail(f"co-level violated: h^{{{p},{d2 - p}}}(Y2) != 0")
    if s <= d2 and y2.h(s, d2 - s) == 0:
        fail(f"h^{{{s},{d2 - s}}}(Y2) = 0 at the co-level")
    return report
