"""Exact linear chase for cohomology dimension bookkeeping.

Connecting maps in long exact sequences and spectral-sequence differentials
have unknown ranks; everything else is linear.  Each unknown rank becomes a
variable, every cohomology dimension an affine form with unit coefficients,
and the chase is: eliminate variables through forced equalities (boundary
vanishing, injectivity at degree zero, symmetry identifications), then
tighten variable boxes by propagating the remaining inequalities.  Equality
elimination is what captures cancellations like h = a - x + (x - b) that
interval arithmetic alone cannot see.

Two model builders sit on top of the core system:

  * `spectral_flow` -- hypercohomology of a bounded complex with known term
    cohomology.  Differentials on every page move total degree up by one and
    kill equal dimensions from both antidiagonals, so the unknowns reduce to
    one flow variable per antidiagonal.
  * `les_chain` -- a chain of short exact sequences 0->K_{i-1}->M_i->K_i->0
    with the connecting ranks as variables.

All coefficients stay in {-1, 0, 1}; arithmetic is exact.

Every variable gets a closed integer box when it is created: a rank is at
most the dimension of either side of its map, and both builders know those
dimensions.  Propagation only shrinks boxes, and a sweep that changes
anything shrinks their total width by at least one, so `propagate` ends by
finite descent, at the fixpoint or at an empty box.

Propagation is linear per sweep: each inequality f >= 0 with m terms is
walked twice, once to sum its upper bound over the boxes and once to tighten
each variable v from "f without v's term", which is that sum less v's own
term.  This is exact, not a relaxation: a step for c*v with c > 0 only raises
v's lower end, while v's term in the sum reads only its upper end (mirrored
for c < 0), so no step within the walk changes a term already summed.  The
box updates, their order and any inconsistency found are those of
re-summing the other m - 1 terms for every v, at O(m) instead of O(m^2).
"""

from __future__ import annotations

from .errors import InconsistentDataError


class Form:
    """Affine integer form: sum of coeff * var + const."""

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs: dict[int, int] | None = None, const: int = 0):
        self.coeffs = {v: c for v, c in (coeffs or {}).items() if c}
        self.const = const

    @staticmethod
    def of(const: int) -> "Form":
        return Form({}, const)

    @staticmethod
    def var(v: int) -> "Form":
        return Form({v: 1}, 0)

    def __add__(self, other: "Form") -> "Form":
        out = dict(self.coeffs)
        for v, c in other.coeffs.items():
            out[v] = out.get(v, 0) + c
        return Form(out, self.const + other.const)

    def __sub__(self, other: "Form | int") -> "Form":
        if isinstance(other, int):
            return Form(self.coeffs, self.const - other)
        out = dict(self.coeffs)
        for v, c in other.coeffs.items():
            out[v] = out.get(v, 0) - c
        return Form(out, self.const - other.const)

    def __neg__(self) -> "Form":
        return Form({v: -c for v, c in self.coeffs.items()}, -self.const)

    def is_const(self) -> bool:
        return not self.coeffs

    def __repr__(self) -> str:
        parts = [f"{c:+d}*v{v}" for v, c in sorted(self.coeffs.items())]
        return " ".join(parts + [f"{self.const:+d}"])


class LinearSystem:
    """Variables with closed integer boxes, substitutions, and >=0 constraints."""

    def __init__(self):
        self.boxes: list[list[int]] = []
        self.subs: dict[int, Form] = {}
        self.ineqs: list[Form] = []

    def new_var(self, lo: int, hi: int) -> int:
        """A fresh variable with the box lo <= v <= hi."""
        v = len(self.boxes)
        if lo > hi:
            raise InconsistentDataError(
                "chase", f"inconsistent chase: empty box for v{v}"
            )
        self.boxes.append([lo, hi])
        return v

    # -- substitution machinery ------------------------------------------

    def reduce(self, form: Form) -> Form:
        out = Form(form.coeffs, form.const)
        while True:
            hit = None
            for v in out.coeffs:
                if v in self.subs:
                    hit = v
                    break
            if hit is None:
                return out
            c = out.coeffs.pop(hit)
            sub = self.subs[hit]
            for v2, c2 in sub.coeffs.items():
                out.coeffs[v2] = out.coeffs.get(v2, 0) + c * c2
                if out.coeffs[v2] == 0:
                    del out.coeffs[v2]
            out.const += c * sub.const

    def add_eq(self, form: Form) -> None:
        """Impose form == 0 by eliminating one unit-coefficient variable."""
        f = self.reduce(form)
        if f.is_const():
            if f.const != 0:
                raise InconsistentDataError(
                    "chase", f"inconsistent chase: {f.const} == 0"
                )
            return
        pivot = None
        for v, c in f.coeffs.items():
            if abs(c) == 1:
                pivot = (v, c)
                break
        if pivot is None:
            # all coefficients are +-1 in this application
            raise InconsistentDataError("chase", f"no unit pivot in {f}")
        v, c = pivot
        rest = Form({u: k for u, k in f.coeffs.items() if u != v}, f.const)
        # c*v + rest == 0  =>  v == -rest/c
        self.subs[v] = Form(
            {u: (-k if c == 1 else k) for u, k in rest.coeffs.items()},
            -rest.const if c == 1 else rest.const,
        )
        # fold the variable's old box into inequalities on the substitution
        lo, hi = self.boxes[v]
        sub = self.subs[v]
        self.add_ge0(sub - lo)
        self.add_ge0(Form.of(hi) - sub)

    def add_ge0(self, form: Form) -> None:
        self.ineqs.append(form)

    # -- bound propagation -------------------------------------------------

    def _form_bounds(self, f: Form) -> tuple[int, int]:
        lo = hi = f.const
        for v, c in f.coeffs.items():
            blo, bhi = self.boxes[v]
            if c > 0:
                lo, hi = lo + c * blo, hi + c * bhi
            else:
                lo, hi = lo + c * bhi, hi + c * blo
        return lo, hi

    def propagate(self) -> None:
        reduced = [self.reduce(f) for f in self.ineqs]
        reduced = [f for f in reduced if f.coeffs or f.const < 0]
        for f in reduced:
            if f.is_const() and f.const < 0:
                raise InconsistentDataError(
                    "chase", f"inconsistent chase: {f.const} >= 0"
                )
        boxes = self.boxes
        while True:
            changed = False
            for f in reduced:
                # upper bound of f over the boxes
                hi = f.const
                for v, c in f.coeffs.items():
                    hi += c * boxes[v][1 if c > 0 else 0]
                for v, c in f.coeffs.items():
                    box = boxes[v]
                    # upper bound of f - c*v: hi less v's own term
                    ohi = hi - c * box[1 if c > 0 else 0]
                    # c*v >= -other_true >= -ohi
                    if c > 0:
                        new_lo = -(ohi // c)  # ceil(-ohi / c)
                        if new_lo > box[0]:
                            box[0] = new_lo
                            changed = True
                    else:
                        new_hi = ohi // (-c)  # floor(ohi / -c)
                        if new_hi < box[1]:
                            box[1] = new_hi
                            changed = True
                    if box[0] > box[1]:
                        raise InconsistentDataError(
                            "chase", f"inconsistent chase: empty box for v{v}"
                        )
            if not changed:
                return

    def bounds(self, form: Form) -> tuple[int, int]:
        return self._form_bounds(self.reduce(form))


def spectral_flow(
    system: LinearSystem,
    totals: dict[int, int],
    *,
    high: int,
) -> dict[int, Form]:
    """Limit of a first-quadrant-style spectral sequence, antidiagonal-wise.

    `totals[m]` is the page-one total on antidiagonal m.  All differentials
    map m -> m+1 and kill equal dimensions on both sides; `flow[m]` is their
    total rank, boxed in [0, min(totals[m], totals[m+1])].  The limit must
    vanish outside the cohomology degrees [0, high].  Returns forms for the
    surviving totals h_m with the vanishing imposed.
    """
    if not totals:
        return {}
    ms = sorted(totals)
    m_min, m_max = ms[0], ms[-1]

    # a differential m -> m+1 can only have rank if both sides are nonzero
    flows = {
        m: Form.var(system.new_var(0, min(totals[m], totals[m + 1])))
        for m in range(m_min, m_max)
        if totals.get(m, 0) and totals.get(m + 1, 0)
    }

    def flow(m: int) -> Form:
        return flows.get(m, Form.of(0))

    out: dict[int, Form] = {}
    for m in range(m_min, m_max + 1):
        h = Form.of(totals.get(m, 0)) - flow(m - 1) - flow(m)
        if 0 <= m <= high:
            system.add_ge0(h)
            out[m] = h
        else:
            system.add_eq(h)
    return out


def les_chain(
    system: LinearSystem,
    first: list[Form],
    middles: list[list[Form]],
    *,
    top: int,
) -> list[Form]:
    """Chase K_0 = first through 0 -> K_{i-1} -> M_i -> K_i -> 0.

    All objects live on a space of dimension `top`; vectors are indexed by
    degree 0..top.  The connecting rank x_q into degree q of M_i is boxed in
    [0, upper bound of M_i^q].  Returns the forms of the final cokernel K_L.
    """
    degrees = top + 1
    k_prev = list(first)

    def at(vec: list[Form], q: int) -> Form:
        return vec[q] if 0 <= q < len(vec) else Form.of(0)

    for mid in middles:
        xs = [
            Form.var(system.new_var(0, system.bounds(at(mid, q))[1]))
            for q in range(degrees)
        ]
        # H^0(K_{i-1}) -> H^0(M_i) is injective
        system.add_eq(xs[0] - at(k_prev, 0))
        for q in range(degrees):
            system.add_ge0(at(k_prev, q) - xs[q])
            system.add_ge0(at(mid, q) - xs[q])
        k_new = []
        for q in range(degrees):
            x_next = xs[q + 1] if q + 1 < degrees else Form.of(0)
            h = at(mid, q) - xs[q] + at(k_prev, q + 1) - x_next
            system.add_ge0(h)
            k_new.append(h)
        k_prev = k_new
    return k_prev
