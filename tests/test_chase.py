"""Unit tests of the linear chase engine on hand-checkable systems."""

import random

import pytest

from roofcalc.chase import Form, LinearSystem, les_chain, spectral_flow
from roofcalc.errors import InconsistentDataError


def bounds_of(system, forms):
    system.propagate()
    return [system.bounds(f) for f in forms]


class TestLinearSystem:
    def test_equality_elimination_cancels(self):
        # h = (a - x) - (b - x) must collapse to a - b exactly
        s = LinearSystem()
        x = Form.var(s.new_var(0, 100))
        h1 = Form.of(10) - x
        h2 = Form.of(4) - x
        s.add_eq(h2)  # forces x = 4
        assert s.bounds(h1) == (6, 6)

    def test_inconsistent_equality_raises(self):
        s = LinearSystem()
        with pytest.raises(ArithmeticError):
            s.add_eq(Form.of(3))

    def test_propagation_tightens(self):
        s = LinearSystem()
        x = Form.var(s.new_var(0, 100))
        y = Form.var(s.new_var(0, 100))
        s.add_ge0(Form.of(5) - x - y)  # x + y <= 5
        s.propagate()
        assert s.bounds(x) == (0, 5)
        assert s.bounds(x + y) == (0, 10)  # box evaluation, not joint

    def test_forced_zero(self):
        s = LinearSystem()
        x = Form.var(s.new_var(0, 100))
        s.add_ge0(-x)
        s.propagate()
        assert s.bounds(x) == (0, 0)


class TestSpectralFlow:
    def test_no_cancellation(self):
        s = LinearSystem()
        out = spectral_flow(s, {0: 1, 4: 15}, high=4)
        assert bounds_of(s, [out[m] for m in (0, 4)]) == [(1, 1), (15, 15)]

    def test_boundary_forces_chain(self):
        # totals beyond the window must cancel downward step by step
        s = LinearSystem()
        out = spectral_flow(s, {4: 100, 5: 30, 6: 10}, high=4)
        s.propagate()
        # f5 = 10, f4 = 30 - 10 = 20, h4 = 100 - 20
        assert s.bounds(out[4]) == (80, 80)

    def test_interior_ambiguity_stays(self):
        s = LinearSystem()
        out = spectral_flow(s, {2: 5, 3: 3}, high=4)
        s.propagate()
        lo2, hi2 = s.bounds(out[2])
        lo3, hi3 = s.bounds(out[3])
        assert (lo2, hi2) == (2, 5)
        assert (lo3, hi3) == (0, 3)

    def test_negative_window_clamps(self):
        s = LinearSystem()
        out = spectral_flow(s, {-1: 7, 0: 7}, high=4)
        s.propagate()
        assert s.bounds(out[0]) == (0, 0)


class TestLesChain:
    def test_zero_kernel_passthrough(self):
        s = LinearSystem()
        zero = [Form.of(0)] * 5
        mid = [Form.of(0), Form.of(1), Form.of(0), Form.of(0), Form.of(7)]
        out = les_chain(s, zero, [mid], top=4)
        assert bounds_of(s, out) == [(0, 0), (1, 1), (0, 0), (0, 0), (7, 7)]

    def test_correlated_cancellation(self):
        # 0 -> A -> B1 -> C1 -> 0, 0 -> C1 -> B2 -> C2 -> 0 with all data in
        # top degree: the middle cancellation must happen symbolically
        s = LinearSystem()
        a = [Form.of(0), Form.of(0), Form.of(10)]
        b1 = [Form.of(0), Form.of(0), Form.of(14)]
        b2 = [Form.of(0), Form.of(0), Form.of(6)]
        c2 = les_chain(s, a, [b1, b2], top=2)
        s.propagate()
        # chi is determined: 6 - 14 + 10 = 2 must equal h0 - h1 + h2
        chi_form = c2[0] - c2[1] + c2[2]
        assert s.bounds(chi_form) == (2, 2)

    def test_injectivity_at_degree_zero(self):
        # H^0(A) -> H^0(B) injective: h0(C) = h0(B) - h0(A) + ker into h1
        s = LinearSystem()
        a = [Form.of(3), Form.of(0), Form.of(0)]
        b = [Form.of(5), Form.of(0), Form.of(0)]
        out = les_chain(s, a, [b], top=2)
        assert bounds_of(s, out) == [(2, 2), (0, 0), (0, 0)]


class TestSoundnessAgainstRandomTruth:
    """The chase must always bracket data generated from actual ranks."""

    def test_les_chain_brackets_truth(self):
        import random

        rng = random.Random(99)
        for _ in range(200):
            top = rng.randint(1, 4)
            degrees = top + 1
            length = rng.randint(1, 3)
            k_true = [rng.randint(0, 9) for _ in range(degrees)]
            middles = []
            ks = [k_true]
            for _ in range(length):
                prev = ks[-1]
                # choose genuine connecting ranks, then build M and K
                x = [prev[0]] + [rng.randint(0, prev[q]) for q in range(1, degrees)]
                m = [x[q] + rng.randint(0, 6) for q in range(degrees)]
                nxt = [
                    m[q] - x[q] + (prev[q + 1] if q + 1 < degrees else 0)
                    - (x[q + 1] if q + 1 < degrees else 0)
                    for q in range(degrees)
                ]
                middles.append(m)
                ks.append(nxt)
            s = LinearSystem()
            out = les_chain(
                s,
                [Form.of(v) for v in ks[0]],
                [[Form.of(v) for v in m] for m in middles],
                top=top,
            )
            s.propagate()
            for q in range(degrees):
                lo, hi = s.bounds(out[q])
                assert lo <= ks[-1][q] <= hi, (ks, middles)

    def test_spectral_flow_brackets_truth(self):
        import random

        from roofcalc.chase import spectral_flow

        rng = random.Random(4242)
        for _ in range(300):
            high = rng.randint(1, 5)
            span = rng.randint(1, 6)
            start = rng.randint(-3, 2)
            window = range(start, start + span)
            # genuine survivors (zero outside [0, high]) and genuine flows;
            # a positive flow forces both adjacent totals positive, so the
            # reconstructed data is always consistent with the model
            truth = {
                m: (rng.randint(0, 7) if 0 <= m <= high else 0) for m in window
            }
            flows = {m: rng.randint(0, 5) for m in range(start, start + span - 1)}
            totals = {
                m: truth[m] + flows.get(m - 1, 0) + flows.get(m, 0) for m in window
            }
            s = LinearSystem()
            out = spectral_flow(s, dict(totals), high=high)
            s.propagate()
            for m, h in out.items():
                lo, hi = s.bounds(h)
                assert lo <= truth.get(m, 0) <= hi, (totals, truth, m)


def reference_propagate(system):
    """The quadratic sweep: re-sum "f without v" for every (f, v) pair."""
    reduced = [system.reduce(f) for f in system.ineqs]
    reduced = [f for f in reduced if f.coeffs or f.const < 0]
    for f in reduced:
        if f.is_const() and f.const < 0:
            raise ArithmeticError(f"inconsistent chase: {f.const} >= 0")
    while True:
        changed = False
        for f in reduced:
            for v, c in f.coeffs.items():
                other = Form({u: k for u, k in f.coeffs.items() if u != v}, f.const)
                _, ohi = system._form_bounds(other)
                box = system.boxes[v]
                if c > 0:
                    new_lo = -(ohi // c)
                    if new_lo > box[0]:
                        box[0] = new_lo
                        changed = True
                else:
                    new_hi = ohi // (-c)
                    if new_hi < box[1]:
                        box[1] = new_hi
                        changed = True
                if box[0] > box[1]:
                    raise ArithmeticError(f"inconsistent chase: empty box for v{v}")
        if not changed:
            return


def random_system(seed):
    """Boxes with wide ends (-50, 50), +-1 forms, some equalities; often
    infeasible."""
    rng = random.Random(seed)
    s = LinearSystem()
    nvars = rng.randint(1, 7)
    for _ in range(nvars):
        lo = rng.choice([-50, 0, 0, rng.randint(-3, 5)])
        hi = rng.choice([50, 50, rng.randint(0, 9)])
        hi = max(lo, hi)
        s.new_var(lo, hi)

    def random_form():
        vs = rng.sample(range(nvars), rng.randint(1, nvars))
        return Form({v: rng.choice([1, -1]) for v in vs}, rng.randint(-6, 12))

    for _ in range(rng.randint(1, 8)):
        s.add_ge0(random_form())
    for _ in range(rng.randint(0, 2)):
        s.add_eq(random_form())
    return s


def outcome(system, propagate):
    try:
        propagate(system)
    except ArithmeticError as exc:
        return ("raised", str(exc))
    return ("boxes", [list(box) for box in system.boxes])


def test_propagate_matches_quadratic_reference():
    kinds = {"raised": 0, "boxes": 0}
    tightened = 0
    for seed in range(600):
        try:
            fast, ref = random_system(seed), random_system(seed)
        except ArithmeticError:
            continue  # an equality reduced to a false constant
        before = [list(box) for box in ref.boxes]
        expected = outcome(ref, reference_propagate)
        assert outcome(fast, LinearSystem.propagate) == expected, seed
        kinds[expected[0]] += 1
        tightened += expected[0] == "boxes" and expected[1] != before
    # the sample exercises both infeasible and tightened feasible systems
    assert kinds["raised"] >= 50 and kinds["boxes"] >= 50 and tightened >= 50, (
        kinds,
        tightened,
    )


def test_chase_inconsistency_names_its_stage():
    s = LinearSystem()
    x = Form.var(s.new_var(0, 3))
    s.add_ge0(x - 5)
    with pytest.raises(InconsistentDataError) as err:
        s.propagate()
    assert err.value.stage == "chase"
    assert str(err.value) == "inconsistent chase: empty box for v0"


def test_new_var_rejects_an_empty_box():
    s = LinearSystem()
    with pytest.raises(InconsistentDataError) as err:
        s.new_var(3, 2)
    assert err.value.stage == "chase"
    assert str(err.value) == "inconsistent chase: empty box for v0"


def test_infeasible_cycle_empties_a_box():
    # x >= y + 1 and y >= x + 1 push both lower ends up until one box empties
    s = LinearSystem()
    x = Form.var(s.new_var(0, 10**5))
    y = Form.var(s.new_var(0, 10**5))
    s.add_ge0(x - y - 1)
    s.add_ge0(y - x - 1)
    with pytest.raises(InconsistentDataError, match="empty box"):
        s.propagate()
