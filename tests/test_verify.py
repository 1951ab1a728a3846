import sys

from roofcalc import hodge, verify, windows


def test_paper_suite_computes_each_diamond_once(monkeypatch):
    real = hodge.hodge_numbers
    calls = []

    def counting(spec):
        calls.append(spec)
        return real(spec)

    for name, module in list(sys.modules.items()):
        if name.startswith("roofcalc") and getattr(module, "hodge_numbers", None) is real:
            monkeypatch.setattr(module, "hodge_numbers", counting)
    results = verify.run_suite("paper")
    assert len(results) == 34
    assert all(r.passed for r in results), [r for r in results if not r.passed]
    # five pairs, two zero loci each, and no memo left behind
    assert len(calls) == 10 and len(set(calls)) == 10
    assert verify._pair.cache_info().currsize == 0


def test_diagonal_only_reports_inexact_and_wrong_entries():
    # P^2: diagonal (1,1,1), middle row (0,1,0)
    grid = [[(1, 1), (0, 0), (0, 1)], [(0, 0), (1, 1), (0, 0)], [(1, 1), (0, 0), (1, 1)]]
    d = hodge.HodgeDiamond(grid, [1, -1, 1])
    inexact = verify._diagonal_only("P^2", d, [1, 1, 1], [0, 1, 0], verify._middle)
    assert (inexact.passed, inexact.detail) == (False, "h^{0,2} inexact (0, 1)")
    grid[0][2] = (0, 0)
    wrong = verify._diagonal_only("P^2", d, [1, 1, 1], [0, 1, 0], verify._middle)
    assert (wrong.passed, wrong.detail) == (False, "h^{2,0} = 1, want 0")


def test_b2_check_reports_a_wrong_value(monkeypatch):
    real = verify.derive_b2
    monkeypatch.setattr(verify, "derive_b2", lambda k, n: real(k, n) + ((k, n) == (2, 6)))
    sweep, excluded = verify.check_b2()
    assert (sweep.passed, sweep.detail) == (False, "b2(2,6)=2")
    assert excluded.passed


def test_hodge_theorem_check_reports_a_failing_pair(monkeypatch):
    real = verify.check_pair_theorem

    def perturbed(k, n):
        rep = real(k, n)
        if (k, n) == (2, 5):
            rep.failures += [f"v-rows differ at p={p}: 51 != 52" for p in range(4)]
        return rep

    monkeypatch.setattr(verify, "check_pair_theorem", perturbed)
    verify._pair.cache_clear()
    try:
        results = verify.check_hodge_theorem()
    finally:
        verify._pair.cache_clear()
    # the detail names the first three failures
    assert [(r.name, r.detail) for r in results if not r.passed] == [
        (
            "middle v-rows match for (2,5)",
            "; ".join(f"v-rows differ at p={p}: 51 != 52" for p in range(3)),
        )
    ]


def test_roofs_check_reports_a_missing_record(monkeypatch):
    real = verify.classify
    monkeypatch.setattr(
        verify, "classify", lambda max_rank: [r for r in real(max_rank) if r.family != "B^s"]
    )
    table, exceptional = verify.check_roofs()
    assert (table.passed, table.detail) == (
        False, "missing [('B3', (1, 3), 'B^s', 'OF(1,3,7)', 3, 2)], extra []",
    )
    assert exceptional.passed


def test_windows_check_reports_a_failing_side(monkeypatch):
    real = verify.check_tilting_plus

    def perturbed(n, m_max):
        rep = real(n, m_max)
        if n == 6:
            rep.failures.append(
                windows.VanishingFailure((1, 0), (1, 1), 2, 1, (0, 0, 1, 0, 0, 0))
            )
        return rep

    monkeypatch.setattr(verify, "check_tilting_plus", perturbed)
    results = verify.check_windows()
    assert [(r.name, r.detail) for r in results if not r.passed] == [
        ("no higher self-extensions upstairs, n=6", "1 failures")
    ]
