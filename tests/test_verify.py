import sys

from roofcalc import hodge, verify


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
