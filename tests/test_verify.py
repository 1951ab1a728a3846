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
