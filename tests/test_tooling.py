"""The traced benchmark binds roofcalc names by string; these tests keep
every name it binds, and every public name, defined."""

import importlib
import importlib.util
from pathlib import Path

import roofcalc
from roofcalc import chase, verify

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    targets = load_tracer().TARGETS
    assert targets
    for mod, fn_name, _ in targets:
        module = importlib.import_module(f"roofcalc.{mod}")
        assert callable(getattr(module, fn_name, None)), (mod, fn_name)


def test_tracer_patch_points_exist():
    assert callable(chase.LinearSystem.propagate)
    assert verify.SUITES["paper"]


def test_tracer_chase_counters_exist():
    # the tracer sizes every propagated system by these three attributes
    system = chase.LinearSystem()
    assert isinstance(system.boxes, list)
    assert isinstance(system.ineqs, list)
    assert isinstance(system.subs, dict)


def test_public_names_resolve():
    for name in roofcalc.__all__:
        assert hasattr(roofcalc, name), name
