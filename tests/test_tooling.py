"""The traced benchmark binds roofcalc names by string; these tests keep
every name it binds, and every public name, defined."""

import ast
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import roofcalc
from roofcalc import chase, errors, verify

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


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


def test_window_check_calls_the_traced_bott():
    # the tracer patches every module attribute bound to bwb.bott; the
    # window check's Bott calls reach the bwb.bott span only through this one
    from roofcalc import bwb, windows

    assert windows.bott is bwb.bott


def test_tracer_chase_counters_exist():
    # the tracer sizes every propagated system by these three attributes
    system = chase.LinearSystem()
    assert isinstance(system.boxes, list)
    assert isinstance(system.ineqs, list)
    assert isinstance(system.subs, dict)


def test_per_layer_metrics_are_measured():
    # a declared metric the traced run does not report marks that whole run
    # "metrics not measured", so every name must be one it produces
    tracer = load_tracer()
    kinds = {f"{mod}.{fn_name}": kind for mod, fn_name, kind in tracer.TARGETS}
    kinds["chase.propagate"] = "span"
    checks = {check.__name__ for check in verify.SUITES["paper"]}
    extra = tracer.Tracer().extra
    run = (ROOT / "perfbench" / "run.py").read_text()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert declared
    for metric in declared:
        name = metric["name"]
        if name in extra:
            continue
        if name == "trace.overhead_s":  # set by run.py itself
            assert f'"{name}"' in run
            continue
        prefix, stat = name.rsplit(".", 1)
        if prefix.startswith("verify."):
            assert prefix.removeprefix("verify.") in checks, name
            assert stat in ("calls", "s"), name
            continue
        assert prefix in kinds, name
        stats = {"calls"}
        if kinds[prefix] == "span":
            stats.add("self_s")
        if prefix in tracer.DISTINCT:
            stats.add("distinct")
        assert stat in stats, name


def test_public_names_resolve():
    for name in roofcalc.__all__:
        assert hasattr(roofcalc, name), name


def test_cli_import_contract():
    # every roofcalc call starts a fresh interpreter, so what `import
    # roofcalc.cli` pulls in is paid on every call; the benchmark's tracer
    # looks its modules up in sys.modules right after this import
    modules = sorted({mod for mod, _, _ in load_tracer().TARGETS} | {"verify"})
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import roofcalc.cli; "
        "print(' '.join(sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, str(ROOT / "src")],
        capture_output=True, text=True, check=True,
    ).stdout.split()
    for name in ("argparse", "dataclasses", "gettext", "inspect", "typing"):
        assert name not in out, name
    assert len(modules) == 12
    for mod in modules:
        assert f"roofcalc.{mod}" in out, mod


def _raises(node, where):
    """(innermost enclosing function, Raise node) for every raise under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _raises(child, child.name)
        elif isinstance(child, ast.Raise):
            yield where, child
        else:
            yield from _raises(child, where)


def test_every_raise_is_a_package_error():
    # cli.main turns a RoofcalcError into its exit code and one stderr line;
    # any other class escapes as a traceback
    seen, outside = 0, set()
    for path in sorted((ROOT / "src" / "roofcalc").glob("*.py")):
        name = "roofcalc" if path.stem == "__init__" else f"roofcalc.{path.stem}"
        module = importlib.import_module(name)
        for where, node in _raises(ast.parse(path.read_text()), "<module>"):
            assert node.exc is not None, (path.name, where, "bare raise")
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            cls = eval(compile(ast.Expression(exc), path.name, "eval"), vars(module))
            seen += 1
            if not issubclass(cls, errors.RoofcalcError):
                outside.add((path.stem, where, cls.__name__))
    assert seen > 50
    assert outside == set()


def test_no_assert_statements():
    # an assert vanishes under `python -O`, so a check that guards a result
    # raises a package error instead
    found = [
        (path.name, node.lineno)
        for path in sorted((ROOT / "src" / "roofcalc").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_unused_imports():
    # a deletion tends to leave the imports of what it deleted behind;
    # __init__ imports only to re-export, so it is not scanned
    for path in sorted((ROOT / "src" / "roofcalc").glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        bound = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            or isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert bound <= used, (path.name, sorted(bound - used))


def test_only_value_defines_equality():
    # the value classes compare and hash through weights.Value; a class with
    # its own __eq__ or __hash__ would be a second copy that can drift from it
    defined = []
    for path in sorted((ROOT / "src" / "roofcalc").glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                names = [t.id for t in getattr(node, "targets", []) if isinstance(t, ast.Name)]
                names += [node.name] if isinstance(node, ast.FunctionDef) else []
                defined += [
                    f"{path.stem}.{cls.name}.{name}"
                    for name in names if name in ("__eq__", "__hash__")
                ]
    assert defined == ["weights.Value.__eq__", "weights.Value.__hash__"]


def _package_imports():
    """{module: the package modules it imports by `from .x import` or
    `from . import x`}, read from the source of src/roofcalc."""
    paths = sorted((ROOT / "src" / "roofcalc").glob("*.py"))
    modules = {path.stem for path in paths}
    graph = {}
    for path in paths:
        graph[path.stem] = {
            name
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for name in ([node.module] if node.module else [a.name for a in node.names])
            if name in modules
        }
    return graph


def test_import_layers():
    # motive is the E-polynomial layer under hodge, which builds diamonds
    # from EPoly; nothing motive reaches may import hodge
    graph = _package_imports()

    def reach(mod):
        seen, todo = set(), list(graph[mod])
        while todo:
            dep = todo.pop()
            if dep not in seen:
                seen.add(dep)
                todo.extend(graph[dep])
        return seen

    assert "motive" in graph["hodge"]
    for mod in graph:
        assert mod not in reach(mod), f"import cycle through {mod}"
    assert "hodge" not in reach("motive")
