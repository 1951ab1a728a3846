"""Per-layer tracing of roofcalc from outside the package.

`Tracer.install` replaces each traced function at every place it is looked
up: every module attribute of `roofcalc.*` bound to it (so
`roofcalc.hodge.bott`, `roofcalc.windows.bott` and `roofcalc.bwb.bott` are
all patched), `LinearSystem.propagate` on its class, and the entries of
`verify.SUITES["paper"]`.  A spanned wrapper records one span (name, parent,
start, end) per call and charges its duration minus its spanned children's
to the function's self time; a counting wrapper only counts, so its time
stays in the caller's self time.  Spans stay in memory until `write_spans`.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from time import perf_counter

# (module, function, kind): "span" records calls, self time and a span;
# "count" records calls only.
TARGETS = [
    ("weights", "check_dominant", "count"),
    ("lr", "lr_product", "span"),
    ("lr", "lr_double_product", "span"),
    ("bwb", "bott", "span"),
    ("bwb", "gl_dimension", "span"),
    ("bundles", "tensor", "span"),
    ("bundles", "sym_power", "span"),
    ("bundles", "wedge_power", "count"),
    ("bundles", "cotangent_power", "count"),
    ("hodge", "hodge_numbers", "span"),
    ("chase", "les_chain", "span"),
    ("chase", "spectral_flow", "span"),
    ("motive", "verify_lemma_leq", "span"),
    ("windows", "check_tilting_minus", "span"),
    ("windows", "check_tilting_plus", "span"),
    ("roofs", "classify", "span"),
    ("parser", "parse_bundle", "span"),
    ("cli", "main", "span"),
]

# functions whose distinct arguments are counted (all arguments are hashable)
DISTINCT = {"lr.lr_double_product", "bwb.bott", "hodge.hodge_numbers"}


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.distinct: dict[str, set] = {name: set() for name in DISTINCT}
        self.extra: dict[str, int] = dict.fromkeys(
            ["bundles.tensor.out_terms", "chase.vars", "chase.ineqs", "chase.subs"], 0
        )
        self.span_names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # one [span index, time covered by child spans] per open span
        self.stack: list[list] = []

    # -- wrappers --------------------------------------------------------------

    def counting(self, name: str, fn):
        calls = self.calls
        calls[name] = 0

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def spanned(self, name: str, fn, before=None, after=None):
        calls, self_s, stack = self.calls, self.self_s, self.stack
        calls[name] = 0
        self_s[name] = 0.0
        name_id = len(self.span_names)
        self.span_names.append(name)
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        seen = self.distinct.get(name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if seen is not None:
                seen.add(args)
            if before is not None:
                before(args)
            index = len(span_start)
            span_name.append(name_id)
            span_parent.append(stack[-1][0] if stack else -1)
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            span_start.append(start)
            span_end.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                span_end[index] = end
                duration = end - start
                self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if after is not None:
                after(result)
            return result

        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Patch the loaded roofcalc modules in place."""
        modules = {
            name.split(".", 1)[1]: module
            for name, module in list(sys.modules.items())
            if name.startswith("roofcalc.") and module is not None
        }
        extra = self.extra

        def count_terms(result) -> None:
            extra["bundles.tensor.out_terms"] += len(result.terms)

        for mod, fn_name, kind in TARGETS:
            name = f"{mod}.{fn_name}"
            fn = getattr(modules[mod], fn_name)
            if kind == "count":
                wrapper = self.counting(name, fn)
            else:
                after = count_terms if name == "bundles.tensor" else None
                wrapper = self.spanned(name, fn, after=after)
            self._rebind(modules.values(), fn, wrapper)

        def system_size(args) -> None:
            system = args[0]
            extra["chase.vars"] += len(system.boxes)
            extra["chase.ineqs"] += len(system.ineqs)
            extra["chase.subs"] += len(system.subs)

        cls = modules["chase"].LinearSystem
        cls.propagate = self.spanned("chase.propagate", cls.propagate, before=system_size)

        suite = modules["verify"].SUITES["paper"]
        for i, check in enumerate(suite):
            wrapper = self.spanned(f"verify.{check.__name__}", check)
            suite[i] = wrapper
            self._rebind(modules.values(), check, wrapper)

    @staticmethod
    def _rebind(modules, fn, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Counts, distinct counts and self times by metric name.  The
        `verify.<check>` entries are inclusive times, named `.s`."""
        out: dict[str, float] = {}
        for name, calls in self.calls.items():
            out[f"{name}.calls"] = calls
            if name.startswith("verify."):
                out[f"{name}.s"] = self._inclusive(name)
            elif name in self.self_s:
                out[f"{name}.self_s"] = self.self_s[name]
        for name, seen in self.distinct.items():
            out[f"{name}.distinct"] = len(seen)
        out.update(self.extra)
        return out

    def _inclusive(self, name: str) -> float:
        name_id = self.span_names.index(name)
        return sum(
            end - start
            for nid, start, end in zip(self.span_name, self.span_start, self.span_end)
            if nid == name_id
        )

    def write_spans(self, path: str) -> None:
        """All spans as gzipped TSV: index, name, parent index, start, end."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index\tname\tparent\tstart\tend\n")
            for i, (nid, parent, start, end) in enumerate(
                zip(self.span_name, self.span_parent, self.span_start, self.span_end)
            ):
                fh.write(f"{i}\t{self.span_names[nid]}\t{parent}\t{start:.9f}\t{end:.9f}\n")
