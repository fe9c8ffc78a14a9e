"""In-process span recording around the public function of each layer.

Wrappers replace a function at the module attribute where its caller looks
it up, time every call, and charge the call's duration to the enclosing
span, so that each span also has a self time (its duration minus the time
its child spans cover).  A function that a later version of the package
removes or renames is reported as absent instead of failing the run.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Layer:
    """One wrapped function: ``module.attr`` is recorded under ``name``.

    ``count`` maps the call's result to (counter suffix, amount) pairs, for
    example the number of columns a grid holds or the pivots of a solve.
    """

    name: str
    module: str
    attr: str
    count: Callable[[object], dict] | None = None


def _grid_columns(grid) -> dict:
    return {"columns": getattr(grid, "n_points", 0)}


def _solve_pivots(solution) -> dict:
    return {"pivots": getattr(solution, "iterations", 0)}


def _atoms(decomposition) -> dict:
    return {"atoms": len(getattr(decomposition, "atoms", ()))}


LAYERS = (
    Layer("roof.estimate", "fockroof.cli", "estimate_nonclassicality"),
    Layer("roof.refine", "fockroof.cli", "refine"),
    Layer("grid.build_grid", "fockroof.roof", "build_grid", _grid_columns),
    Layer("grid.neighborhood_grid", "fockroof.roof", "neighborhood_grid", _grid_columns),
    Layer("roof.assemble_lp", "fockroof.roof", "assemble_lp"),
    Layer("simplex.solve", "fockroof.simplex", "solve", _solve_pivots),
    Layer("roof.expand_histogram", "fockroof.cli", "expand_histogram", _atoms),
    Layer("phases.classify", "fockroof.cli", "classify"),
    Layer("metrology.quadrature_qfi", "fockroof.cli", "quadrature_qfi"),
)

# Pricing under Bland's rule scans every column; counting those scans shows
# the simplex's degenerate-stall fallback without timing each pivot.  The
# flag is the seventh positional argument of simplex._choose_entering.
BLAND_MODULE, BLAND_ATTR, BLAND_ARG = "fockroof.simplex", "_choose_entering", 6


class Tracer:
    """Accumulates per-layer seconds, self seconds, calls and counters."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(int)
        self.max_seconds = defaultdict(float)
        self.max_counters = defaultdict(int)
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def _record(self, name: str, elapsed: float, child: float) -> None:
        self.seconds[name] += elapsed
        self.self_seconds[name] += elapsed - child
        self.calls[name] += 1
        self.max_seconds[name] = max(self.max_seconds[name], elapsed)

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` as a span called ``name`` nested in the current one."""
        self._stack.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            child = self._stack.pop()
            if self._stack:
                self._stack[-1] += elapsed
            self._record(name, elapsed, child)

    def _wrap_layer(self, module, layer: Layer):
        inner = getattr(module, layer.attr)

        def wrapper(*args, **kwargs):
            result = self.span(layer.name, inner, *args, **kwargs)
            if layer.count is not None:
                for key, amount in layer.count(result).items():
                    self.counters[f"{layer.name}.{key}"] += amount
                    cur = f"{layer.name}.{key}_max"
                    self.max_counters[cur] = max(self.max_counters[cur], amount)
            return result

        return wrapper

    def _wrap_bland(self, inner):
        def wrapper(*args, **kwargs):
            if (args[BLAND_ARG] if len(args) > BLAND_ARG else kwargs.get("bland")):
                self.counters["simplex.bland_pricings"] += 1
            return inner(*args, **kwargs)

        return wrapper

    def install(self, modules: dict) -> None:
        """Patch every layer found in ``modules`` (name -> module object)."""
        self.absent = []
        for layer in LAYERS:
            module = modules.get(layer.module)
            if module is None or not callable(getattr(module, layer.attr, None)):
                self.absent.append(f"{layer.name} ({layer.module}.{layer.attr})")
                continue
            self._patch(module, layer.attr, self._wrap_layer(module, layer))
        module = modules.get(BLAND_MODULE)
        if module is None or not callable(getattr(module, BLAND_ATTR, None)):
            self.absent.append(f"simplex.bland_pricings ({BLAND_MODULE}.{BLAND_ATTR})")
        else:
            self._patch(module, BLAND_ATTR, self._wrap_bland(getattr(module, BLAND_ATTR)))

    def _patch(self, module, attr: str, replacement) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)
