"""In-process spans around catsize's public layer functions.

The tracer wraps every module-level function without a leading underscore in
the layer modules, plus ``cli.main`` as the root span, and rebinds every
attribute of every ``catsize`` module that holds the original function object
(``phase_space`` binds ``displacement_op`` by name, for example).  Spans are
kept in memory as ``(name, start_ns, end_ns, parent_index)`` and reduced to
call counts and self times afterwards; a span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import collections
import inspect
import math
import sys
import time

PACKAGE = "catsize"
LAYERS = ("closed_forms", "fock", "measures", "phase_space", "simulate")

# Functions reported one by one; a name that no longer exists reports zero.
NAMED = {
    "fock": (
        "displacement_op", "beamsplitter_kernel", "coherent_mixer_kernel",
        "apply_single_mode", "apply_two_mode", "apply_split_network",
        "build_state", "density", "partial_trace", "trace_norm", "tensor",
    ),
    "phase_space": (
        "wigner_numeric", "wigner_numeric_rho", "fringe_suppression_check",
        "wigner_grid", "extract_features", "grid_to_csv", "grid_to_json",
    ),
    "simulate": (
        "simulate_distillation", "simulate_mode_loss", "simulate_branch_collapse",
    ),
    "measures": (
        "branch_dist_size", "branch_dist_size_real", "distillation_size",
        "marquardt_size", "mode_loss_size", "rqfi_size", "wigner_empirical_size",
    ),
}

# Layers reported as aggregates; closed_forms only as one, its calls are tiny.
AGGREGATED = ("fock", "phase_space", "simulate", "measures", "closed_forms")

APPLIERS = ("fock.apply_single_mode", "fock.apply_two_mode")


def _applier_flops(bound) -> int:
    """Computed from shapes: each output amplitude is a k-term complex dot
    product (k = kernel side), 8 real flops per complex multiply-add."""
    side = math.isqrt(bound["kernel"].size)
    return 8 * bound["state"].amplitudes.size * side


def _count(name: str, fn, args, kwargs, result, counters) -> None:
    if name in APPLIERS:
        bound = inspect.signature(fn).bind(*args, **kwargs).arguments
        counters[f"{name}.flops_computed"] += _applier_flops(bound)
    elif name == "phase_space.wigner_grid":
        counters["phase_space.grid_points"] += result.values.size
    elif name.startswith("simulate.simulate_"):
        counters["simulate.trajectories"] += (
            inspect.signature(fn).bind(*args, **kwargs).arguments["trials"]
        )


_COUNTED = APPLIERS + ("phase_space.wigner_grid",) + tuple(
    f"simulate.{f}" for f in NAMED["simulate"]
)


class Tracer:
    """Records spans while installed; ``uninstall`` restores every binding."""

    def __init__(self):
        self.spans: list = []
        self.counters: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._patched: list = []

    def _wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter_ns
        counted = name in _COUNTED

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if counted:
                _count(name, fn, args, kwargs, result, counters)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[value] = self._wrap(f"{layer}.{attr}", value)
        main = sys.modules[f"{PACKAGE}.cli"].main
        wrappers[main] = self._wrap("cli.main", main)
        modules = [
            m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()


def reduce_spans(spans) -> dict[str, list]:
    """name -> [calls, self_ns, total_ns] from completed spans."""
    child_ns = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    table: dict[str, list] = collections.defaultdict(lambda: [0, 0, 0])
    for (name, start, end, _), children in zip(spans, child_ns):
        row = table[name]
        row[0] += 1
        row[1] += end - start - children
        row[2] += end - start
    return dict(table)


def layer_metrics(spans, counters) -> dict[str, float]:
    """Per-layer metrics of one traced replay (metric name -> value)."""
    table = reduce_spans(spans)
    metrics: dict[str, float] = {}
    for layer, names in NAMED.items():
        for fn in names:
            calls, self_ns, _ = table.get(f"{layer}.{fn}", (0, 0, 0))
            metrics[f"{layer}.{fn}.calls"] = calls
            metrics[f"{layer}.{fn}.self_s"] = self_ns / 1e9
    for layer in AGGREGATED:
        rows = [row for name, row in table.items() if name.startswith(layer + ".")]
        metrics[f"{layer}.calls"] = sum(r[0] for r in rows)
        metrics[f"{layer}.self_s"] = sum(r[1] for r in rows) / 1e9
    for name in APPLIERS:
        metrics[f"{name}.flops_computed"] = counters[f"{name}.flops_computed"]
    metrics["phase_space.grid_points"] = counters["phase_space.grid_points"]
    trajectories = counters["simulate.trajectories"]
    metrics["simulate.trajectories"] = trajectories
    metrics["simulate.us_per_trajectory"] = (
        metrics["simulate.self_s"] / trajectories * 1e6 if trajectories else 0.0
    )
    calls, self_ns, total_ns = table.get("cli.main", (0, 0, 0))
    metrics["cli.main.calls"] = calls
    metrics["cli.main.self_s"] = self_ns / 1e9
    metrics["cli.main.total_s"] = total_ns / 1e9
    return metrics
