"""Spans around the public functions of the qcss layers, recorded from
outside the package.

``Tracer.install`` rebinds every public function of each layer module in
every ``qcss`` module namespace that binds it (``correlation`` imports
``exp_sum_profile`` by name, so rebinding ``diffsets`` alone would miss the
calls made from ``tolerances``).  Spans are kept in memory as
``[id, parent_id, name, start, end]`` and summarised after the run.

Counts whose names are listed in ``COMPUTED`` are derived from argument and
result array sizes, not measured.
"""

from __future__ import annotations

import functools
import math
import sys
import time

LAYERS = ("binpoly", "z4", "diffsets", "correlation", "analysis", "cli")

# cli is spanned at its entry point only, so cli.main.self_s holds argument
# parsing, JSON encoding and writing, and the --verify checks.
ENTRY_ONLY = {"cli": ("main",)}

# Per-function metrics reported by name (each gets .calls, .s and .self_s).
NAMED_FUNCTIONS = (
    "z4.build_family_a",
    "z4.family_alpha_max",
    "z4.subset_l",
    "z4.family_to_json",
    "z4.family_from_json",
    "correlation.correlation_tensor",
    "correlation.tolerances",
    "correlation.build_qcss",
    "correlation.per_shift_maxima",
    "diffsets.ads_from_json",
    "analysis.sweep",
    "cli.main",
)


def _tensor_sizes(args, kwargs, result):
    K, M, N = args[0].phases.shape
    return {
        "correlation.pair_shifts": K * K * N,
        "correlation.entries": K * M * N,
    }, {"correlation.tensor_bytes": 16 * N * K * K}


def _family_sizes(args, kwargs, result):
    K, N = len(result.members), result.period
    return {"z4.states": K * N}, {}


def _subset_sizes(args, kwargs, result):
    verify = kwargs.get("verify", args[1] if len(args) > 1 else True)
    k = len(result)
    return {"z4.subset_pairs": k * (k - 1) // 2 if verify else 0}, {}


def _alpha_sizes(args, kwargs, result):
    family = args[0]
    return {"z4.alpha_pair_shifts": family.size**2 * family.period}, {}


def _sweep_sizes(args, kwargs, result):
    return {"analysis.cells": len(result)}, {}


# name -> hook(args, kwargs, result) returning (summed counts, max counts)
SIZE_HOOKS = {
    "correlation.correlation_tensor": _tensor_sizes,
    "z4.build_family_a": _family_sizes,
    "z4.subset_l": _subset_sizes,
    "z4.family_alpha_max": _alpha_sizes,
    "analysis.sweep": _sweep_sizes,
}

COMPUTED = {
    "z4.states": "count-computed",
    "z4.subset_pairs": "count-computed",
    "z4.alpha_pair_shifts": "count-computed",
    "correlation.pair_shifts": "count-computed",
    "correlation.entries": "count-computed",
    "correlation.tensor_bytes": "B-computed",
}


def public_functions(module, layer):
    """Public functions defined in ``module`` (classes and imports excluded)."""
    only = ENTRY_ONLY.get(layer)
    out = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if only is None or name in only:
            out[name] = obj
    return out


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.sums: dict[str, int] = {}
        self.maxima: dict[str, int] = {}
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack, hook = self.spans, self._stack, SIZE_HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else None, name, clock(), None]
            spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if hook is not None:
                summed, maxed = hook(args, kwargs, result)
                for key, value in summed.items():
                    self.sums[key] = self.sums.get(key, 0) + value
                for key, value in maxed.items():
                    self.maxima[key] = max(self.maxima.get(key, 0), value)
            return result

        return traced

    def install(self):
        """Rebind each layer's public functions in every qcss namespace."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"qcss.{layer}"]
            for name, fn in public_functions(module, layer).items():
                wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        namespaces = [m for key, m in list(sys.modules.items())
                      if key == "qcss" or key.startswith("qcss.")]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((ns, attr, value))
                    setattr(ns, attr, wrapper)

    def uninstall(self):
        for ns, attr, value in reversed(self._restore):
            setattr(ns, attr, value)
        self._restore.clear()

    def summary(self, wall_s: float) -> dict[str, float]:
        """Per-function, per-layer and whole-trace metrics."""
        children = [0.0] * len(self.spans)
        for sid, parent, name, start, end in self.spans:
            if parent is not None:
                children[parent] += end - start
        layer_of = [span[2].split(".", 1)[0] for span in self.spans]
        out: dict[str, float] = {}

        def add(key, value):
            out[key] = out.get(key, 0) + value

        top = 0.0
        for sid, parent, name, start, end in self.spans:
            dur, layer = end - start, layer_of[sid]
            add(f"{name}.calls", 1)
            add(f"{name}.s", dur)
            add(f"{name}.self_s", dur - children[sid])
            add(f"{layer}.self_s", dur - children[sid])
            if parent is None or layer_of[parent] != layer:
                add(f"{layer}.calls", 1)
                add(f"{layer}.s", dur)
            if parent is None:
                top += dur
        for name in NAMED_FUNCTIONS:
            for suffix in (".calls", ".s", ".self_s"):
                out.setdefault(name + suffix, 0)
        for layer in LAYERS:
            for suffix in (".calls", ".s", ".self_s"):
                out.setdefault(layer + suffix, 0)
        for key in COMPUTED:
            out[key] = self.sums.get(key, self.maxima.get(key, 0))
        out["analysis.cells"] = self.sums.get("analysis.cells", 0)
        out["trace.spans"] = len(self.spans)
        out["trace.wall_s"] = wall_s
        out["trace.top_level_share"] = top / wall_s if wall_s > 0 else math.nan
        return out

    def dump(self) -> list[list]:
        """Spans with times relative to the first one."""
        if not self.spans:
            return []
        t0 = self.spans[0][3]
        return [[sid, parent, name, start - t0, end - t0]
                for sid, parent, name, start, end in self.spans]
