"""In-process spans around every public function of the infogame package.

Installing a :class:`Tracer` replaces each public module-level function of
the seven code modules by a wrapper, in its own module and in every module
(and the package) that imported it by name, so calls from inside a module
are traced as well as calls across modules. Methods and private helpers are
not wrapped; their time counts as the self time of the nearest traced
caller. Each call records a span (function, parent span, start, end) in
flat arrays that stay in memory until :meth:`Tracer.dump`.

A layer is a module. Per layer: ``calls`` (spans), ``total_s`` (time inside
the layer's outermost spans) and ``self_s`` (span time minus the time of
traced child spans, of any layer). Nothing in ``src/`` is edited.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

LAYERS = ("entropy", "formation_game", "equilibrium", "analytic", "production", "verification", "cli")
FULL_SCAN_MAX_N = 5   # enumerate_nash scans every profile up to here, sponsored forests above


def _enumerate_nash_hook(counters, args, kwargs, result, seconds):
    n = (args[0] if args else kwargs["cfg"]).n_agents
    counters["equilibrium.full_scan_s" if n <= FULL_SCAN_MAX_N else "equilibrium.pruned_scan_s"] += seconds
    counters["equilibrium.profiles_decided"] += 2 ** (n * (n - 1))
    counters["equilibrium.ne_found"] += len(result.ne_profiles)


def _is_production_ne_hook(counters, args, kwargs, result, seconds):
    counters["production.is_production_ne.true"] += bool(result)


HOOKS = {
    "equilibrium.enumerate_nash": _enumerate_nash_hook,
    "production.is_production_ne": _is_production_ne_hook,
}

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    [(f"{layer}.{what}", unit, "lower") for layer in LAYERS
     for what, unit in (("calls", "count"), ("total_s", "s"), ("self_s", "s"))]
    + [
        ("equilibrium.full_scan_s", "s", "lower"),
        ("equilibrium.pruned_scan_s", "s", "lower"),
        ("equilibrium.profiles_decided", "count", "higher"),
        ("equilibrium.ne_found", "count", "higher"),
        ("equilibrium.enumerate_nash.calls", "count", "lower"),
        ("equilibrium.social_optimum_s", "s", "lower"),
        ("production.is_production_ne.calls", "count", "lower"),
        ("production.is_production_ne_s", "s", "lower"),
        ("production.ne_ratio", "ratio", "higher"),
        ("production.h_bar.calls", "count", "lower"),
        ("production.h_bar_s", "s", "lower"),
        ("production.enumerate_production_ne_s", "s", "lower"),
        ("analytic.check_component_structure_ne_s", "s", "lower"),
        ("analytic.check_strict_ne_structure_s", "s", "lower"),
        ("formation_game.component_masks.calls", "count", "lower"),
        ("cli.output_bytes", "bytes", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    + [(f"{module}.lines", "lines", "lower") for module in ("infogame",) + LAYERS]
    + [("src.lines", "lines", "lower")]
)


class Tracer:
    def __init__(self):
        self.functions: list[str] = []   # "layer.function" per function id
        self.layer_of: list[int] = []
        self.fid = array("i")
        self.parent = array("i")
        self.outermost = array("b")      # no enclosing span of the same layer
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = defaultdict(float)
        self.ops: list[tuple[str, int]] = []   # (operation, index of its first span)
        self._stack = [-1]
        self._depth = [0] * len(LAYERS)

    def __len__(self) -> int:
        return len(self.fid)

    def begin_op(self, name: str) -> None:
        """Mark where the spans of the next operation start."""
        self.ops.append((name, len(self.fid)))

    def _wrap(self, fn, fid: int, layer: int, hook):
        fids, parents, outer, starts, ends = self.fid, self.parent, self.outermost, self.start, self.end
        stack, depth, counters, clock = self._stack, self._depth, self.counters, time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(fids)
            d = depth[layer]
            fids.append(fid)
            parents.append(stack[-1])
            outer.append(d == 0)
            ends.append(0.0)
            stack.append(idx)
            depth[layer] = d + 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                depth[layer] = d
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, result, ends[idx] - starts[idx])
            return result

        return span

    @contextmanager
    def installed(self):
        """Wrap every public function while the block runs; restore them after."""
        package = importlib.import_module("infogame")
        modules = [importlib.import_module(f"infogame.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in enumerate(modules):
            for name, obj in sorted(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                qualified = f"{LAYERS[layer]}.{name}"
                self.functions.append(qualified)
                self.layer_of.append(layer)
                wrappers[id(obj)] = (obj, self._wrap(obj, len(self.functions) - 1, layer, HOOKS.get(qualified)))
        restore = []
        for module in [package] + modules:
            for name, obj in list(vars(module).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    setattr(module, name, wrappers[id(obj)][1])
                    restore.append((module, name, obj))
        try:
            yield self
        finally:
            for module, name, obj in restore:
                setattr(module, name, obj)

    def arrays(self):
        fid = np.frombuffer(self.fid, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        return fid, parent, start, end

    def dump(self, path: Path) -> None:
        fid, parent, start, end = self.arrays()
        np.savez(path, functions=np.array(self.functions), layers=np.array(LAYERS),
                 layer_of=np.array(self.layer_of, dtype=np.int32), function=fid, parent=parent,
                 start=start, end=end, outermost=np.frombuffer(self.outermost, dtype=np.int8),
                 ops=np.array([name for name, _ in self.ops]),
                 op_first_span=np.array([first for _, first in self.ops], dtype=np.int64))


def layer_metrics(tracer: Tracer, src_dir: Path) -> dict[str, float]:
    """Every per-layer metric except the two the caller measures (output bytes, overhead)."""
    fid, parent, start, end = tracer.arrays()
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    own = dur - child
    layer = np.array(tracer.layer_of, dtype=np.int32)[fid] if len(fid) else np.zeros(0, dtype=np.int32)
    outermost = np.frombuffer(tracer.outermost, dtype=np.int8).astype(bool)
    out: dict[str, float] = {}
    for t, name in enumerate(LAYERS):
        sel = layer == t
        out[f"{name}.calls"] = float(sel.sum())
        out[f"{name}.total_s"] = float(dur[sel & outermost].sum())
        out[f"{name}.self_s"] = float(own[sel].sum())

    def function(qualified):
        """(calls, total seconds) of one function; zeros if the package no longer has it."""
        if qualified not in tracer.functions:
            return 0.0, 0.0
        sel = fid == tracer.functions.index(qualified)
        return float(sel.sum()), float(dur[sel].sum())

    for key in ("equilibrium.full_scan_s", "equilibrium.pruned_scan_s",
                "equilibrium.profiles_decided", "equilibrium.ne_found"):
        out[key] = float(tracer.counters[key])
    out["equilibrium.enumerate_nash.calls"] = function("equilibrium.enumerate_nash")[0]
    out["equilibrium.social_optimum_s"] = function("equilibrium.social_optimum")[1]
    checks, out["production.is_production_ne_s"] = function("production.is_production_ne")
    out["production.is_production_ne.calls"] = checks
    out["production.ne_ratio"] = tracer.counters["production.is_production_ne.true"] / checks if checks else 0.0
    out["production.h_bar.calls"], out["production.h_bar_s"] = function("production.h_bar")
    out["production.enumerate_production_ne_s"] = function("production.enumerate_production_ne")[1]
    out["analytic.check_component_structure_ne_s"] = function("analytic.check_component_structure_ne")[1]
    out["analytic.check_strict_ne_structure_s"] = function("analytic.check_strict_ne_structure")[1]
    out["formation_game.component_masks.calls"] = function("formation_game.component_masks")[0]
    for module in ("infogame",) + LAYERS:
        path = src_dir / ("__init__.py" if module == "infogame" else f"{module}.py")
        out[f"{module}.lines"] = float(_lines(path)) if path.exists() else 0.0
    out["src.lines"] = float(sum(_lines(p) for p in src_dir.rglob("*.py")))
    return out


def _lines(path: Path) -> int:
    return len(path.read_text().splitlines())
