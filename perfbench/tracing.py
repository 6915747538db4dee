"""Out-of-program tracing of noc's layers, used by the benchmark's traced run.

``Tracer.installed()`` wraps, from outside the package, every public
function (every function whose name has no leading underscore) of the
layer modules (``noc.expr``, ``noc.geometry``,
``noc.polyhedral``, ``noc.cones``, ``noc.dynamics``, ``noc.conditions``,
``noc.optproblem``, ``noc.problemfile``) in a span, and restores the
originals on exit.  Modules import each other's functions by name, so the
wrapper replaces every attribute of every ``noc`` module that is bound to
the wrapped function.  The problems that ``build_control_problem`` and
``build_opt_problem`` return are wrapped too: each expression callback
(the ``DynamicsModel`` right-hand side and derivative blocks, the
``OptScalar`` rows) becomes an ``expr.eval`` span.

A span's self time is its duration minus the durations of the spans it
caused on the same thread.  Spans are kept as per-key totals in memory;
``layer_metrics`` turns them into the benchmark's per-layer metrics.
Nothing in ``src/noc`` changes.
"""
from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import inspect
import sys
import threading
import time
import tracemalloc
from collections import defaultdict

import numpy as np

LAYERS = ("expr", "geometry", "polyhedral", "cones", "dynamics",
          "conditions", "optproblem", "problemfile")

DYNAMICS_CALLBACKS = ("rhs", "rhs_y", "rhs_u", "rhs_yy", "rhs_yu", "rhs_uu")
OPT_CALLBACKS = ("value", "grad", "second", "value_many")

FORWARD_PASSES = ("dynamics.integrate_state", "dynamics.integrate_variational",
                  "dynamics.integrate_second_variation")
INTEGRATORS = FORWARD_PASSES + ("dynamics.integrate_adjoint",)
BLOCKS = ("dynamics.hamiltonian_blocks", "dynamics.curvature_pairing")
GEOMETRY_CALLS = tuple(f"geometry.{name}" for name in (
    "christoffel", "dchristoffel", "curvature", "riemann_apply", "metric",
    "metric_inverse", "musical_dual"))
MEMBERSHIP_CHECKS = ("cones.contains", "cones.adjacent_cone_member",
                     "cones.second_adjacent_member")

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("expr.evals", "count", "lower"),
    ("expr.busy_s", "s", "lower"),
    ("dynamics.forward_passes", "count", "lower"),
    ("dynamics.adjoint_passes", "count", "lower"),
    ("dynamics.integrate_busy_s", "s", "lower"),
    ("dynamics.block_evals", "count", "lower"),
    ("dynamics.curvature_evals", "count", "lower"),
    ("dynamics.blocks_busy_s", "s", "lower"),
    ("geometry.calls", "count", "lower"),
    ("geometry.busy_s", "s", "lower"),
    ("polyhedral.rows_in", "count", "lower"),
    ("polyhedral.rays_out", "count", "lower"),
    ("polyhedral.busy_s", "s", "lower"),
    ("cones.projections", "count", "lower"),
    ("cones.membership_checks", "count", "lower"),
    ("cones.busy_s", "s", "lower"),
    ("conditions.busy_s", "s", "lower"),
    ("problemfile.build_busy_s", "s", "lower"),
    ("optproblem.grid_points", "count", "lower"),
    ("optproblem.feasible_ratio", "ratio", "higher"),
    ("optproblem.scan_busy_s", "s", "lower"),
    ("optproblem.scan_peak_mb", "MB", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# metrics that are work counts: they must repeat exactly from run to run
COUNT_METRICS = tuple(name for name, unit, _ in PER_LAYER if unit == "count")
COUNT_METRICS += ("optproblem.feasible_ratio",)


class Tracer:
    """Per-key call counts and self times, plus a few layer-specific sums."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.sums = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- spans --------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, key: str, fn):
        """Wrap ``fn`` so that each call is a span counted under ``key``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            stack.append(0.0)           # time covered by child spans
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with tracer._lock:
                    tracer.calls[key] += 1
                    tracer.self_s[key] += elapsed - children

        return traced

    def add(self, key: str, amount: float):
        with self._lock:
            self.sums[key] += amount

    # -- layer-specific wrappers ------------------------------------------

    def _wrap_dynamics(self, problem):
        dyn = problem.dynamics
        traced = dataclasses.replace(dyn, **{
            name: self.span("expr.eval", getattr(dyn, name))
            for name in DYNAMICS_CALLBACKS})
        return dataclasses.replace(problem, dynamics=traced)

    def _wrap_row(self, row):
        return dataclasses.replace(row, **{
            name: self.span("expr.eval", getattr(row, name))
            for name in OPT_CALLBACKS if getattr(row, name) is not None})

    def _wrap_opt(self, problem):
        return dataclasses.replace(
            problem, cost=self._wrap_row(problem.cost),
            inequalities=tuple(self._wrap_row(r) for r in problem.inequalities),
            equalities=tuple(self._wrap_row(r) for r in problem.equalities))

    def _builder(self, fn, wrap_problem):
        """A problem builder whose result has traced expression callbacks;
        its inclusive time is the problemfile layer's build time."""

        @functools.wraps(fn)
        def build(*args, **kwargs):
            start = time.perf_counter()
            problem = fn(*args, **kwargs)
            self.add("build_s", time.perf_counter() - start)
            return wrap_problem(problem)

        return build

    def _extreme_rays(self, fn):
        @functools.wraps(fn)
        def enumerate_rays(A_le, A_eq, dim):
            rep = fn(A_le, A_eq, dim)
            rows = sum(np.atleast_2d(A).shape[0]
                       for A in (A_le, A_eq) if A is not None and np.size(A))
            self.add("rows_in", rows)
            self.add("rays_out", rep.rays.shape[0])
            return rep

        return enumerate_rays

    def _op_bruteforce(self, fn):
        @functools.wraps(fn)
        def scan(*args, **kwargs):
            tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            with self._lock:
                self.sums["scan_peak_mb"] = max(self.sums["scan_peak_mb"],
                                                peak / 2 ** 20)
                self.sums["feasible"] += result.num_feasible
            return result

        return scan

    def _membership_mask(self, fn):
        # called once per grid chunk, from the scan's worker threads, and
        # again per factor of a product domain (not counted)
        @functools.wraps(fn)
        def mask(U, pts):
            if getattr(self._local, "in_mask", False):
                return fn(U, pts)
            self.add("grid_points", pts.shape[0])
            self._local.in_mask = True
            try:
                return fn(U, pts)
            finally:
                self._local.in_mask = False

        return mask

    def _wrapper_for(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        if key == "problemfile.build_control_problem":
            fn = self._builder(fn, self._wrap_dynamics)
        elif key == "problemfile.build_opt_problem":
            fn = self._builder(fn, self._wrap_opt)
        elif key == "polyhedral.extreme_rays":
            fn = self._extreme_rays(fn)
        elif key == "optproblem.op_bruteforce":
            fn = self._op_bruteforce(fn)
        return self.span(key, fn)

    # -- installation -------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Patch the wrappers into every loaded ``noc`` module; undo on exit."""
        replacements = {}
        for layer in LAYERS:
            module = importlib.import_module(f"noc.{layer}")
            for name, fn in list(vars(module).items()):
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == module.__name__):
                    replacements[id(fn)] = (fn, self._wrapper_for(layer,
                                                                   name, fn))
        optproblem = sys.modules["noc.optproblem"]
        mask = optproblem._membership_mask
        replacements[id(mask)] = (mask, self._membership_mask(mask))

        patched = []
        try:
            for modname, module in list(sys.modules.items()):
                if modname != "noc" and not modname.startswith("noc."):
                    continue
                for attr, value in list(vars(module).items()):
                    entry = replacements.get(id(value))
                    if entry is not None and entry[0] is value:
                        setattr(module, attr, entry[1])
                        patched.append((module, attr, value))
            yield self
        finally:
            for module, attr, value in reversed(patched):
                setattr(module, attr, value)

    # -- metrics ------------------------------------------------------------

    def _calls(self, keys) -> int:
        return sum(self.calls[k] for k in keys)

    def _busy(self, keys) -> float:
        return sum(self.self_s[k] for k in keys)

    def _layer_busy(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

    def layer_metrics(self, verdicts: int) -> dict:
        """Per-verdict counts and self times of one traced operation."""
        points = self.sums["grid_points"]
        values = {
            "expr.evals": self.calls["expr.eval"],
            "expr.busy_s": self.self_s["expr.eval"],
            "dynamics.forward_passes": self._calls(FORWARD_PASSES),
            "dynamics.adjoint_passes": self.calls["dynamics.integrate_adjoint"],
            "dynamics.integrate_busy_s": self._busy(INTEGRATORS),
            "dynamics.block_evals": self.calls["dynamics.hamiltonian_blocks"],
            "dynamics.curvature_evals":
                self.calls["dynamics.curvature_pairing"],
            "dynamics.blocks_busy_s": self._busy(BLOCKS),
            "geometry.calls": self._calls(GEOMETRY_CALLS),
            "geometry.busy_s": self._busy(GEOMETRY_CALLS),
            "polyhedral.rows_in": self.sums["rows_in"],
            "polyhedral.rays_out": self.sums["rays_out"],
            "polyhedral.busy_s": self._layer_busy("polyhedral"),
            "cones.projections": self.calls["cones.dist_and_project"],
            "cones.membership_checks": self._calls(MEMBERSHIP_CHECKS),
            "cones.busy_s": self._layer_busy("cones"),
            "conditions.busy_s": self._layer_busy("conditions"),
            "problemfile.build_busy_s": self.sums["build_s"],
            "optproblem.grid_points": points,
            "optproblem.scan_busy_s":
                self.self_s["optproblem.op_bruteforce"],
        }
        out = {k: v / verdicts for k, v in values.items()}
        out["optproblem.feasible_ratio"] = (self.sums["feasible"] / points
                                            if points else 0.0)
        out["optproblem.scan_peak_mb"] = self.sums["scan_peak_mb"]
        return out

    def function_table(self) -> list:
        """(key, calls, self seconds) for every key, busiest first."""
        return sorted(((k, self.calls[k], self.self_s[k]) for k in self.calls),
                      key=lambda row: -row[2])
