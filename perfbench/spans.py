"""Layer spans recorded from outside fricsim.

The tracer wraps the functions each layer exposes, under the name their
callers look them up by (``fricsim.simulate.damped_newton``, not
``fricsim.solvers.damped_newton``, because ``Simulation`` calls the name it
imported).  Spans stay in memory as parallel lists of layer, start, end and
parent span, and are reduced to per-layer figures when a simulation ends.
A layer's self time is its span time minus the time of its child spans.

Every target is optional.  A target that a later change renames or deletes
is skipped: its layer reports zero calls and its time falls into the
caller's self time.  Hooks that read a layer's results are skipped the same
way when those results change shape.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter

import numpy as np

NEWTON = "solvers.newton"
RECORD = "simulate.record"


def _after_build(tracer, args, kwargs, state):
    # record() also builds a candidate set to sample contact energy; only
    # the stepping loop's builds count as candidates
    if not tracer.inside(RECORD):
        cset = state.cset
        tracer.counts["candidates"] += cset.size
        tracer.counts["active"] += int(np.count_nonzero(cset.lam > 0.0))
    return state


def _after_solve(tracer, args, kwargs, result):
    """Count a solve and classify why it stopped.

    The stop rule accepts |r|_inf <= max(abs_tol, r_tol_rel |r0|_inf) or
    |dv|_inf <= v_tol, so a converged solve whose final residual is over that
    tolerance stopped on stagnation.
    """
    _, report = result
    c = tracer.counts
    c["solves"] += 1
    c["newton"] += report.iterations
    c["alphas"] += len(report.alphas)
    c["alpha_lt1"] += sum(1 for a in report.alphas if a < 1.0)
    problem = args[0]
    cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
    abs_tol = getattr(cfg, "r_tol_abs", None)
    if abs_tol is None:
        abs_tol = problem.default_abs_tol()
    r_inf = report.residual_inf_norms
    tol = max(abs_tol, getattr(cfg, "r_tol_rel", 1e-6) * r_inf[0])
    ratio = r_inf[-1] / tol
    if ratio > 1.0:
        c["stagnation"] += 1
    tracer.resid_ratio_max = max(tracer.resid_ratio_max, ratio)
    return result


class _TimedLU:
    """Stands in for the factor object so its triangular solves get spans."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _after_splu(tracer, args, kwargs, lu):
    a = args[0] if args else kwargs["A"]
    tracer.counts["lu_calls"] += 1
    tracer.counts["jac_nnz"] += a.nnz
    tracer.counts["lu_nnz"] += lu.L.nnz + lu.U.nnz
    return _TimedLU(lu, tracer.wrap("solvers.lu", lu.solve))


def _after_krylov(tracer, args, kwargs, result):
    tracer.counts["krylov_iters"] += result[1]
    return result


# (layer, module, attribute path, hook run on the result)
TARGETS = (
    ("simulate.advance", "fricsim.simulate", "Simulation.advance", None),
    (RECORD, "fricsim.simulate", "Simulation.record", None),
    ("contact.build", "fricsim.forces", "ForceModel.build_contact_state",
     _after_build),
    ("contact.build", "fricsim.forces", "ForceModel.all_gaps", None),
    ("contact.build", "fricsim.forces", "ForceModel.penetrating_candidates",
     None),
    (NEWTON, "fricsim.simulate", "damped_newton", _after_solve),
    (NEWTON, "fricsim.simulate", "inexact_damped_newton", _after_solve),
    ("integrators.residual", "fricsim.integrators", "StageProblem.residual",
     None),
    ("integrators.jacobian", "fricsim.integrators", "StageProblem.jacobian",
     None),
    ("dual.jvp", "fricsim.integrators", "StageProblem.jvp", None),
    ("forces.jacobians", "fricsim.forces", "ForceModel.jacobians", None),
    ("friction.blocks", "fricsim.forces", "contact_friction_blocks", None),
    ("elasticity.damping_q", "fricsim.forces", "damping_q_blocks", None),
    ("volume.hessian", "fricsim.forces", "volume_hessian_blocks", None),
    ("solvers.lu", "fricsim.solvers", "spla.splu", _after_splu),
    ("solvers.krylov", "fricsim.solvers", "bicgstab", _after_krylov),
)

# The untimed runs wrap only the solver boundary, to count Newton iterations.
COUNT_ONLY = frozenset({NEWTON})
ALL_LAYERS = frozenset(t[0] for t in TARGETS)


def _resolve(module: str, path: str):
    """(owner, attribute name) or None when the target no longer exists."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, name, None)):
        return None
    return owner, name


class Tracer:
    def __init__(self, layers=ALL_LAYERS):
        self.targets = [t for t in TARGETS if t[0] in layers]
        self.missing: list[str] = []
        self.hook_errors: Counter = Counter()
        self._patches = []
        self._stack = [-1]  # wrappers hold this list; it is only cleared
        self.reset()

    def reset(self):
        self.layer: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        del self._stack[1:]
        self.counts: Counter = Counter()
        self.resid_ratio_max = 0.0

    def inside(self, layer: str) -> bool:
        return any(self.layer[i] == layer for i in self._stack[1:])

    def wrap(self, layer: str, fn, after=None):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.layer)
            self.layer.append(layer)
            self.parent.append(stack[-1])
            self.end.append(0.0)
            self.start.append(0.0)
            stack.append(i)
            self.start[i] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                stack.pop()
            if after is not None:
                try:
                    result = after(self, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError,
                        ValueError, ZeroDivisionError):
                    self.hook_errors[layer] += 1
            return result

        return traced

    def install(self):
        for layer, module, path, after in self.targets:
            found = _resolve(module, path)
            if found is None:
                self.missing.append(f"{module}.{path}")
                continue
            owner, name = found
            static = inspect.getattr_static(owner, name)
            own = name in vars(owner)
            if isinstance(static, (staticmethod, classmethod)):
                patched = type(static)(self.wrap(layer, static.__func__,
                                                 after))
            else:
                patched = self.wrap(layer, getattr(owner, name), after)
            setattr(owner, name, patched)
            self._patches.append((owner, name, static, own))

    def uninstall(self):
        while self._patches:
            owner, name, static, own = self._patches.pop()
            if own:
                setattr(owner, name, static)
            else:
                delattr(owner, name)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def report_problems(self, out=sys.stderr):
        for target in self.missing:
            print(f"perfbench: wrap target {target} not found; its layer "
                  "reports 0 calls", file=out)
        for layer, n in self.hook_errors.items():
            print(f"perfbench: {n} results of {layer} had an unexpected "
                  "shape and were not counted", file=out)

    # -- reduction ----------------------------------------------------------
    def layer_times(self):
        """{layer: (calls, inclusive s, self s)} over the recorded spans."""
        n = len(self.layer)
        if not n:
            return {}
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent)
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=n)
        self_t = dur - child
        layer = np.asarray(self.layer)
        out = {}
        for name in np.unique(layer):
            sel = layer == name
            out[str(name)] = (int(sel.sum()), float(dur[sel].sum()),
                              float(self_t[sel].sum()))
        return out

    def calls_under(self, layer: str, parent_layer: str) -> int:
        """Number of ``layer`` spans whose parent span is ``parent_layer``."""
        return sum(1 for name, p in zip(self.layer, self.parent)
                   if name == layer and p >= 0
                   and self.layer[p] == parent_layer)
