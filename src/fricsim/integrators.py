"""Time-integration stages: BE, TR, BDF2, TR-BDF2, SDIRK2, plus a
deliberately mis-split TR used as a stability foil.

Every stage solves r(v) = 0 for the stage velocity with one coefficient c:

    r(v) = M (v - v_lin) - c f(q_ref + c v, v, t + theta h) - f_const

Position updates are linear in the stage velocity, so df/dq enters the
velocity Jacobian through the chain factor c.  Lagged friction (BE and TR
only) uses the same stages; only friction's anchor in the contact state
differs (:mod:`fricsim.friction`).

A scheme is its stage function, which yields each stage's (v_lin, q_ref, c,
theta, f_const, contact).  One stage runner, :meth:`Scheme.step`, builds
every scheme's ``StageProblem`` and holds the two rules of a step:
  start  the first stage starts from ``v0`` (default the step's v), and it
         is offered the prediction 2 v - v_prev only when it ends at t + h
         (theta = 1), the step has a previous state and no ``v0`` was given
         (a lagged pass gives one); every later stage starts from the
         stage before it;
  end    the step ends at the last stage's positions(v) and v.

Second-order schemes (standard stiffly-accurate forms; all L-stable):
  BDF2     v_lin = 4/3 v^t - 1/3 v^{t-h}, q_ref likewise, c = 2h/3;
           the first step bootstraps with BE.
  TR-BDF2  gamma = 2 - sqrt(2); a TR stage over gamma*h, then the BDF2-style
           closure  y^{t+h} = a_g y^{t+gamma h} + a_0 y^t + b h F(y^{t+h})
           with a_g = 1/(gamma(2-gamma)), a_0 = -(1-gamma)^2/(gamma(2-gamma)),
           b = (1-gamma)/(2-gamma).
  SDIRK2   gamma = 1 - 1/sqrt(2); two BE-like stages, stiffly accurate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import dual as dm
from .forces import ContactState, ForceModel, Rank1
from .mesh import SystemState


@dataclass
class StageProblem:
    """One nonlinear stage r(v) = 0; provides residual, JVP and assembly.

    The stage applies the model's fixed dofs (``fixed_mask``): each fixed
    row of r is replaced with v - ``fixed_velocity``, and the same row of J
    with the identity row, with u of each rank-1 term zeroed there.
    """

    model: ForceModel
    contact: ContactState
    v_lin: np.ndarray
    q_ref: np.ndarray
    c: float
    t_eval: float
    h: float
    f_const: np.ndarray | None = None

    def positions(self, v):
        return self.q_ref + self.c * v

    def residual(self, v):
        """Stage residual, generic over Dual v."""
        q = self.positions(v)
        f = self.model.force(q, v, self.t_eval, self.contact)
        r = self.model.mass_dofs * (v - self.v_lin) - self.c * f
        if self.f_const is not None:
            r = r - self.f_const
        fixed = self.model.fixed_mask
        if fixed.any():
            r = dm.where(fixed, v - self.model.fixed_velocity, r)
        return r

    def jvp(self, v, p):
        """Exact J(v) p through the dual-number path."""
        return dm.jvp(self.residual, np.asarray(v, float), p)

    def jacobian(self, v):
        """(sparse J, rank1 list): J = M - c (df/dv + c df/dq).

        J is the sparse matrix plus the rank1 list's exact volume terms, each
        ``scale * outer(u, w)`` and never stored dense.  The model assembles
        df/dv + c df/dq with weights (c, 1) on the ``data`` of its fixed
        pattern; that is scaled by -c, M is added on the diagonal slots, and
        the fixed rows are masked.
        """
        q = self.positions(np.asarray(v, float))
        data, rank1 = self.model.jacobians(q, v, self.t_eval, self.contact,
                                           self.c, 1.0)
        pat = self.model.pattern()
        data *= -self.c
        data[pat.diag] += self.model.mass_dofs
        fixed = self.model.fixed_mask
        if fixed.any():
            data[fixed[pat.rows]] = 0.0
            data[pat.diag[fixed]] = 1.0
        return pat.matrix(data), [
            Rank1(-self.c * r.scale, np.where(fixed, 0.0, r.u), r.w)
            for r in rank1]

    def default_abs_tol(self) -> float:
        """Residual-scale absolute tolerance: 1e-6 h |M g|_inf (momentum
        scale)."""
        gnorm = np.linalg.norm(self.model.gravity)
        gscale = gnorm if gnorm > 0 else 9.8
        return 1e-6 * self.h * float(np.max(self.model.mass_dofs)) * gscale


@dataclass
class StepResult:
    q: np.ndarray
    v: np.ndarray
    reports: list = field(default_factory=list)


@dataclass(frozen=True)
class Scheme:
    """A scheme is its stage function; :meth:`step` is the one stage
    runner."""

    stages: Callable

    def step(self, model: ForceModel, contact: ContactState,
             state: SystemState, h: float, solve,
             prev: SystemState | None = None, v0=None) -> StepResult:
        """One step from ``state``; ``solve(problem, v0, guess=None)``
        solves a stage.  The first stage starts from ``v0`` (default
        ``state.v``) and is offered the prediction 2 v - v_prev only when it
        ends at t + h, ``prev`` is given and ``v0`` is not; every later
        stage starts from the stage before it.  The step ends at the last
        stage's ``positions(v)`` and v."""
        stages = self.stages(model, contact, state, h, prev)
        v = state.v if v0 is None else v0
        end, reports = None, []
        while True:
            try:
                stage = stages.send(end)
            except StopIteration:
                return StepResult(*end, reports)
            v_lin, q_ref, c, theta, f_const, stage_contact = stage
            prob = StageProblem(model, stage_contact, v_lin, q_ref, c,
                                state.t + theta * h, h, f_const)
            predict = (theta == 1.0 and not reports and prev is not None
                       and v0 is None)
            v, rep = solve(prob, v,
                           2.0 * state.v - prev.v if predict else None)
            reports.append(rep)
            end = prob.positions(v), v


# Stage functions: (model, contact, state, h, prev) -> a generator that
# yields each stage's (v_lin, q_ref, c, theta, f_const, contact) and is sent
# the stage's end (q, v).

def _be(model, contact, state, h, prev):
    yield state.v, state.q, h, 1.0, None, contact


def _tr(model, contact, state, h, prev, implicit=None):
    """Fully coupled TR: both halves evaluate the force on the step's
    contact state, unless an ``implicit`` one is given for the implicit
    half.  The explicit half is evaluated at each call, so each
    ``lagged:N`` pass uses its anchor."""
    f0 = model.force(state.q, state.v, state.t, contact)
    yield (state.v, state.q + 0.5 * h * state.v, 0.5 * h, 1.0,
           (0.5 * h) * f0, contact if implicit is None else implicit)


def _tr_missplit(model, contact, state, h, prev):
    """Deliberately mis-split TR: contact and friction enter only through
    the explicit half f0; the implicit half sees no pairs.  A foil: on
    ``ball_in_box`` its kappa retries re-solve one contact-free stage
    until the stiffness cap trips (step 11)."""
    return _tr(model, contact, state, h, prev,
               ContactState.empty(model.table))


def _bdf2(model, contact, state, h, prev):
    if prev is None:  # the first step bootstraps with BE
        yield from _be(model, contact, state, h, prev)
    else:
        yield ((4.0 * state.v - prev.v) / 3.0,
               (4.0 * state.q - prev.q) / 3.0, 2.0 * h / 3.0, 1.0, None,
               contact)


def _sdirk2(model, contact, state, h, prev):
    g = 1.0 - 1.0 / np.sqrt(2.0)
    _, v_s1 = yield state.v, state.q, g * h, g, None, contact
    k1v = (v_s1 - state.v) / (g * h)
    yield (state.v + (1.0 - g) * h * k1v, state.q + (1.0 - g) * h * v_s1,
           g * h, 1.0, None, contact)


def _trbdf2(model, contact, state, h, prev):
    g = 2.0 - np.sqrt(2.0)
    f0 = model.force(state.q, state.v, state.t, contact)
    q_g, v_g = yield (state.v, state.q + 0.5 * g * h * state.v, 0.5 * g * h,
                      g, (0.5 * g * h) * f0, contact)
    a_g = 1.0 / (g * (2.0 - g))
    a_0 = -(1.0 - g) ** 2 / (g * (2.0 - g))
    b = (1.0 - g) / (2.0 - g)
    yield (a_g * v_g + a_0 * state.v, a_g * q_g + a_0 * state.q, b * h, 1.0,
           None, contact)


_SCHEMES = {"be": _be, "tr": _tr, "tr_missplit": _tr_missplit,
            "bdf2": _bdf2, "sdirk2": _sdirk2, "trbdf2": _trbdf2}


def make_scheme(name: str, lagged: bool = False) -> Scheme:
    """The scheme called ``name``; lagged friction needs BE or TR, whose
    stages are the same with it (the lag is in the contact state)."""
    name = name.lower()
    if lagged and name not in ("be", "tr"):
        raise ValueError(
            f"lagged friction is defined for be/tr only, not {name!r}")
    if name not in _SCHEMES:
        raise ValueError(f"unknown integrator {name!r}; "
                         f"expected one of {sorted(_SCHEMES)}")
    return Scheme(_SCHEMES[name])
