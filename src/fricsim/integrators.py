"""Time-integration residuals: BE, TR, BDF2, TR-BDF2, SDIRK2, plus a
deliberately mis-split TR used as a stability foil.

Every stage solves r(v) = 0 for the stage velocity with one coefficient c:

    r(v) = M (v - v_lin) - c f(q_ref + c v, v, t_eval) - f_const

Position updates are linear in the stage velocity, so df/dq enters the
velocity Jacobian through the chain factor c.  Lagged friction (BE and TR
only) uses the same stages; only friction's anchor in the contact state
differs (:mod:`fricsim.friction`).

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


class Scheme:
    name = ""

    def step(self, model: ForceModel, contact: ContactState,
             state: SystemState, h: float, solve, prev: SystemState | None
             = None, v0=None, guess=None) -> StepResult:
        """One step from ``state``; ``solve(problem, v0, guess=None)``
        solves a stage.  The first stage starts from ``v0`` (default
        ``state.v``); BE, TR and BDF2 offer their one stage ``guess``, a
        prediction of v at t + h, and SDIRK2 and TR-BDF2 offer it to none."""
        raise NotImplementedError


class BackwardEuler(Scheme):
    name = "be"

    def step(self, model, contact, state, h, solve, prev=None, v0=None,
             guess=None):
        prob = StageProblem(model=model, contact=contact, v_lin=state.v,
                            q_ref=state.q, c=h, t_eval=state.t + h, h=h)
        v1, rep = solve(prob, state.v if v0 is None else v0, guess)
        return StepResult(q=state.q + h * v1, v=v1, reports=[rep])


class TrapezoidalRule(Scheme):
    """Fully coupled TR: both halves evaluate the force on the step's
    contact state.  The explicit half is evaluated at each call, so each
    ``lagged:N`` pass uses its anchor."""

    name = "tr"

    def step(self, model, contact, state, h, solve, prev=None, v0=None,
             guess=None):
        f0 = model.force(state.q, state.v, state.t, contact)
        prob = StageProblem(model=model,
                            contact=self.implicit_contact(model, contact),
                            v_lin=state.v, q_ref=state.q + 0.5 * h * state.v,
                            c=0.5 * h, t_eval=state.t + h, h=h,
                            f_const=(0.5 * h) * f0)
        v1, rep = solve(prob, state.v if v0 is None else v0, guess)
        return StepResult(q=state.q + 0.5 * h * (state.v + v1), v=v1,
                          reports=[rep])

    def implicit_contact(self, model, contact):
        """The contact state of the implicit half."""
        return contact


class TrapezoidalMissplit(TrapezoidalRule):
    """Deliberately mis-split TR: contact and friction enter only through
    the explicit half f0; the implicit half sees no pairs.  A foil: on
    ``ball_in_box`` its kappa retries re-solve one contact-free stage
    until the stiffness cap trips (step 11)."""

    name = "tr_missplit"

    def implicit_contact(self, model, contact):
        return ContactState.empty(model.table)


class BDF2(Scheme):
    name = "bdf2"

    def step(self, model, contact, state, h, solve, prev=None, v0=None,
             guess=None):
        if prev is None:
            return BackwardEuler().step(model, contact, state, h, solve, v0=v0)
        v_lin = (4.0 * state.v - prev.v) / 3.0
        q_ref = (4.0 * state.q - prev.q) / 3.0
        prob = StageProblem(model=model, contact=contact, v_lin=v_lin,
                            q_ref=q_ref, c=2.0 * h / 3.0, t_eval=state.t + h,
                            h=h)
        v1, rep = solve(prob, state.v if v0 is None else v0, guess)
        return StepResult(q=q_ref + (2.0 * h / 3.0) * v1, v=v1, reports=[rep])


class SDIRK2(Scheme):
    name = "sdirk2"
    gamma = 1.0 - 1.0 / np.sqrt(2.0)

    def step(self, model, contact, state, h, solve, prev=None, v0=None,
             guess=None):
        g = self.gamma
        s1 = StageProblem(model=model, contact=contact, v_lin=state.v,
                          q_ref=state.q, c=g * h, t_eval=state.t + g * h, h=h)
        v_s1, rep1 = solve(s1, state.v if v0 is None else v0)
        k1v = (v_s1 - state.v) / (g * h)
        s2 = StageProblem(model=model, contact=contact,
                          v_lin=state.v + (1.0 - g) * h * k1v,
                          q_ref=state.q + (1.0 - g) * h * v_s1, c=g * h,
                          t_eval=state.t + h, h=h)
        v1, rep2 = solve(s2, v_s1)
        return StepResult(q=s2.q_ref + g * h * v1, v=v1, reports=[rep1, rep2])


class TRBDF2(Scheme):
    name = "trbdf2"
    gamma = 2.0 - np.sqrt(2.0)

    def step(self, model, contact, state, h, solve, prev=None, v0=None,
             guess=None):
        g = self.gamma
        f0 = model.force(state.q, state.v, state.t, contact)
        s1 = StageProblem(model=model, contact=contact, v_lin=state.v,
                          q_ref=state.q + 0.5 * g * h * state.v,
                          c=0.5 * g * h, t_eval=state.t + g * h, h=h,
                          f_const=(0.5 * g * h) * f0)
        v_g, rep1 = solve(s1, state.v if v0 is None else v0)
        q_g = state.q + 0.5 * g * h * (state.v + v_g)
        a_g = 1.0 / (g * (2.0 - g))
        a_0 = -(1.0 - g) ** 2 / (g * (2.0 - g))
        b = (1.0 - g) / (2.0 - g)
        s2 = StageProblem(model=model, contact=contact,
                          v_lin=a_g * v_g + a_0 * state.v,
                          q_ref=a_g * q_g + a_0 * state.q, c=b * h,
                          t_eval=state.t + h, h=h)
        v1, rep2 = solve(s2, v_g)
        return StepResult(q=s2.q_ref + b * h * v1, v=v1, reports=[rep1, rep2])


def make_scheme(name: str, lagged: bool = False) -> Scheme:
    """The scheme called ``name``; lagged friction needs BE or TR, whose
    stages are the same with it (the lag is in the contact state)."""
    name = name.lower()
    if lagged and name not in ("be", "tr"):
        raise ValueError(
            f"lagged friction is defined for be/tr only, not {name!r}")
    schemes = {"be": BackwardEuler, "tr": TrapezoidalRule, "bdf2": BDF2,
               "trbdf2": TRBDF2, "sdirk2": SDIRK2,
               "tr_missplit": TrapezoidalMissplit}
    if name not in schemes:
        raise ValueError(f"unknown integrator {name!r}; "
                         f"expected one of {sorted(schemes)}")
    return schemes[name]()
