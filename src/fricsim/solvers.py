"""Damped Newton (direct sparse LU) and inexact damped Newton (BiCGSTAB).

Both methods backtrack on the Euclidean residual norm with the acceptance
test  |r(v + a p)| <= (1 - c1 a (1 - sigma_k)) |r(v_k)|; the direct solver
uses sigma_k = 0 so one line-search code path serves both.  The inexact
forcing terms follow sigma_k = min(|r_k|^phi / |r_{k-1}|^phi, sigma) with
phi = (1 + sqrt(5))/2, and the post-acceptance update 1 - a (1 - sigma_k) is
recorded but not fed forward.

Non-finite trial residuals (inverted elements, log-model volume blowups) are
treated as "not acceptable" so backtracking walks back into the feasible
region; only an underflowing step size fails the search.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

PHI = (1.0 + np.sqrt(5.0)) / 2.0


@dataclass
class SolverConfig:
    kind: str = "direct"          # direct | iterative
    k_max: int = 100
    r_tol_abs: float | None = None   # default: problem.default_abs_tol()
    r_tol_rel: float = 1e-6
    v_tol: float | None = None       # default: 0.1 * friction epsilon
    c1: float = 1e-4
    sigma: float = 0.01
    rho: float = 0.5
    alpha_min: float = 1e-12
    max_krylov_iters: int = 200

    def __post_init__(self):
        if not (0 < self.c1 < 1 and 0 < self.rho < 1 and 0 < self.sigma < 1):
            raise ValueError("need 0 < c1, rho, sigma < 1")
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")

    def resolved_v_tol(self) -> float:
        return 1e-5 if self.v_tol is None else self.v_tol


@dataclass
class SolveReport:
    iterations: int = 0
    residual_norms: list = field(default_factory=list)      # euclidean, per iterate
    residual_inf_norms: list = field(default_factory=list)
    alphas: list = field(default_factory=list)
    linear_iters: list = field(default_factory=list)
    sigmas: list = field(default_factory=list)               # forcing terms used
    sigmas_post: list = field(default_factory=list)          # 1 - a(1 - sigma_k)
    status: str = "Converged"

    def ok(self) -> bool:
        return self.status == "Converged"


class SolveFailure(RuntimeError):
    def __init__(self, report: SolveReport, message: str):
        super().__init__(message)
        self.report = report


def should_stop(r, v_k, v_prev, cfg: SolverConfig, r0_inf: float,
                abs_tol: float) -> bool:
    """True iff |r|_inf <= max(abs, rel*|r0|_inf) or |dv|_inf <= v_tol."""
    r_inf = float(np.max(np.abs(r))) if np.size(r) else 0.0
    if not np.isfinite(r_inf):
        return False
    if r_inf <= max(abs_tol, cfg.r_tol_rel * r0_inf):
        return True
    if v_prev is not None:
        dv = float(np.max(np.abs(v_k - v_prev)))
        if dv <= cfg.resolved_v_tol():
            return True
    return False


def _norm(r) -> float:
    return float(np.linalg.norm(r))


def _backtrack(residual_fn, v, p, r_norm, sigma_k, cfg: SolverConfig):
    """Residual-norm backtracking; returns (alpha, v_new, r_new, r_new_norm)
    or None when alpha underflows.  Non-finite trials keep backtracking."""
    alpha = 1.0
    while alpha >= cfg.alpha_min:
        v_new = v + alpha * p
        r_new = residual_fn(v_new)
        r_new_norm = _norm(r_new)
        bound = (1.0 - cfg.c1 * alpha * (1.0 - sigma_k)) * r_norm
        if np.isfinite(r_new_norm) and r_new_norm <= bound:
            return alpha, v_new, r_new, r_new_norm
        alpha *= cfg.rho
    return None


def damped_newton(problem, v0, cfg: SolverConfig | None = None):
    """Newton with direct sparse LU directions and residual backtracking.

    The factored matrix is the assembled sparse Jacobian (volume penalties
    contribute their sparse approximation only); the residual is always exact.
    """
    cfg = cfg or SolverConfig()
    report = SolveReport()
    v = np.asarray(v0, float).copy()
    r = np.asarray(problem.residual(v), float)
    abs_tol = cfg.r_tol_abs if cfg.r_tol_abs is not None \
        else problem.default_abs_tol()
    r0_inf = float(np.max(np.abs(r))) if r.size else 0.0
    v_prev = None
    for k in range(cfg.k_max + 1):
        r_norm = _norm(r)
        report.residual_norms.append(r_norm)
        report.residual_inf_norms.append(
            float(np.max(np.abs(r))) if r.size else 0.0)
        if should_stop(r, v, v_prev, cfg, r0_inf, abs_tol):
            report.iterations = k
            report.status = "Converged"
            return v, report
        if k == cfg.k_max:
            break
        jac, _ = problem.jacobian(v)
        try:
            lu = spla.splu(jac.tocsc())
            p = lu.solve(-r)
        except RuntimeError as exc:  # singular factorization
            report.iterations = k
            report.status = "LinearSolveFailed"
            raise SolveFailure(
                report, f"sparse LU failed ({exc}); try a smaller time step")
        if not np.all(np.isfinite(p)):
            report.iterations = k
            report.status = "LinearSolveFailed"
            raise SolveFailure(report, "singular Jacobian; try a smaller step")
        report.linear_iters.append(0)
        hit = _backtrack(problem.residual, v, p, r_norm, 0.0, cfg)
        if hit is None:
            report.iterations = k
            report.status = "LineSearchFailed"
            raise SolveFailure(report, "line search underflow (alpha < 1e-12)")
        alpha, v_new, r, _ = hit
        report.alphas.append(alpha)
        v_prev = v
        v = v_new
    report.iterations = cfg.k_max
    report.status = "MaxIters"
    raise SolveFailure(report, f"no convergence in {cfg.k_max} Newton iterations")


def inexact_damped_newton(problem, v0, cfg: SolverConfig | None = None):
    """Inexact Newton: unpreconditioned BiCGSTAB directions on
    ``problem.jac_matvec`` (the assembled sparse Jacobian plus the exact
    rank-1 volume terms), residual-ratio adaptive forcing, residual
    backtracking."""
    cfg = cfg or SolverConfig()
    report = SolveReport()
    v = np.asarray(v0, float).copy()
    r = np.asarray(problem.residual(v), float)
    abs_tol = cfg.r_tol_abs if cfg.r_tol_abs is not None \
        else problem.default_abs_tol()
    r0_inf = float(np.max(np.abs(r))) if r.size else 0.0
    v_prev = None
    prev_norm = None
    for k in range(cfg.k_max + 1):
        r_norm = _norm(r)
        report.residual_norms.append(r_norm)
        report.residual_inf_norms.append(
            float(np.max(np.abs(r))) if r.size else 0.0)
        if should_stop(r, v, v_prev, cfg, r0_inf, abs_tol):
            report.iterations = k
            report.status = "Converged"
            return v, report
        if k == cfg.k_max:
            break
        if prev_norm is None or prev_norm == 0.0:
            sigma_k = cfg.sigma
        else:
            sigma_k = min((r_norm / prev_norm) ** PHI, cfg.sigma)
        report.sigmas.append(sigma_k)
        apply_j = problem.jac_matvec(v)
        p, lin_iters, lin_ok = bicgstab(apply_j, -r, tol=sigma_k,
                                        max_iters=cfg.max_krylov_iters)
        report.linear_iters.append(lin_iters)
        if not lin_ok or not np.all(np.isfinite(p)):
            # one steepest-descent-like fallback with a fresh line search
            hit = _backtrack(problem.residual, v, -r, r_norm, sigma_k, cfg)
            if hit is None:
                report.iterations = k
                report.status = "LinearSolveFailed"
                raise SolveFailure(
                    report, "BiCGSTAB stagnated and the -r fallback failed")
        else:
            hit = _backtrack(problem.residual, v, p, r_norm, sigma_k, cfg)
            if hit is None:
                report.iterations = k
                report.status = "LineSearchFailed"
                raise SolveFailure(report,
                                   "line search underflow (alpha < 1e-12)")
        alpha, v_new, r_new, r_new_norm = hit
        # accepted steps satisfy the sufficient-decrease inequality strictly
        assert r_new_norm <= (1.0 - cfg.c1 * alpha * (1.0 - sigma_k)) * r_norm
        report.alphas.append(alpha)
        report.sigmas_post.append(1.0 - alpha * (1.0 - sigma_k))
        prev_norm = r_norm
        v_prev = v
        v = v_new
        r = r_new
    report.iterations = cfg.k_max
    report.status = "MaxIters"
    raise SolveFailure(report, f"no convergence in {cfg.k_max} Newton iterations")


def bicgstab(apply_j, b, tol: float, max_iters: int = 200):
    """Biconjugate gradient stabilized for non-symmetric J, given as the
    callable ``apply_j(p) = J p``.

    Returns (x, iterations, converged) with |b - J x| <= tol * |b| on
    success.  On rho/omega breakdown the shadow residual is re-randomized
    once (fixed seed; determinism contract) before giving up.
    """
    b = np.asarray(b, float)
    n = b.size
    x = np.zeros(n)
    r = b.copy()
    b_norm = np.linalg.norm(b)
    if b_norm == 0.0:
        return x, 0, True
    target = tol * b_norm
    r_hat = r.copy()
    rho_prev = alpha = omega = 1.0
    vv = np.zeros(n)
    p = np.zeros(n)
    restarted = False
    iters = 0
    tiny = 1e-300
    while iters < max_iters:
        rho = float(r_hat @ r)
        if abs(rho) < tiny or abs(omega) < tiny:
            if restarted:
                return x, iters, False
            # restart from the current iterate with a fresh shadow residual
            r = b - _apply(apply_j, x)
            r_hat = np.random.default_rng(0).normal(size=n)
            rho_prev = alpha = omega = 1.0
            vv = np.zeros(n)
            p = np.zeros(n)
            restarted = True
            continue
        beta = (rho / rho_prev) * (alpha / omega)
        p = r + beta * (p - omega * vv)
        vv = _apply(apply_j, p)
        denom = float(r_hat @ vv)
        if abs(denom) < tiny:
            if restarted:
                return x, iters, False
            r = b - _apply(apply_j, x)
            r_hat = np.random.default_rng(0).normal(size=n)
            rho_prev = alpha = omega = 1.0
            vv = np.zeros(n)
            p = np.zeros(n)
            restarted = True
            continue
        alpha = rho / denom
        s = r - alpha * vv
        iters += 1
        if np.linalg.norm(s) <= target:
            x = x + alpha * p
            return x, iters, True
        t = _apply(apply_j, s)
        tt = float(t @ t)
        if tt < tiny:
            x = x + alpha * p
            return x, iters, np.linalg.norm(s) <= target
        omega = float(t @ s) / tt
        x = x + alpha * p + omega * s
        r = s - omega * t
        rho_prev = rho
        if np.linalg.norm(r) <= target:
            return x, iters, True
    return x, iters, np.linalg.norm(b - _apply(apply_j, x)) <= target


def _apply(apply_j, p):
    out = apply_j(p)
    return np.asarray(out, float)
