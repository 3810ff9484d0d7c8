"""One damped-Newton loop whose ``SolverConfig.kind`` picks the direction:
an exact LU solve (LAPACK's banded LU in reverse Cuthill-McKee order) with
the rank-1 volume terms applied by the Woodbury identity (``"direct"``) or
SciPy's BiCGSTAB right-preconditioned by that same solve, made from the
first Newton iteration's Jacobian and kept for the whole solve
(``"iterative"``); a BiCGSTAB breakdown, like a missed tolerance, gives
the step along -r.

Every step backtracks on the Euclidean residual norm with the acceptance
test  |r(v + a p)| <= (1 - c1 a (1 - sigma_k)) |r(v_k)|.  The LU direction
is exact, so sigma_k = 0; BiCGSTAB solves to the relative tolerance
sigma_k = min(|r_k|^phi / |r_{k-1}|^phi, sigma), phi = (1 + sqrt(5))/2.

Non-finite trial residuals (inverted elements, log-model volume blowups) are
treated as "not acceptable" so backtracking walks back into the feasible
region; only an underflowing step size fails the search.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack
from scipy.sparse.csgraph import reverse_cuthill_mckee

PHI = (1.0 + np.sqrt(5.0)) / 2.0
C1 = 1e-4          # sufficient-decrease constant
SIGMA = 0.01       # first and largest forcing term
RHO = 0.5          # backtracking factor
ALPHA_MIN = 1e-12  # smallest step before the line search fails


@dataclass(frozen=True)
class SolverConfig:
    kind: str = "direct"          # direct | iterative
    k_max: int = 100
    r_tol_abs: float | None = None   # default: problem.default_abs_tol()
    r_tol_rel: float = 1e-6
    v_tol: float = 1e-5              # scenes: 0.1 * min friction eps
    max_krylov_iters: int = 200

    def __post_init__(self):
        if self.kind not in ("direct", "iterative"):
            raise ValueError(
                f"kind must be 'direct' or 'iterative', got {self.kind!r}")
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")
        if self.max_krylov_iters < 1:
            raise ValueError("max_krylov_iters must be >= 1")


@dataclass
class SolveReport:
    iterations: int = 0
    residual_norms: list = field(default_factory=list)      # euclidean, per iterate
    residual_inf_norms: list = field(default_factory=list)
    alphas: list = field(default_factory=list)
    linear_iters: list = field(default_factory=list)
    sigmas: list = field(default_factory=list)               # forcing terms used
    status: str = "Converged"
    # what ended the solve: "residual" (|r|_inf <= tol), "step"
    # (|dv|_inf <= v_tol) or the failure status
    stop: str = ""
    tol: float = float("nan")                 # residual tolerance applied
    start: str = "v"              # "extrapolated" when the guess was taken


class SolveFailure(RuntimeError):
    def __init__(self, report: SolveReport, status: str, message: str):
        super().__init__(message)
        report.status = report.stop = status
        self.report = report


def should_stop(r_inf: float, v_k, v_prev, tol: float,
                v_tol: float) -> str | None:
    """Why to stop, or None: ``"residual"`` iff |r|_inf <= tol, else
    ``"step"`` iff |dv|_inf <= v_tol."""
    if not np.isfinite(r_inf):
        return None
    if r_inf <= tol:
        return "residual"
    if v_prev is not None:
        dv = float(np.max(np.abs(v_k - v_prev)))
        if dv <= v_tol:
            return "step"
    return None


def _norm(r) -> float:
    return float(np.linalg.norm(r))


def _finite_norm(r) -> float:
    """|r|, or inf when r is not finite (a NaN norm never compares)."""
    return _norm(r) if np.all(np.isfinite(r)) else np.inf


def _backtrack(residual_fn, v, p, r_norm, sigma_k):
    """Residual-norm backtracking; returns (alpha, v_new, r_new, r_new_norm)
    or None when alpha underflows.  Non-finite trials keep backtracking."""
    alpha = 1.0
    while alpha >= ALPHA_MIN:
        v_new = v + alpha * p
        r_new = residual_fn(v_new)
        r_new_norm = _norm(r_new)
        bound = (1.0 - C1 * alpha * (1.0 - sigma_k)) * r_norm
        if np.isfinite(r_new_norm) and r_new_norm <= bound:
            return alpha, v_new, r_new, r_new_norm
        alpha *= RHO
    return None


class BandLayout:
    """LAPACK band storage of an n x n CSR sparsity taken in reverse
    Cuthill-McKee order (of A + A^T, so a structurally non-symmetric
    pattern is ordered too).

    ``order`` is the new row and column order, ``kl`` and ``ku`` the
    sub- and superdiagonals of the reordered pattern and ``slots`` the
    position of each stored entry in the column-major (2 kl + ku + 1, n)
    array that ``dgbtrf`` factors.  All of it depends on the pattern
    only, so a fixed pattern (``forces.CsrPattern``) builds it once.
    """

    def __init__(self, indptr, indices, n: int):
        graph = sp.csr_matrix((np.ones(len(indices)), indices, indptr),
                              shape=(n, n))
        self.order = reverse_cuthill_mckee(graph)
        pos = np.empty(n, int)
        pos[self.order] = np.arange(n)
        rows = pos[np.repeat(np.arange(n), np.diff(indptr))]
        cols = pos[indices]
        # initial=0: a pattern with no stored entries has kl = ku = 0
        self.kl = int(np.max(rows - cols, initial=0))
        self.ku = int(np.max(cols - rows, initial=0))
        self.ldab = 2 * self.kl + self.ku + 1
        self.slots = self.kl + self.ku + rows - cols + self.ldab * cols


def _factor(jac, rank1):
    """Solve b -> (A + U S W^T)^{-1} b for the sparse part A and the rank-1
    terms  scale * outer(u, w),  by the Woodbury identity on one LU factor
    of A (Hager, SIAM Review 31, 1989):

        y = A^{-1} b,  Z = A^{-1} U,  C = I_k + S W^T Z,
        x = y - Z C^{-1} S W^T y.

    With no rank-1 terms this is the plain LU solve.  A singular A or C
    raises ``RuntimeError`` or ``LinAlgError``, as does a non-finite x.

    A (CSR) is factored by LAPACK's banded LU with partial pivoting
    (``dgbtrf``/``dgbtrs``) in the reverse Cuthill-McKee order of its
    pattern, which narrows the band (``kl`` 80 / 53 / 38 at 375 / 192 /
    108 dofs, against 95 / 65 / 41 in the generated numbering).  The
    layout is the ``band`` that a matrix made on a fixed pattern carries
    (``CsrPattern.matrix``); any other matrix gets one from its own CSR
    arrays here.  ``info > 0`` (an exactly zero pivot) raises.
    """
    n = jac.shape[0]
    band = getattr(jac, "band", None) \
        or BandLayout(jac.indptr, jac.indices, n)
    ab = np.bincount(band.slots, jac.data, minlength=band.ldab * n)
    lu, piv, info = lapack.dgbtrf(ab.reshape(band.ldab, n, order="F"),
                                  band.kl, band.ku, overwrite_ab=True)
    if info > 0:
        raise RuntimeError("Factor is exactly singular")
    order = band.order

    def lu_solve(b):
        x = np.empty(np.shape(b))
        x[order] = lapack.dgbtrs(lu, band.kl, band.ku, b[order], piv)[0]
        return x

    if rank1:
        u = np.column_stack([t.u for t in rank1])
        w = np.column_stack([t.w for t in rank1])
        s = np.array([t.scale for t in rank1])
        z = lu_solve(u)
        cap = np.eye(len(rank1)) + s[:, None] * (w.T @ z)

    def solve(b):
        x = lu_solve(b)
        if rank1:
            x = x - z @ np.linalg.solve(cap, s * (w.T @ x))
        if not np.all(np.isfinite(x)):
            raise np.linalg.LinAlgError("singular Jacobian")
        return x

    return solve


def damped_newton(problem, v0, cfg: SolverConfig | None = None, guess=None):
    """Damped Newton with residual backtracking; the residual is always exact.

    With a ``guess`` (a predicted root, such as the extrapolation
    2v - v_prev of a step), the solve starts from whichever of ``v0`` and
    ``guess`` has the smaller finite residual norm, ``v0`` on a tie, and
    ``report.start`` says which.  That costs one residual; the chosen
    start's residual is the solve's first, so the relative tolerance is
    taken from it.

    Each iteration assembles the exact Jacobian once, ``problem.jacobian``'s
    sparse part plus its rank-1 volume terms.  ``cfg.kind == "direct"``
    factors it and solves (``_factor``); ``"iterative"`` factors only the
    first iteration's Jacobian and runs BiCGSTAB with residual-ratio forcing
    on the assembled product, right-preconditioned by that factor.  When the
    factor fails or BiCGSTAB does not converge (breakdown included), the
    step is along -r.
    """
    cfg = cfg or SolverConfig()
    report = SolveReport()
    norms = report.residual_norms
    v = np.asarray(v0, float).copy()
    r = np.asarray(problem.residual(v), float)
    if guess is not None:
        g = np.asarray(guess, float).copy()
        r_g = np.asarray(problem.residual(g), float)
        if _finite_norm(r_g) < _finite_norm(r):
            v, r, report.start = g, r_g, "extrapolated"
    if not np.all(np.isfinite(r)):
        raise SolveFailure(report, "NonFiniteResidual",
                           "the residual at the start iterate is not finite")
    abs_tol = cfg.r_tol_abs if cfg.r_tol_abs is not None \
        else problem.default_abs_tol()
    r0_inf = float(np.max(np.abs(r))) if r.size else 0.0
    report.tol = max(abs_tol, cfg.r_tol_rel * r0_inf)
    v_prev = precond = None
    for k in range(cfg.k_max + 1):
        report.iterations = k
        r_norm = _norm(r)
        norms.append(r_norm)
        r_inf = float(np.max(np.abs(r))) if r.size else 0.0
        report.residual_inf_norms.append(r_inf)
        report.stop = should_stop(r_inf, v, v_prev, report.tol,
                                  cfg.v_tol) or ""
        if report.stop:
            return v, report
        if k == cfg.k_max:
            break
        on_fail = "LineSearchFailed", "line search underflow (alpha < 1e-12)"
        jac, rank1 = problem.jacobian(v)
        if cfg.kind == "direct":
            sigma_k = 0.0
            try:
                p = _factor(jac, rank1)(-r)
            except (RuntimeError, np.linalg.LinAlgError) as exc:
                raise SolveFailure(report, "LinearSolveFailed",
                                   f"LU direction failed ({exc}); "
                                   "try a smaller time step")
            report.linear_iters.append(0)
        else:
            sigma_k = SIGMA if k == 0 or norms[k - 1] == 0.0 \
                else min((r_norm / norms[k - 1]) ** PHI, SIGMA)
            lin_iters, lin_ok = 0, False
            try:
                if k == 0:
                    precond = _factor(jac, rank1)
                if precond is not None:
                    p, lin_iters, lin_ok = bicgstab(
                        lambda x: jac @ x + sum(t.apply(x) for t in rank1),
                        -r, sigma_k, cfg.max_krylov_iters, precond)
            except (RuntimeError, np.linalg.LinAlgError):
                pass
            report.linear_iters.append(lin_iters)
            if not lin_ok or not np.all(np.isfinite(p)):
                # one steepest-descent-like fallback with a fresh line search
                p = -r
                on_fail = ("LinearSolveFailed", "no preconditioned BiCGSTAB "
                           "direction and the -r fallback failed")
        report.sigmas.append(sigma_k)
        hit = _backtrack(problem.residual, v, p, r_norm, sigma_k)
        if hit is None:
            raise SolveFailure(report, *on_fail)
        alpha, v_new, r_new, r_new_norm = hit
        # accepted steps satisfy the sufficient-decrease inequality strictly
        assert r_new_norm <= (1.0 - C1 * alpha * (1.0 - sigma_k)) * r_norm
        report.alphas.append(alpha)
        v_prev = v
        v = v_new
        r = r_new
    raise SolveFailure(report, "MaxIters",
                       f"no convergence in {cfg.k_max} Newton iterations")


def bicgstab(apply_j, b, tol: float, max_iters: int = 200, precond=None):
    """SciPy's BiCGSTAB on J given as the callable ``apply_j(p) = J p``,
    right-preconditioned by the callable ``precond(y) = M^{-1} y`` when one
    is given.

    Returns (x, iterations, converged); ``converged`` says the recurred
    residual fell below tol * |b|, and is False on a breakdown or an
    exhausted budget.  ``iterations`` is ceil(products with J / 2): an
    iteration takes two products, an early exit on |s| one.
    """
    b = np.asarray(b, float)
    n = b.size
    products = 0

    def matvec(p):
        nonlocal products
        products += 1
        return apply_j(p)

    # dtype given, so LinearOperator does not probe each operator on zeros
    a = spla.LinearOperator((n, n), matvec=matvec, dtype=float)
    m = None if precond is None else spla.LinearOperator(
        (n, n), matvec=precond, dtype=float)
    x, info = spla.bicgstab(a, b, rtol=tol, atol=0.0, maxiter=max_iters, M=m)
    return x, (products + 1) // 2, info == 0
