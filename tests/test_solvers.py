import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from fricsim import solvers
from fricsim.experiments import block_slide_scene
from fricsim.forces import Rank1
from fricsim.scene import load_scene, load_scene_file
from fricsim.simulate import Simulation
from fricsim.solvers import (C1, PHI, SIGMA, SolveFailure, SolverConfig,
                             bicgstab, damped_newton, should_stop)

from helpers import BareProblem

SCENES = os.path.join(os.path.dirname(__file__), "..", "scenes")


ITERATIVE = SolverConfig(kind="iterative")


def _linear_spd_problem(n=8, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    a = a @ a.T + n * np.eye(n)
    b = rng.normal(size=n)
    prob = BareProblem(lambda v: a @ v - b if not hasattr(v, "re")
                       else _lin(a, v, b), lambda v: a)
    return prob, a, b


def _lin(a, v, b):
    from fricsim import dual as dm
    return dm.matmul(a, v) - b


def test_newton_linear_one_iteration():
    prob, a, b = _linear_spd_problem()
    v, rep = damped_newton(prob, np.zeros(8))
    np.testing.assert_allclose(v, np.linalg.solve(a, b), rtol=1e-10)
    assert rep.iterations == 1
    assert rep.alphas == [1.0]
    assert rep.status == "Converged"


def test_newton_zero_iterations_at_root():
    prob, a, b = _linear_spd_problem()
    v_star = np.linalg.solve(a, b)
    v, rep = damped_newton(prob, v_star)
    assert rep.iterations == 0
    assert rep.status == "Converged"


def test_newton_nonlinear_smooth():
    # r(v) = v^3 + v - c has one real root per component
    c = np.array([2.0, -5.0, 0.3])
    prob = BareProblem(lambda v: v * v * v + v - c)
    cfg = SolverConfig(r_tol_rel=1e-14, r_tol_abs=1e-13, v_tol=1e-14)
    v, rep = damped_newton(prob, np.zeros(3), cfg)
    np.testing.assert_allclose(v**3 + v, c, rtol=1e-10)


def test_newton_backtracks_on_nonfinite():
    # residual returns inf for v[0] > 1; root at 0.9 approached from 0 with
    # an overshooting first step
    def r(v):
        import numpy as _np
        val = v - 0.9
        bad = _np.asarray(v if not hasattr(v, "re") else v.re) > 1.0
        if hasattr(v, "re"):
            return val
        out = _np.array(val, dtype=float)
        out[bad] = _np.inf
        return out

    prob = BareProblem(r, lambda v: 0.25 * np.eye(1))  # wrong slope -> overshoot
    v, rep = damped_newton(prob, np.array([0.0]))
    assert np.isfinite(v).all()
    assert abs(v[0] - 0.9) < 1e-6
    assert min(rep.alphas) < 1.0  # backtracking actually engaged


def test_inexact_first_sigma_is_default():
    prob, a, b = _linear_spd_problem()
    v, rep = damped_newton(prob, np.zeros(8), ITERATIVE)
    assert rep.sigmas[0] == pytest.approx(0.01)
    # linear problem: after one outer iteration |r1| <= sigma |r0|
    assert rep.residual_norms[1] <= 0.01 * rep.residual_norms[0] * (1 + 1e-9)
    np.testing.assert_allclose(v, np.linalg.solve(a, b), rtol=1e-5)


def test_inexact_forcing_terms_match_log():
    rng = np.random.default_rng(2)
    n = 6
    a = rng.normal(size=(n, n)) + 4 * np.eye(n)

    def resid(v):
        from fricsim import dual as dm
        lin = dm.matmul(a, v)
        return lin + 0.2 * v * v * v - 1.0

    prob = BareProblem(resid)
    v, rep = damped_newton(prob, np.zeros(n),
                           SolverConfig(kind="iterative", r_tol_rel=1e-12))
    assert rep.status == "Converged"
    for k, sig in enumerate(rep.sigmas):
        if k == 0:
            assert sig == pytest.approx(0.01)
        else:
            expect = min((rep.residual_norms[k] / rep.residual_norms[k - 1])
                         ** PHI, 0.01)
            assert sig == pytest.approx(expect, rel=1e-12)
    # every accepted step passes the forcing-term acceptance test
    norms = rep.residual_norms
    for k, (alpha, sig) in enumerate(zip(rep.alphas, rep.sigmas)):
        assert norms[k + 1] <= (1.0 - C1 * alpha * (1.0 - sig)) * norms[k]


def test_inexact_superlinear_tail():
    rng = np.random.default_rng(3)
    n = 10
    a = rng.normal(size=(n, n)) + 5 * np.eye(n)

    def resid(v):
        from fricsim import dual as dm
        return dm.matmul(a, v) + 0.5 * v * v - 2.0

    prob = BareProblem(resid)
    v, rep = damped_newton(prob, np.zeros(n),
                           SolverConfig(kind="iterative", r_tol_rel=1e-13,
                                        r_tol_abs=1e-13))
    norms = rep.residual_norms
    ratios = [norms[i + 1] / norms[i] for i in range(len(norms) - 2)]
    if len(ratios) >= 3:
        assert ratios[-1] <= ratios[-2] <= ratios[-3] * (1 + 1e-9)


def test_inexact_strict_decrease():
    prob, a, b = _linear_spd_problem(seed=5)
    v, rep = damped_newton(prob, np.zeros(8), ITERATIVE)
    norms = rep.residual_norms
    assert all(norms[i + 1] < norms[i] for i in range(len(norms) - 1))


def test_direct_and_inexact_agree():
    rng = np.random.default_rng(4)
    n = 12
    a = rng.normal(size=(n, n)) + 6 * np.eye(n)

    def resid(v):
        from fricsim import dual as dm
        return dm.matmul(a, v) + 0.1 * v * v * v - 3.0

    cfg = dict(r_tol_rel=1e-10, r_tol_abs=1e-12)
    v1, _ = damped_newton(BareProblem(resid), np.zeros(n),
                          SolverConfig(kind="direct", **cfg))
    v2, _ = damped_newton(BareProblem(resid), np.zeros(n),
                          SolverConfig(kind="iterative", **cfg))
    assert np.max(np.abs(v1 - v2)) <= 10 * 1e-10 * max(1.0, np.max(np.abs(v1)))


def test_determinism():
    prob, _, _ = _linear_spd_problem(seed=7)
    v1, r1 = damped_newton(prob, np.zeros(8), ITERATIVE)
    v2, r2 = damped_newton(prob, np.zeros(8), ITERATIVE)
    assert np.array_equal(v1, v2)
    assert r1.residual_norms == r2.residual_norms
    assert r1.sigmas == r2.sigmas
    assert r1.linear_iters == r2.linear_iters


def test_should_stop_cases():
    cfg = SolverConfig(r_tol_abs=1e-8, r_tol_rel=1e-6, v_tol=1e-5)
    tol = max(cfg.r_tol_abs, cfg.r_tol_rel * 1.0)  # |r0|_inf = 1
    assert should_stop(0.0, np.zeros(3), None, tol, cfg.v_tol) == "residual"
    big_r = 1e-5
    assert should_stop(big_r, np.ones(3), np.zeros(3), tol, cfg.v_tol) is None
    # velocity stagnation exits even with a large residual
    v = np.ones(3)
    assert should_stop(big_r, v, v + 1e-7, tol, cfg.v_tol) == "step"


def test_bicgstab_identity():
    b = np.array([1.0, -2.0, 3.0])
    x, iters, ok = bicgstab(lambda p: p, b, tol=1e-12)
    assert ok and iters == 1
    np.testing.assert_allclose(x, b, rtol=1e-12)


def test_bicgstab_2x2_nonsymmetric():
    a = np.array([[2.0, 1.0], [0.0, 3.0]])
    b = np.array([1.0, 1.0])
    x, iters, ok = bicgstab(lambda p: a @ p, b, tol=1e-12)
    assert ok and iters == 1
    np.testing.assert_allclose(x, [1.0 / 3.0, 1.0 / 3.0], rtol=1e-10)


def test_bicgstab_random_diag_dominant():
    rng = np.random.default_rng(8)
    n = 50
    a = rng.normal(size=(n, n))
    a += np.diag(np.abs(a).sum(axis=1) + 1.0)
    b = rng.normal(size=n)
    x, iters, ok = bicgstab(lambda p: a @ p, b, tol=1e-9, max_iters=500)
    assert ok and iters == 7
    assert np.linalg.norm(b - a @ x) <= 1e-9 * np.linalg.norm(b) * (1 + 1e-9)


def test_bicgstab_breakdown_does_not_converge():
    # the shadow residual is b = e1 and A e1 = e2, so the first iteration's
    # denominator e1 . A p is 0 after one product
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    b = np.array([1.0, 0.0])
    x, iters, ok = bicgstab(lambda p: a @ p, b, tol=1e-12)
    assert not ok and iters == 1
    assert np.all(np.isfinite(x))


def test_newton_max_iters_failure():
    # iteration budget too small for the curvature
    prob = BareProblem(lambda v: v * v * v + v - 100.0)
    with pytest.raises(SolveFailure) as exc:
        damped_newton(prob, np.array([0.0]),
                      SolverConfig(k_max=1, r_tol_rel=1e-14, v_tol=1e-14))
    assert exc.value.report.status == "MaxIters"
    assert exc.value.report.stop == "MaxIters"


@pytest.mark.parametrize("kind", ["direct", "iterative"])
def test_report_residual_stop(kind):
    prob, a, b = _linear_spd_problem()
    cfg = SolverConfig(kind=kind, r_tol_abs=1e-12, r_tol_rel=1e-9)
    v, rep = damped_newton(prob, np.zeros(8), cfg)
    assert rep.stop == "residual"
    assert rep.tol == max(1e-12, 1e-9 * rep.residual_inf_norms[0])
    assert rep.residual_inf_norms[-1] <= rep.tol


def test_report_step_stop_above_tolerance():
    # r = v^2 has a double root: Newton halves v, so |dv| = 5e-4 <= v_tol
    # after one step while |r|_inf = 2.5e-7 is far above the tolerance.
    prob = BareProblem(lambda v: v * v, lambda v: np.diag(2.0 * v))
    cfg = SolverConfig(r_tol_abs=1e-12, r_tol_rel=1e-6, v_tol=1e-3)
    v, rep = damped_newton(prob, np.array([1e-3]), cfg)
    assert rep.iterations == 1 and rep.status == "Converged"
    assert rep.stop == "step"
    assert rep.tol == 1e-12
    assert rep.residual_inf_norms[-1] > 1e4 * rep.tol


def test_report_failure_stop():
    prob = BareProblem(lambda v: v * v + 1.0, lambda v: np.zeros((1, 1)))
    with pytest.raises(SolveFailure) as exc:
        damped_newton(prob, np.array([1.0]))
    assert exc.value.report.stop == "LinearSolveFailed"
    assert exc.value.report.status == "LinearSolveFailed"


@pytest.mark.parametrize("kind, krylov", [("direct", 0), ("iterative", 1)])
def test_line_search_underflow_fails_with_its_report(kind, krylov):
    # J = -I for r = v: the exact direction is an ascent one, so every
    # trial grows |r| until alpha underflows
    prob = BareProblem(lambda v: v, jac_fn=lambda v: -np.eye(len(v)))
    with pytest.raises(SolveFailure,
                       match=r"^line search underflow \(alpha < 1e-12\)$") \
            as exc:
        damped_newton(prob, np.array([1.0, -2.0]), SolverConfig(kind=kind))
    rep = exc.value.report
    assert rep.status == rep.stop == "LineSearchFailed"
    assert rep.iterations == 0 and rep.alphas == []
    assert rep.residual_norms == [np.sqrt(5.0)]
    assert rep.linear_iters == [krylov]


@pytest.mark.parametrize("kind", ["direct", "iterative"])
def test_non_finite_start_residual_fails_before_assembly(kind):
    # r(v) = log(v) - 1 is NaN at v0 = -1: the solve stops there with its
    # own status instead of factoring a Jacobian at that start, also when
    # a guess's residual is not finite either (NaN at -2, inf at inf)
    def jacobian(v):
        raise AssertionError("assembled at a non-finite start")

    prob = BareProblem(lambda v: np.log(v) - 1.0, jacobian)
    for guess in (None, np.array([-2.0]), np.array([np.inf])):
        with np.errstate(invalid="ignore"), \
                pytest.raises(SolveFailure) as exc:
            damped_newton(prob, np.array([-1.0]), SolverConfig(kind=kind),
                          guess=guess)
        assert exc.value.report.status == "NonFiniteResidual"
        assert exc.value.report.stop == "NonFiniteResidual"
        assert "not finite" in str(exc.value)


@pytest.mark.parametrize("v0, guess, start", [
    (1.0, -1.0, "v"),              # the guess's residual is NaN
    (1.0, np.inf, "v"),            # ... or inf
    (1.0, 0.5, "v"),               # |r| 1.69 at the guess against 1 at v0
    (1.0, 1.0, "v"),               # a tie keeps v0
    (1.0, 3.0, "extrapolated"),    # |r| 0.0986 at the guess
    (-1.0, 2.0, "extrapolated"),   # v0's residual is NaN, the guess's not
])
def test_guess_starts_only_with_the_smaller_finite_residual(v0, guess, start):
    # r(v) = log(v) - 1, root e; the chosen start's residual is the solve's
    # first, and a guess costs exactly one residual more
    calls = []

    def residual(v):
        calls.append(v)
        return np.log(v) - 1.0

    prob = BareProblem(residual, lambda v: np.diag(1.0 / v))
    with np.errstate(invalid="ignore", divide="ignore"):
        v, rep = damped_newton(prob, np.array([v0]),
                               guess=np.array([guess]))
    assert rep.start == start and rep.status == "Converged"
    np.testing.assert_allclose(v, [np.e], rtol=1e-6)
    first = v0 if start == "v" else guess
    assert rep.residual_norms[0] == abs(np.log(first) - 1.0)
    assert rep.tol == max(1e-14, 1e-6 * rep.residual_inf_norms[0])
    with_guess = len(calls)
    calls.clear()
    with np.errstate(invalid="ignore"):
        _, plain = damped_newton(prob, np.array([first]))
    assert plain.start == "v"
    assert plain.residual_norms == rep.residual_norms
    assert with_guess == len(calls) + 1


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="kind"):
        SolverConfig(kind="bogus")


def test_direct_singular_jacobian_fails():
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 0.0])
    prob = BareProblem(lambda v: a @ v - b, lambda v: a)
    # the singular factor raises when it is made; it does not warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match="singular"):
            solvers._factor(sp.csr_matrix(a), [])
        with pytest.raises(SolveFailure) as exc:
            damped_newton(prob, np.zeros(2))
    assert exc.value.report.status == "LinearSolveFailed"


def _tridiagonal_without_column(n=6, col=2):
    a = 4.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)
    a[:, col] = 0.0
    return a


@pytest.mark.parametrize("a, band", [
    # a zero column inside the band: an exactly zero pivot (the ordering
    # starts at that column's vertex, the one of least degree, so the
    # reordered band is 2 wide)
    (_tridiagonal_without_column(), 2),
    # 1 x 1 with no stored entry: kl = ku = 0, an empty band
    (np.zeros((1, 1)), 0),
], ids=["tridiagonal", "empty"])
def test_exactly_singular_band_fails(a, band):
    csr = sp.csr_matrix(a)
    layout = solvers.BandLayout(csr.indptr, csr.indices, len(a))
    assert max(layout.kl, layout.ku) == band
    with pytest.raises(RuntimeError, match="exactly singular"):
        solvers._factor(csr, [])
    b = np.ones(len(a))
    with pytest.raises(SolveFailure) as exc:
        damped_newton(BareProblem(lambda v: _lin(a, v, b), lambda v: a),
                      np.zeros(len(a)))
    assert exc.value.report.status == "LinearSolveFailed"


class _SplitColumn(BareProblem):
    """J = A given as A with its first column zeroed, a singular sparse part
    whose LU factor fails, plus that column as a rank-1 term."""

    def __init__(self, a, b):
        super().__init__(lambda v: _lin(a, v, b))
        self.a = a

    def jacobian(self, v):
        sparse = self.a.copy()
        sparse[:, 0] = 0.0
        e0 = np.eye(len(self.a))[0]
        return sp.csr_matrix(sparse), [Rank1(1.0, self.a[:, 0].copy(), e0)]


def _skew_shifted(sign):
    """r(v) = A v - b with A = sign (3 I + N - N^T): -r descends for sign = 1
    and ascends for sign = -1.  The preconditioner's factor fails."""
    n = 4
    skew = np.triu(np.full((n, n), 0.25), 1)
    a = sign * (3.0 * np.eye(n) + skew - skew.T)
    b = np.arange(1.0, n + 1.0)
    return _SplitColumn(a, b), a, b


def test_iterative_falls_back_to_minus_r():
    prob, a, b = _skew_shifted(1.0)
    cfg = SolverConfig(kind="iterative", r_tol_rel=1e-10, v_tol=1e-14)
    v, rep = damped_newton(prob, np.zeros(4), cfg)
    assert rep.status == "Converged"
    # no factor, so no BiCGSTAB iteration: every step is along -r
    assert set(rep.linear_iters) == {0} and max(rep.alphas) < 1.0
    np.testing.assert_allclose(v, np.linalg.solve(a, b), rtol=1e-8)


def test_iterative_krylov_breakdown_steps_along_minus_r(monkeypatch):
    # the factor succeeds, so BiCGSTAB runs, and it reports a breakdown
    n = 4
    skew = np.triu(np.full((n, n), 0.25), 1)
    a = 3.0 * np.eye(n) + skew - skew.T
    b = np.arange(1.0, n + 1.0)
    trials = []

    def residual(v):
        if not hasattr(v, "re"):
            trials.append(np.array(v, float))
        return _lin(a, v, b)

    tols = []

    def broken(apply_j, rhs, tol, max_iters=200, precond=None):
        tols.append(tol)
        return np.zeros_like(rhs), 1, False

    monkeypatch.setattr(solvers, "bicgstab", broken)
    cfg = SolverConfig(kind="iterative", r_tol_rel=1e-10, v_tol=1e-14)
    v, rep = damped_newton(BareProblem(residual, lambda v: a), np.zeros(n),
                           cfg)
    assert rep.status == "Converged"
    # the first trial of the line search is v0 + p with p = -r(v0) = b
    np.testing.assert_array_equal(trials[1], b)
    assert tols == rep.sigmas and tols[0] == SIGMA
    assert rep.linear_iters == [1] * rep.iterations
    np.testing.assert_allclose(v, np.linalg.solve(a, b), rtol=1e-8)


def test_iterative_fallback_ascent_fails():
    prob, _, _ = _skew_shifted(-1.0)
    with pytest.raises(SolveFailure, match="-r fallback") as exc:
        damped_newton(prob, np.zeros(4), ITERATIVE)
    assert exc.value.report.status == "LinearSolveFailed"


class _DirectionFound(Exception):
    pass


def _first_stage(scene):
    """The stage problem and start guess of a scene's first solve."""
    sim = Simulation(scene)
    seen = []
    solve = sim._solve

    def spy(problem, v0, guess=None):
        seen.append((problem, v0))
        return solve(problem, v0, guess)

    sim._solve = spy
    sim.advance()
    return seen[0]


def _first_direction(problem, v0, monkeypatch, cfg=None):
    """The first Newton direction of ``damped_newton`` under ``cfg`` (default:
    the direct path), taken at the line search."""
    def stop(residual_fn, v, p, r_norm, sigma_k):
        raise _DirectionFound(p)

    monkeypatch.setattr(solvers, "_backtrack", stop)
    with pytest.raises(_DirectionFound) as found:
        damped_newton(problem, v0, cfg)
    return found.value.args[0]


def _cube(name, x, model, kappa_v_atm):
    return {"name": name,
            "generator": {"kind": "box", "size": [0.1, 0.1, 0.1],
                          "divisions": [2, 2, 2]},
            "material": {"density": 800.0, "youngs_modulus": 2e5,
                         "poisson_ratio": 0.3},
            "translate": [x, 0.0505, 0.0],
            "volume_region": {"model": model, "kappa_v_atm": kappa_v_atm}}


def _squeezed_ball_drop(factor=0.98):
    scene = load_scene_file(os.path.join(SCENES, "ball_drop.json"))
    x = scene.initial_q.reshape(-1, 3)
    c = x.mean(axis=0)
    scene.initial_q[:] = ((x - c) * factor + c).ravel()
    return scene


def _two_cubes():
    return load_scene(json.dumps({
        "duration": 0.05, "step": 0.005, "integrator": "bdf2",
        "meshes": [_cube("a", 0.0, "quadratic", 1.0),
                   _cube("b", 0.3, "ideal_gas", 2.0)],
        "obstacles": [{"kind": "half_space", "point": [0, 0, 0],
                       "normal": [0, 1, 0], "friction": {"mu_d": 0.4}}]}))


@pytest.mark.parametrize("make_scene,k", [(_squeezed_ball_drop, 1),
                                          (_two_cubes, 2)])
def test_direct_direction_is_exact_newton(make_scene, k, monkeypatch):
    # J p = -r with J the full Jacobian, rank-1 volume terms included
    problem, v0 = _first_stage(make_scene())
    assert len(problem.jacobian(v0)[1]) == k
    r = np.asarray(problem.residual(v0), float)
    p = _first_direction(problem, v0, monkeypatch)
    err = np.max(np.abs(problem.jvp(v0, p) + r)) / np.max(np.abs(r))
    assert err <= 1e-10


class _SingularCapacitance(BareProblem):
    """J = I - e1 e1^T: the LU factor of I is fine, but C = 1 - 1 = 0."""

    def jacobian(self, v):
        n = np.size(v)
        e1 = np.eye(n)[0]
        return sp.eye(n, format="csr"), [Rank1(-1.0, e1, e1)]


def test_direct_singular_capacitance_fails():
    b = np.array([1.0, 2.0])
    prob = _SingularCapacitance(lambda v: v - b)
    with pytest.raises(SolveFailure) as exc:
        damped_newton(prob, np.zeros(2))
    assert exc.value.report.status == "LinearSolveFailed"


def _plate_squeeze():
    return load_scene_file(os.path.join(SCENES, "plate_squeeze.json"))


def _band(jac):
    """The largest |i - j| over the stored entries of a square matrix."""
    coo = jac.tocoo()
    return int(np.max(np.abs(coo.row - coo.col), initial=0))


# (scene, dofs, rank-1 terms, band of the generated numbering)
STAGES = [(_plate_squeeze, 192, 0, 65), (_squeezed_ball_drop, 375, 1, 95)]


@pytest.mark.parametrize("make_scene, n, k, natural", STAGES,
                         ids=["plate_squeeze", "ball_drop"])
def test_factor_matches_dense_solve(make_scene, n, k, natural):
    # the banded Woodbury solve against numpy's dense solve of J + U S W^T
    problem, v0 = _first_stage(make_scene())
    jac, rank1 = problem.jacobian(v0)
    assert jac.shape[0] == n and len(rank1) == k
    dense = jac.toarray() + sum(t.scale * np.outer(t.u, t.w) for t in rank1)
    r = np.asarray(problem.residual(v0), float)
    x = solvers._factor(jac, rank1)(r)
    ref = np.linalg.solve(dense, r)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


def test_factor_on_a_structurally_non_symmetric_pattern():
    # two sub- and one superdiagonal in a shuffled numbering, as a
    # BareProblem hands it over: the layout is made at the call, from
    # reverse Cuthill-McKee on A + A^T, and keeps kl != ku
    rng = np.random.default_rng(3)
    n = 40
    a = 4.0 * np.eye(n) + sum(rng.normal(size=(n, n)) * np.eye(n, k=k)
                              for k in (-2, -1, 1))
    shuffle = rng.permutation(n)
    a = a[shuffle][:, shuffle]
    b = rng.normal(size=n)
    csr = sp.csr_matrix(a)
    layout = solvers.BandLayout(csr.indptr, csr.indices, n)
    assert layout.kl != layout.ku and max(layout.kl, layout.ku) <= 4
    ref = np.linalg.solve(a, b)
    x = solvers._factor(csr, [])(b)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
    v, rep = damped_newton(BareProblem(lambda v: _lin(a, v, b), lambda v: a),
                           np.zeros(n))
    assert rep.status == "Converged" and rep.iterations == 1
    np.testing.assert_allclose(v, ref, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("make_scene, n, k, natural", STAGES,
                         ids=["plate_squeeze", "ball_drop"])
def test_ordering_narrows_any_vertex_numbering(make_scene, n, k, natural):
    # relabelling the vertices at random widens the band to about the
    # whole matrix; reverse Cuthill-McKee brings it back within the
    # generated numbering's band, and the pattern's own layout is as narrow
    problem, v0 = _first_stage(make_scene())
    jac, _ = problem.jacobian(v0)
    assert _band(jac) == natural and jac.band.kl <= natural
    for seed in range(5):
        verts = np.random.default_rng(seed).permutation(n // 3)
        dofs = (3 * verts[:, None] + np.arange(3)).ravel()
        shuffled = jac[dofs][:, dofs]
        assert _band(shuffled) > 2 * natural
        layout = solvers.BandLayout(shuffled.indptr, shuffled.indices, n)
        assert layout.kl <= natural and layout.ku <= natural


def test_ordering_runs_once_per_model(monkeypatch):
    # the order is a property of the model's fixed pattern, not of a factor
    calls = []
    rcm = solvers.reverse_cuthill_mckee

    def counted(graph, *args, **kwargs):
        calls.append(graph.shape)
        return rcm(graph, *args, **kwargs)

    monkeypatch.setattr(solvers, "reverse_cuthill_mckee", counted)
    for make_scene in (_plate_squeeze, _squeezed_ball_drop):
        calls.clear()
        sim = Simulation(make_scene())
        for _ in range(20):
            sim.advance()
        assert calls == [(sim.model.mesh.n_dofs,) * 2]


_FACTOR_BITS = """
import hashlib, json, sys
from fricsim import solvers
from fricsim.integrators import StageProblem
from fricsim.scene import load_scene_file
from fricsim.simulate import Simulation

sim = Simulation(load_scene_file(sys.argv[1]))
for _ in range(40):
    sim.advance()
st, h = sim.state, sim.h
prob = StageProblem(model=sim.model,
                    contact=sim.model.build_contact_state(st.q, st.v, st.t, h),
                    v_lin=st.v, q_ref=st.q, c=h, t_eval=st.t + h, h=h)
jac, rank1 = prob.jacobian(st.v)
x = solvers._factor(jac, rank1)(prob.residual(st.v))
print(jac.shape[0], hashlib.sha256(x.tobytes()).hexdigest())
"""


def test_factor_bits_do_not_depend_on_the_blas_thread_count():
    # one ~375-dof stage Jacobian factored in processes with 1 and 2 BLAS
    # threads gives the same bits
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    path = os.pathsep.join([src] + [p for p in [os.environ.get(
        "PYTHONPATH")] if p])
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        outs.append(subprocess.run(
            [sys.executable, "-c", _FACTOR_BITS,
             os.path.join(SCENES, "ball_drop.json")],
            env=env, capture_output=True, text=True, check=True).stdout)
    assert outs[0].startswith("375 ") and outs[0] == outs[1]


def test_iterative_first_direction_matches_direct(monkeypatch):
    # the preconditioner is the direct path's Woodbury solve of the same J,
    # so BiCGSTAB's first direction is the exact Newton direction
    problem, v0 = _first_stage(_squeezed_ball_drop())
    assert len(problem.jacobian(v0)[1]) == 1
    p_direct = _first_direction(problem, v0, monkeypatch)
    p_iter = _first_direction(problem, v0, monkeypatch, ITERATIVE)
    err = np.linalg.norm(p_iter - p_direct) / np.linalg.norm(p_direct)
    assert err <= SIGMA


def test_iterative_factors_once_per_solve(monkeypatch):
    # r(v) = v^3 + v - c: the Jacobian changes every iteration, yet only the
    # first one is factored
    c = np.array([2.0, -5.0, 0.3])
    prob = BareProblem(lambda v: v * v * v + v - c)
    calls = []
    factor = solvers._factor

    def counting(jac, rank1):
        calls.append(jac.shape)
        return factor(jac, rank1)

    monkeypatch.setattr(solvers, "_factor", counting)
    cfg = SolverConfig(kind="iterative", r_tol_rel=1e-14, r_tol_abs=1e-13,
                       v_tol=1e-14)
    v, rep = damped_newton(prob, np.zeros(3), cfg)
    assert rep.status == "Converged" and rep.iterations >= 4
    assert len(calls) == 1
    np.testing.assert_allclose(v**3 + v, c, rtol=1e-10)


def test_slide_krylov_iterations_stay_small():
    scene = load_scene(json.dumps(block_slide_scene(
        0.01, "be", "lagged:4", solver_kind="iterative")), SCENES)
    sim = Simulation(scene)
    iters = [n for _ in range(30) for rep in sim.advance().reports
             for n in rep.linear_iters]
    assert iters and max(iters) <= 10
