"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Tolerances are pinned
here and nowhere else.  Criterion 4's lagged half is a known honest failure
(see the grasp fixture's docstring): on flat rigid plates the lagged
formulation reduces to a time-shifted load schedule and cannot produce the
hold/lose dichotomy; the fixture still demonstrates the directional effect.
"""

import json
import os

import numpy as np

from fricsim.experiments import (run_ball_drop, run_block_slide_variant,
                                 run_plate_squeeze)
from fricsim.friction import (FrictionParams, friction_magnitude_c, smooth_s,
                              stribeck_g)
from fricsim.integrators import StageProblem, make_scheme
from fricsim.mesh import MaterialParams, SystemState, TetMeshModel
from fricsim.meshgen import box_grid
from fricsim.scene import load_scene, load_scene_file
from fricsim.simulate import Simulation, StepFailure, run_simulation
from fricsim.solvers import PHI, SolverConfig, damped_newton
from fricsim.volume import VolumePenaltyParams, volume_energy

from helpers import split_jacobians, term_forces, term_jacobians

SCENES = os.path.join(os.path.dirname(__file__), "..", "scenes")
X_REF, T_REF = 0.769, 15.38


def _report(num, ok, detail):
    marker = "PASS" if ok else "FAIL"
    print(f"[{marker}] criterion {num}: {detail}")
    return ok


# -- 1: block-slide quantitative reproduction ---------------------------------
def test_criterion_1_block_slide_accuracy():
    tol = {0.01: (0.02, 0.05), 0.005: (0.01, 0.03)}
    ok = True
    details = []
    for h, (dist_tol, time_tol) in tol.items():
        r = run_block_slide_variant("be", "implicit", h, duration=20.0)
        ed = abs(r.distance - X_REF) / X_REF
        et = abs(r.stop_time - T_REF) / T_REF
        details.append(f"h={h}: dist {r.distance:.4f} ({100 * ed:.2f}%), "
                       f"time {r.stop_time:.3f} ({100 * et:.2f}%)")
        ok = ok and r.stopped and ed <= dist_tol and et <= time_tol
    assert _report(1, ok, "; ".join(details))


# -- 2: lagged-friction non-convergence ----------------------------------------
def test_criterion_2_lagged_nonconvergence():
    h = 0.1
    impl = run_block_slide_variant("be", "implicit", h, duration=40.0)
    lag1 = run_block_slide_variant("be", "lagged:1", h, duration=40.0)
    lag4 = run_block_slide_variant("be", "lagged:4", h, duration=40.0)
    e_impl = abs(impl.distance_error)
    e1 = abs(lag1.distance_error) if not lag1.failure else np.inf
    e4 = abs(lag4.distance_error) if not lag4.failure else np.inf
    ok = (e1 > e_impl) and (e4 >= e_impl)
    assert _report(
        2, ok,
        f"h=0.1 distance errors: implicit {100 * e_impl:.3f}%, "
        f"lagged:1 {100 * e1:.1f}%, lagged:4 {100 * e4:.4f}% "
        "(iterations do not bring lagged below implicit)")


# -- 3: correct-TR stability vs mis-split TR -----------------------------------
def test_criterion_3_tr_stability():
    scene = load_scene_file(os.path.join(SCENES, "ball_in_box.json"))
    records, _, _ = run_simulation(scene)  # 200 steps at h=0.01
    energies = np.array([r.total_energy for r in records])
    e0 = energies[0]
    coupled_bounded = bool(np.all(energies <= e0 + 1e-9 * abs(e0)))

    with open(os.path.join(SCENES, "ball_in_box.json")) as fh:
        doc = json.load(fh)
    doc["integrator"] = "tr_missplit"
    mis = load_scene(json.dumps(doc), base_dir=SCENES)
    diverged = False
    peak_ratio = 0.0
    try:
        mrecords, _, _ = run_simulation(mis)
        menergy = np.array([r.total_energy for r in mrecords])
        if not np.all(np.isfinite(menergy)):
            diverged = True
        elif e0 > 0:
            peak_ratio = float(menergy.max() / e0)
    except StepFailure:
        diverged = True
    ok = coupled_bounded and (diverged or peak_ratio >= 10.0)
    assert _report(
        3, ok,
        f"coupled TR bounded by E0 over 200 steps: {coupled_bounded}; "
        f"mis-split TR {'diverged' if diverged else f'peak {peak_ratio:.1f}x'}")


# -- 4: sticking stability (grasp) ---------------------------------------------
STEPS_4 = (0.005, 0.0025, 0.00125)


def test_criterion_4_implicit_grasp_holds():
    drops = {}
    for h in STEPS_4:
        drop, _ = run_plate_squeeze(h, "implicit")
        drops[h] = drop
    ok = all(np.isfinite(d) and d < 1e-3 for d in drops.values())
    assert _report(4, ok, "implicit drops " + ", ".join(
        f"h={h}: {1000 * d:.3f} mm" for h, d in drops.items())
        + " (all < 1 mm)")


def test_criterion_4_lagged_grasp_slips():
    """Known honest failure: flat rigid plates cannot reproduce the lagged
    slip dichotomy under this spec's lag semantics (see decisions ledger);
    the measured lagged drop exceeds implicit but stays ~mm-scale."""
    drops = {}
    for h in STEPS_4:
        drop, _ = run_plate_squeeze(h, "lagged:1")
        drops[h] = drop
    ok = any((not np.isfinite(d)) or d > 10e-3 for d in drops.values())
    assert _report(4, ok, "lagged drops " + ", ".join(
        f"h={h}: {1000 * d:.3f} mm" for h, d in drops.items())
        + " (need > 10 mm at one step size)")


# -- 5: volume-penalty Taylor property ------------------------------------------
def test_criterion_5_volume_taylor():
    mesh = TetMeshModel(*box_grid((1.0, 1.0, 1.0), (1, 1, 1)),
                        MaterialParams(1000.0, 1e6, 0.3))
    region = mesh.surface_tris
    v0 = 1.0
    models = {}
    for model in ("ideal_gas", "nearly_incompressible"):
        pq = VolumePenaltyParams(region=region, model="quadratic",
                                 kappa_v_atm=1.0, rest_volume=v0)
        pe = VolumePenaltyParams(region=region, model=model,
                                 kappa_v_atm=1.0, rest_volume=v0)
        ratios = []
        for sign in (+1, -1):
            dv = 0.02 * v0 * sign
            e1 = abs(volume_energy(v0 + dv, pe) - volume_energy(v0 + dv, pq))
            e2 = abs(volume_energy(v0 + dv / 2, pe)
                     - volume_energy(v0 + dv / 2, pq))
            ratios.append(e1 / e2)
        models[model] = ratios
    ok = all(7.0 <= r <= 9.0 for rs in models.values() for r in rs)
    assert _report(5, ok, "halving ratios " + ", ".join(
        f"{m}: {rs[0]:.2f}/{rs[1]:.2f}" for m, rs in models.items()))


# -- 6: derivative-consistency suite --------------------------------------------
def test_criterion_6_derivative_consistency():
    import time
    from test_forces_consistency import apply_full, make_fixture, rel_err

    t0 = time.time()
    trials = 0
    worst_fd = 0.0
    worst_jvp = 0.0
    # each term's kernel Jacobian against its kernel force, and the model's
    # assembled Jacobian against its total force
    names = ("elastic", "damping", "contact", "friction", "volume", "total")
    for seed in range(16):
        mode = ("implicit", "lagged")[seed % 2]
        model, q, v, contact, rng = make_fixture(seed, friction_mode=mode)
        hq = 1e-7

        def forces(qq, vv):
            out = term_forces(model, qq, vv, 0.0, contact)
            out["total"] = model.force(qq, vv, 0.0, contact)
            return out

        jacs = term_jacobians(model, q, v, 0.0, contact)
        dfdq, dfdv, rank1 = split_jacobians(model, q, v, 0.0, contact)
        jacs["total"] = (dfdq.toarray() + sum(r.scale * np.outer(r.u, r.w)
                                              for r in rank1), dfdv)
        for name in names:
            dq, dv = jacs[name]
            for _ in range(4):
                p = rng.normal(size=q.size)
                if not (mode == "lagged" and name == "friction"):
                    fd = (forces(q + hq * p, v)[name]
                          - forces(q - hq * p, v)[name]) / (2 * hq)
                    err = rel_err(dq @ p, fd)
                    worst_fd = max(worst_fd, err)
                    assert err <= 1e-4, (name, seed, err)
                    trials += 1
                fdv = (forces(q, v + hq * p)[name]
                       - forces(q, v - hq * p)[name]) / (2 * hq)
                errv = rel_err(dv @ p, fdv)
                worst_fd = max(worst_fd, errv)
                assert errv <= 1e-4, (name, seed, errv)
                trials += 1
        # assembled stage Jacobian vs dual JVP
        h = 0.004
        for scheme_name in ("be", "tr"):
            prob = StageProblem(
                model=model, contact=contact, v_lin=v, q_ref=q,
                c=h if scheme_name == "be" else 0.5 * h, t_eval=h, h=h)
            v_eval = v + 1e-3 * rng.normal(size=v.size)
            jac, rank1 = prob.jacobian(v_eval)
            for _ in range(13):
                p = rng.normal(size=v.size)
                err = rel_err(apply_full(jac, rank1, p), prob.jvp(v_eval, p))
                worst_jvp = max(worst_jvp, err)
                assert err <= 1e-10, (scheme_name, seed, err)
                trials += 1
    elapsed = time.time() - t0
    ok = trials >= 1000 and elapsed < 60.0
    assert _report(6, ok, f"{trials} randomized trials in {elapsed:.1f} s; "
                          f"worst FD rel err {worst_fd:.2e} (<=1e-4), worst "
                          f"assembled-vs-JVP {worst_jvp:.2e} (<=1e-10)")


# -- 7: friction-model unit suite -------------------------------------------------
def test_criterion_7_friction_units_and_mdp():
    from fricsim.dual import jvp
    eps = 1e-3
    checks = [
        abs(smooth_s(0.0, eps)) < 1e-15,
        abs(smooth_s(eps, eps) - 1.0) < 1e-15,
        abs(float(jvp(lambda v: smooth_s(v, eps), eps * (1 - 1e-12), 1.0))
            - float(jvp(lambda v: smooth_s(v, eps), eps * (1 + 1e-12), 1.0)))
        <= 1e-8,
        abs(stribeck_g(0.0) - 1.0) < 1e-15,
        abs(stribeck_g(1.0)) < 1e-15,
        abs(float(jvp(stribeck_g, 1.0 - 1e-12, 1.0))) <= 1e-8,
    ]
    p = FrictionParams(mu_d=0.4, epsilon=eps)
    checks.append(abs(friction_magnitude_c(5 * eps, 2.0, p) - 0.4 * 2.0)
                  < 1e-12)

    # MDP brute force on 100 random contacts
    from fricsim.contact import HalfSpace, ObstacleTable, PenaltyParams, gaps
    from fricsim.friction import contact_friction_forces
    rng = np.random.default_rng(77)
    pen = PenaltyParams(delta=1e-3, kappa=1e4)
    mdp_ok = True
    for trial in range(100):
        mu = rng.uniform(0.2, 1.2)
        fr = FrictionParams(mu_d=mu, epsilon=eps)
        plane = HalfSpace((0, 0, 0), (0, 1, 0), friction=fr)
        height = rng.uniform(-2e-4, 8e-4)
        q = np.array([0.0, height, 0.0])
        cs = gaps(ObstacleTable([plane]), q, 0.0, penalty=pen)
        lam = cs.lam[0]
        ang = rng.uniform(0, 2 * np.pi)
        speed = rng.uniform(eps, 100 * eps)
        v = np.array([speed * np.cos(ang), 0.0, speed * np.sin(ang)])
        f = contact_friction_forces(cs, q, v, 0.0, pen)[1].reshape(-1, 3)[0]
        vbar = np.array([v[0], v[2]])
        fbar = np.array([f[0], f[2]])
        best = -vbar @ fbar
        for _ in range(100):
            y = rng.normal(size=2)
            y *= mu * lam * np.sqrt(rng.uniform(0, 1)) / np.linalg.norm(y)
            if -vbar @ y > best * (1 + 1e-9) + 1e-15:
                mdp_ok = False
    ok = all(checks) and mdp_ok
    assert _report(7, ok, f"unit identities {'ok' if all(checks) else 'BAD'}; "
                          f"MDP maximal on 100 random contacts: {mdp_ok}")


# -- 8: integrator order + bounce ordering ----------------------------------------
def test_criterion_8_integrator_orders():
    from fricsim.forces import ForceModel

    cfg = SolverConfig(r_tol_rel=1e-12, r_tol_abs=1e-14, v_tol=1e-13)

    def solve(problem, v0, guess=None):
        return damped_newton(problem, v0, cfg, guess=guess)

    mat = MaterialParams(density=500.0, youngs_modulus=5e4, poisson_ratio=0.3)
    mesh = TetMeshModel(*box_grid((0.1, 0.1, 0.1), (1, 1, 1)), mat)
    model = ForceModel(mesh, gravity=(0.0, -9.8, 0.0))
    com = mesh.rest_positions.mean(axis=0)
    q0 = (((mesh.rest_positions - com) * np.array([1.06, 0.92, 1.03])) + com) \
        .ravel()

    def run(name, h, t_end):
        st = SystemState(q0.copy(), np.zeros(mesh.n_dofs), 0.0)
        scheme = make_scheme(name)
        contact = model.build_contact_state(st.q, st.v, 0.0, h)
        prev = None
        for _ in range(int(round(t_end / h))):
            res = scheme.step(model, contact, st, h, solve, prev=prev)
            prev = st
            st = SystemState(res.q, res.v, st.t + h)
        return st

    t_end = 0.02
    ref = run("trbdf2", t_end / 1024, t_end)
    orders = {}
    thresholds = {"be": 0.95, "tr": 1.9, "bdf2": 1.9, "trbdf2": 1.9,
                  "sdirk2": 1.9}
    for name in thresholds:
        e1 = np.linalg.norm(run(name, t_end / 64, t_end).v - ref.v)
        e2 = np.linalg.norm(run(name, t_end / 128, t_end).v - ref.v)
        orders[name] = np.log2(e1 / e2)
    orders_ok = all(orders[n] >= thresholds[n] for n in thresholds)

    apexes = {name: run_ball_drop(0.002, name)[0]
              for name in ("be", "bdf2", "sdirk2")}
    bounce_ok = apexes["be"] <= apexes["bdf2"] <= apexes["sdirk2"]
    ok = orders_ok and bounce_ok
    assert _report(
        8, ok,
        "orders " + ", ".join(f"{n}={o:.2f}" for n, o in orders.items())
        + "; bounce apexes (m) "
        + ", ".join(f"{n}={a:.4f}" for n, a in apexes.items()))


# -- 9: contact-resolution invariant across shipped scenes -------------------------
def test_criterion_9_shipped_scene_gaps():
    durations = {"ball_in_box.json": 0.4, "ball_drop.json": 0.3,
                 "block_slide.json": 1.0, "plate_squeeze.json": 0.6,
                 "tet_drop_min.json": 0.5}
    results = []
    ok = True
    for name, dur in durations.items():
        scene = load_scene_file(os.path.join(SCENES, name))
        records, _, infos = run_simulation(scene, duration=dur)
        min_gap = min(r.deepest_gap for r in records[1:])
        max_retries = max((i.retries for i in infos), default=0)
        scene_ok = min_gap > 0.0 and max_retries <= 5
        ok = ok and scene_ok
        results.append(f"{name}: min gap {min_gap:.2e}, "
                       f"retries<= {max_retries}")
    assert _report(9, ok, "; ".join(results))


# -- 10: solver equivalence ---------------------------------------------------------
def test_criterion_10_solver_equivalence():
    """Single-step roots from simulation-reachable states of the shipped desk
    fixtures, solved with both solvers at the same tolerances.  "Within
    10*r_tol in velocity max-norm" is pinned with r_tol := v_tol, the
    velocity-scale stagnation tolerance both solvers stop on (the residual
    tolerances are effectively tighter)."""
    v_tol = 1e-9
    worst = 0.0
    sigma_ok = True
    n_solves = 0
    fixtures = [("tet_drop_min.json", 0.12, 6),
                ("ball_drop.json", None, 4),
                ("block_slide.json", None, 4)]
    for name, duration, n_probe in fixtures:
        scene = load_scene_file(os.path.join(SCENES, name))
        sim = Simulation(scene)
        steps = int(round((duration or 10 * scene.step) / scene.step))
        probe_every = max(steps // n_probe, 1)
        for k in range(steps):
            st = sim.state
            if k % probe_every == 0:
                contact = sim.model.build_contact_state(st.q, st.v, st.t,
                                                        sim.h)
                prob = StageProblem(model=sim.model, contact=contact,
                                    v_lin=st.v, q_ref=st.q, c=sim.h,
                                    t_eval=st.t + sim.h, h=sim.h)
                abs_tol = 1e-5 * prob.default_abs_tol()
                cfg_d = SolverConfig(kind="direct", r_tol_rel=1e-11,
                                     r_tol_abs=abs_tol, v_tol=0.1 * v_tol)
                cfg_i = SolverConfig(kind="iterative", r_tol_rel=1e-11,
                                     r_tol_abs=abs_tol, v_tol=0.1 * v_tol,
                                     max_krylov_iters=500)
                vd, _ = damped_newton(prob, st.v, cfg_d)
                vi, rep_i = damped_newton(prob, st.v, cfg_i)
                worst = max(worst, float(np.max(np.abs(vd - vi))))
                n_solves += 1
                norms = rep_i.residual_norms
                for j, sig in enumerate(rep_i.sigmas):
                    expect = 0.01 if j == 0 else min(
                        (norms[j] / norms[j - 1]) ** PHI, 0.01)
                    if not np.isclose(sig, expect, rtol=1e-12, atol=0.0):
                        sigma_ok = False
            sim.advance()
    ok = worst <= 10 * v_tol and sigma_ok
    assert _report(
        10, ok,
        f"{n_solves} paired solves; root gap {worst:.2e} <= {10 * v_tol:.1e} "
        f"(max-norm); forcing terms match the logged rule exactly: {sigma_ok}")
