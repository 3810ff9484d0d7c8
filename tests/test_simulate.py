import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from fricsim import simulate
from fricsim.contact import HalfSpace
from fricsim.experiments import block_slide_scene
from fricsim.integrators import StageProblem
from fricsim.scene import load_scene, load_scene_file
from fricsim.simulate import Simulation, StepFailure, run_simulation
from fricsim.solvers import SolveFailure, SolverConfig
from helpers import count_frames, gap

SCENES = os.path.join(os.path.dirname(__file__), "..", "scenes")


def _scene(overrides=None, **top):
    cfg = {
        "duration": 0.1,
        "step": 0.01,
        "meshes": [
            {"name": "cube",
             "generator": {"kind": "box", "size": [0.1, 0.1, 0.1],
                           "divisions": [1, 1, 1]},
             "material": {"density": 800.0, "youngs_modulus": 2e5,
                          "poisson_ratio": 0.3},
             "translate": [0.0, 0.2, 0.0]}
        ],
        "obstacles": [
            {"kind": "half_space", "point": [0, 0, 0], "normal": [0, 1, 0],
             "friction": {"mu_d": 0.4}}
        ],
    }
    cfg.update(top)
    if overrides:
        for key, val in overrides.items():
            cfg[key] = val
    return load_scene(json.dumps(cfg))


def test_free_fall_single_step_gains_hg():
    scene = _scene(duration=0.01, obstacles=[])
    sim = Simulation(scene)
    sim.advance()
    v = sim.state.velocities()
    np.testing.assert_allclose(v[:, 1], -9.8 * 0.01, rtol=1e-12)
    np.testing.assert_allclose(v[:, [0, 2]], 0.0, atol=1e-15)


def test_resting_box_reaches_equilibrium():
    scene = _scene(duration=2.0)
    # start just above the ground
    scene.initial_q[1::3] += -0.2 + 0.051
    sim = Simulation(scene)
    for _ in range(200):
        sim.advance()
    v_tol = 0.1 * 1e-4
    assert np.max(np.abs(sim.state.v)) <= v_tol
    # static balance: total contact force equals the weight
    from fricsim.contact import penalty_lambda
    model = sim.model
    x = sim.state.positions()
    d = gap(model.table.obstacles[0], x[model.mesh.surface_vertices],
            sim.state.t)
    lam = penalty_lambda(d, model.penalty.delta, model.penalty.kappa)
    mg = model.mesh.vertex_mass.sum() * 9.8
    assert float(lam.sum()) == pytest.approx(mg, rel=1e-6)
    assert float(d.min()) > 0.0


def test_all_gaps_positive_after_steps():
    scene = _scene(duration=0.3)
    records, _, infos = run_simulation(scene)
    assert all(r.deepest_gap > 0.0 for r in records[1:])
    assert all(i.retries <= 5 for i in infos)


def test_energy_nonincreasing_contact_free_be():
    # squashed cube oscillating freely under BE: total mechanical energy
    # decays monotonically (no contact, no friction)
    cfg_scene = _scene(duration=0.2, obstacles=[])
    mesh = cfg_scene.mesh
    x = mesh.rest_positions.copy()
    com = x.mean(axis=0)
    cfg_scene.initial_q = (((x - com) * np.array([1.05, 0.95, 1.0])) + com) \
        .ravel() + cfg_scene.initial_q - mesh.rest_q()
    records, _, _ = run_simulation(cfg_scene)
    energies = [r.total_energy for r in records]
    diffs = np.diff(energies)
    assert np.all(diffs <= 1e-10 * max(abs(np.asarray(energies))).item())


def test_kappa_retry_loop_terminates_and_raises_kappa():
    scene = _scene(duration=0.06, step=0.02)
    scene.initial_v[1::3] = -3.0  # fast approach to force a deep first hit
    sim = Simulation(scene)
    k0 = sim.model.penalty.kappa
    infos = [sim.advance() for _ in range(3)]
    assert sim.model.penalty.kappa >= k0
    assert all(i.retries <= 20 for i in infos)
    assert sim.record().deepest_gap > 0.0


def test_snapshots_and_sampling_rates():
    scene = _scene(duration=0.05, output={"trajectory_every": 2,
                                          "snapshot_every": 2})
    records, snaps, infos = run_simulation(scene)
    assert len(infos) == 5
    assert [s[0] for s in snaps] == [0, 2, 4, 5]
    assert records[0].time == 0.0
    assert records[-1].time == pytest.approx(0.05)


def test_dirichlet_fixed_vertex_holds():
    scene = _scene(duration=0.1)
    cfg = {
        "duration": 0.1, "step": 0.01,
        "meshes": [{
            "name": "cube",
            "generator": {"kind": "box", "size": [0.1, 0.1, 0.1],
                          "divisions": [1, 1, 1]},
            "material": {"density": 800.0, "youngs_modulus": 2e5,
                         "poisson_ratio": 0.3},
            "translate": [0.0, 0.2, 0.0],
            "fixed_vertices": [4, 5, 6, 7],
        }],
        "obstacles": [],
    }
    scene = load_scene(json.dumps(cfg))
    top = np.nonzero(scene.mesh.rest_positions[:, 1] > 0.2)[0]
    records, _, _ = run_simulation(scene)
    sim = Simulation(scene)
    q0 = sim.state.positions()[scene.fixed_vertices].copy()
    for _ in range(10):
        sim.advance()
    q1 = sim.state.positions()[scene.fixed_vertices]
    np.testing.assert_allclose(q1, q0, atol=1e-12)
    # the free bottom hangs below its rest offset
    assert sim.state.positions()[:4, 1].min() < 0.15 - 1e-5


def test_iterative_solver_path_runs():
    scene = _scene(duration=0.05, solver={"kind": "iterative"})
    records, _, infos = run_simulation(scene)
    assert all(r.status == "Converged" for i in infos for r in i.reports)
    assert records[-1].deepest_gap > 0.0


def test_step_reports_cover_every_lagged_pass():
    scene = load_scene(json.dumps(block_slide_scene(
        0.01, "be", "lagged:4", solver_kind="iterative", duration=0.2)))
    sim = Simulation(scene)
    seen = []
    solve = sim._solve

    def counting_solve(problem, v0, guess=None):
        result = solve(problem, v0, guess)
        seen.append(result[1].iterations)
        return result

    sim._solve = counting_solve
    infos = [sim.advance() for _ in range(20)]
    reports = [r for i in infos for r in i.reports]
    assert len(seen) > len(infos)       # lagged passes ran
    assert len(reports) == len(seen)
    assert sum(r.iterations for r in reports) == sum(seen)


@pytest.mark.parametrize("integrator, mode", [
    ("be", "implicit"), ("bdf2", "implicit"), ("sdirk2", "implicit"),
    ("trbdf2", "implicit"), ("be", "lagged:4")])
def test_only_first_stages_after_the_first_step_get_a_guess(
        monkeypatch, integrator, mode):
    # every try of a step after the first (kappa retries included) offers
    # its first stage 2v - v_prev when that stage solves at t + h; the first
    # step, the t + gamma h first stages of SDIRK2 and TR-BDF2, the second
    # stages and the lagged passes start where they did without a guess
    calls = []
    solve = simulate.damped_newton

    def recording(problem, v0, cfg, guess=None):
        calls.append((v0, guess))
        return solve(problem, v0, cfg, guess=guess)

    monkeypatch.setattr(simulate, "damped_newton", recording)
    if mode == "implicit":
        scene = _scene(step=0.005, integrator=integrator)
        scene.initial_q[1::3] -= 0.2 - 0.07  # lands on step 1 with a retry
        scene.initial_v[1::3] = -3.0
    else:
        scene = load_scene(json.dumps(block_slide_scene(
            0.01, integrator, mode, duration=0.2)))
    sim = Simulation(scene)
    retried = False
    for k in range(6):
        st, prev = sim.state, sim.prev_state
        calls.clear()
        info = sim.advance()
        firsts = [g for v0, g in calls if v0 is st.v]
        later = [g for v0, g in calls if v0 is not st.v]
        assert len(firsts) == info.retries + 1
        assert bool(later) == (integrator in ("sdirk2", "trbdf2")
                               or mode != "implicit")
        assert all(g is None for g in later)
        for g in firsts:
            assert (g is None if k == 0 or integrator in ("sdirk2", "trbdf2")
                    else np.array_equal(g, 2.0 * st.v - prev.v))
        assert all(g is not None or r.start == "v"
                   for (_, g), r in zip(calls, info.reports, strict=True))
        retried |= k > 0 and info.retries > 0
    assert retried or mode != "implicit"


def test_newton_budget_exhausted_fails_step():
    scene = replace(_scene(), solver=SolverConfig(
        k_max=1, r_tol_rel=1e-14, r_tol_abs=1e-14, v_tol=1e-14))
    scene.initial_q[1::3] += -0.2 + 0.049  # starts in contact
    sim = Simulation(scene)
    with pytest.raises(StepFailure) as exc:
        sim.advance()
    assert exc.value.report.status == "MaxIters"


def test_line_search_underflow_fails_the_step_with_its_report():
    # the stage's Jacobian negated makes every Newton direction an ascent
    sim = Simulation(_scene())
    st, index = sim.state, sim.step_index
    reports = []

    def negated(problem, v0, guess=None):
        def jacobian(v):
            jac, rank1 = StageProblem.jacobian(problem, v)
            jac.data *= -1.0
            return jac, [replace(r, scale=-r.scale) for r in rank1]

        problem.jacobian = jacobian
        try:
            return Simulation._solve(sim, problem, v0, guess)
        except SolveFailure as exc:
            reports.append(exc.report)
            raise

    sim._solve = negated
    with pytest.raises(StepFailure) as exc:
        sim.advance()
    assert str(exc.value).endswith("[LineSearchFailed]")
    assert len(reports) == 1 and exc.value.report is reports[0]
    assert sim.step_index == index and sim.state is st


def test_kappa_retries_exhausted_fail_the_step(monkeypatch):
    # tet_drop_min first retries at step 10 (one retry, kappa -> 20227.34)
    sim = Simulation(load_scene_file(os.path.join(SCENES,
                                                  "tet_drop_min.json")))
    for _ in range(10):
        sim.advance()
    st, kappa = sim.state, sim.model.penalty.kappa
    monkeypatch.setattr(simulate, "MAX_RETRIES", 0)
    with pytest.raises(StepFailure, match="^step 10: contact not resolved "
                       "after 0 kappa retries$") as exc:
        sim.advance()
    assert exc.value.step_index == 10 and sim.step_index == 10
    assert sim.state is st and st.t == pytest.approx(10 * sim.h)
    # the failure holds the raised kappa; the model is back at the start's
    assert exc.value.kappa == pytest.approx(20227.34, rel=1e-6)
    assert sim.model.penalty.kappa == kappa


def _scene_file(name, **top):
    with open(os.path.join(SCENES, name)) as fh:
        return load_scene(json.dumps(dict(json.load(fh), **top)))


@pytest.mark.parametrize("name, top, max_retries, steps, kappa, reached, "
                         "message", [
    # MAX_RETRIES exhausted at the first retry
    ("tet_drop_min.json", {}, 0, 10, 1306.666666666667, 20227.336649488363,
     r"contact not resolved after 0 kappa retries$"),
    # a bump past KAPPA_MAX
    ("ball_in_box.json", {"integrator": "tr_missplit"},
     simulate.MAX_RETRIES, 11, 18.10521155300851, 5532736849695291.0,
     r"contact stiffness 4\.365e\+18 would exceed the cap 1\.000e\+16; "
     r"reduce the time step h$"),
    # a solver failure inside a kappa retry
    ("plate_squeeze.json", {"integrator": "tr_missplit"},
     simulate.MAX_RETRIES, 3, 275.1459351404705, 9181532.193716496,
     r".* \[\w+\]$"),
], ids=["retries", "cap", "solve"])
def test_failed_step_leaves_the_simulation_as_it_found_it(
        monkeypatch, name, top, max_retries, steps, kappa, reached, message):
    scene = _scene_file(name, **top)
    sim = Simulation(scene)
    for _ in range(steps):
        sim.advance()
    row = sim.record().row(scene.region_names)
    st = sim.state
    monkeypatch.setattr(simulate, "MAX_RETRIES", max_retries)
    with pytest.raises(StepFailure, match=f"^step {steps}: {message}") as exc:
        sim.advance()
    assert exc.value.kappa == reached
    assert sim.model.penalty.kappa == kappa
    assert sim.step_index == steps and sim.state is st
    assert sim.record().row(scene.region_names) == row


def test_tet_drop_scene_file():
    scene = load_scene_file(os.path.join(SCENES, "tet_drop_min.json"))
    records, snaps, infos = run_simulation(scene, duration=0.1)
    assert all(r.deepest_gap > 0 for r in records[1:])


def _fast_drop(v0, step, **top):
    """The cube launched at the floor from just above it: its first step
    needs kappa retries."""
    scene = _scene(duration=0.06, step=step, **top)
    scene.initial_q[1::3] -= 0.2 - 0.052
    scene.initial_v[1::3] = v0
    return scene


def test_reused_scene_runs_identically():
    # adaptive stiffening raises the simulation's kappa, not the scene's
    scene = _fast_drop(-3.0, 0.02)
    kappa0 = scene.penalty.kappa
    first, _, infos = run_simulation(scene)
    assert sum(i.retries for i in infos) > 0
    assert first[-1].kappa > kappa0 == scene.penalty.kappa
    second, _, _ = run_simulation(scene)
    assert ([r.row(scene.region_names) for r in first]
            == [r.row(scene.region_names) for r in second])


def test_retry_candidate_sets_are_nested():
    # a far wall no vertex reaches; the first retry also reports a pair with
    # it, which only a union over the retries keeps in the later sets
    scene = _fast_drop(-10.0, 0.02)
    scene.obstacles.append(HalfSpace(point=(5, 0, 0), normal=(-1, 0, 0)))
    sim = Simulation(scene)
    model = sim.model
    build = model.build_contact_state

    def pairs(cset):
        return set(zip(cset.vertex.tolist(), cset.obstacle.tolist()))

    sets = [pairs(sim.contact().cset)]  # the first try's candidates
    faked = []

    def build_spy(q, v, t, h, extra_candidates=None):
        state = build(q, v, t, h, extra_candidates=extra_candidates)
        cset = state.cset
        if t == sim.state.t:  # a retry's candidates
            sets.append(pairs(cset))
        elif not faked:  # the first try's end state: a fake penetrating pair
            faked.append(t)
            state = replace(state, cset=replace(
                cset, vertex=np.append(cset.vertex, 0),
                obstacle=np.append(cset.obstacle, 1),
                d=np.append(cset.d, -1e-3)))
        return state

    model.build_contact_state = build_spy
    info = sim.advance()
    assert info.retries >= 2 and len(sets) == info.retries + 1
    assert (0, 1) not in sets[0]
    assert all(a <= b for a, b in zip(sets, sets[1:]))


def test_model_measures_rest_volume_on_its_own_copy():
    scene = load_scene_file(os.path.join(SCENES, "ball_drop.json"))
    sim = Simulation(scene)
    assert scene.volume_penalties[0].rest_volume is None
    assert sim.model.volume_penalties[0].rest_volume > 0.0


def test_threaded_runs_match_serial():
    # two runs of one scene (volume penalty, kappa retries) at once in
    # threads give the serial run's records: they share no run state
    cube = dict(_scene().normalized["meshes"][0],
                volume_region={"model": "quadratic", "kappa_v_atm": 1.0,
                               "name": "cavity"})
    scene = _fast_drop(-3.0, 0.02, meshes=[cube])
    assert scene.volume_penalties
    serial, _, infos = run_simulation(scene)
    assert sum(i.retries for i in infos) > 0
    with ThreadPoolExecutor(max_workers=2) as pool:
        threaded = list(pool.map(lambda _: run_simulation(scene)[0], range(2)))

    def rows(records):
        return [r.row(scene.region_names) for r in records]

    assert rows(threaded[0]) == rows(serial) == rows(threaded[1])


def test_interleaved_simulations_keep_their_own_frame_memo(monkeypatch):
    # two simulations of one scene share its obstacle objects; stepped in
    # turns at different times, each gives the rows of a run alone and
    # evaluates each obstacle's frame as often per step as alone, so
    # neither reads frames the other evaluated
    scene = load_scene_file(os.path.join(SCENES, "plate_squeeze.json"))
    frames = count_frames(monkeypatch)

    def steps(sim, n, rows, counts):
        for _ in range(n):
            before = frames(scene.obstacles)
            sim.advance()
            counts.append([a - b for a, b in
                           zip(frames(scene.obstacles), before)])
            rows.append(sim.record().row(scene.region_names))

    alone = [], []
    steps(Simulation(scene), 6, *alone)
    a, b = Simulation(scene), Simulation(scene)
    runs = {a: ([], []), b: ([], [])}
    for sim, n in ((a, 1), (b, 2), (a, 2), (b, 1), (a, 3), (b, 3)):
        steps(sim, n, *runs[sim])
    assert runs[a] == alone and runs[b] == alone
