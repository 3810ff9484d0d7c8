"""Benchmark experiments: incline stopping, plate grasp, ball bounce.

The incline benchmark slides a stiff elastic block down a 10 degree slope
with mu = 0.177 slightly above tan(10 deg): rigid kinematics give
deceleration a = g (mu cos(theta) - sin(theta)), so a block launched
downhill at v0 = 0.1 m/s stops after x = v0^2/(2a) = 0.769 m in
T = v0/a = 15.38 s.  Stopping is detected when the max sliding speed stays
at or below the friction tolerance eps for one simulated second; the
reported distance and time are taken at the start of that window.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .scene import load_scene
from .simulate import StepFailure, run_simulation

THETA_DEG = 10.0
MU = 0.177
V0 = 0.1
GRAVITY = 9.8
EPSILON = 1e-4  # m/s, the incline's friction tolerance
STOP_WINDOW = 1.0  # s below tolerance before the block counts as stopped


def analytic_stop():
    """(distance, time) for the rigid block; a = g (mu cos t - sin t)."""
    th = np.radians(THETA_DEG)
    a = GRAVITY * (MU * np.cos(th) - np.sin(th))
    return V0**2 / (2.0 * a), V0 / a


def block_slide_scene(h: float, integrator: str = "be",
                      friction_mode: str = "implicit", mu: float = MU,
                      duration: float = 40.0, divisions=(3, 2, 2),
                      solver_kind: str = "direct",
                      start: str = "touch") -> dict:
    """Scene dict for one block-slide variant (JSON-serializable).

    ``start='touch'`` places the block with its bottom face exactly at gap
    delta (zero contact force): the contact engages during the first steps.
    The fully implicit friction impulse is unbiased for any normal-force
    history (normal momentum balance gives int N dt = m g cos(theta) T while
    the block slides one way above the friction tolerance), whereas lagging
    integrates N(t-h), leaving a net under-braking bias of mu h (N_eq - N(0))
    that fixed-point iterations only partially remove.  ``start='settled'``
    instead puts every bottom vertex at the balance gap of an equal share of
    the normal load; the lumped loads differ, so it still settles (deepest
    vertex: gap 1.41e-4 m at the start, 8.70e-5 m settled).
    """
    th = np.radians(THETA_DEG)
    normal = [-np.sin(th), np.cos(th), 0.0]
    downhill = np.array([-np.cos(th), -np.sin(th), 0.0])
    nx, ny, nz = divisions
    n_bottom = (nx + 1) * (nz + 1)
    size, rho, e_mod = (0.2, 0.08, 0.12), 1000.0, 1e7
    mass = rho * size[0] * size[1] * size[2]
    delta = 1e-3
    g_n = mass * GRAVITY * np.cos(th)
    # kappa = 4 m g / (3 delta) balances a vertex of the mean mass over all
    # vertices at 0.5*delta (696.89 at the default divisions); the scene
    # default averages the surface vertices' lumped masses instead (614.90)
    n_verts = (nx + 1) * (ny + 1) * (nz + 1)
    m_avg = mass / n_verts
    kappa = 4.0 * m_avg * GRAVITY / (3.0 * delta)
    if start == "settled":
        lam_each = g_n / n_bottom
        d0 = delta - np.sqrt(lam_each * delta / (3.0 * kappa))
    else:
        d0 = delta
    offset_along_normal = size[1] / 2.0 + d0
    translate = list(np.asarray(normal) * offset_along_normal)
    velocity = list(V0 * downhill)
    return {
        "gravity": [0.0, -GRAVITY, 0.0],
        "duration": duration,
        "step": h,
        "integrator": integrator,
        "friction_mode": friction_mode,
        "solver": {"kind": solver_kind},
        "contact": {"delta": delta, "kappa": kappa},
        "meshes": [{
            "name": "block",
            "generator": {"kind": "box", "size": list(size),
                          "divisions": list(divisions)},
            "material": {"density": rho, "youngs_modulus": e_mod,
                         "poisson_ratio": 0.4},
            "rotate": {"axis": [0.0, 0.0, 1.0], "angle": th},
            "translate": translate,
            "velocity": velocity,
        }],
        "obstacles": [{
            "kind": "half_space", "point": [0.0, 0.0, 0.0], "normal": normal,
            "friction": {"mu_d": mu, "epsilon": EPSILON},
            "name": "incline",
        }],
        "output": {"trajectory_every": 1},
    }


@dataclass
class SlideResult:
    integrator: str
    friction_mode: str
    h: float
    stopped: bool
    distance: float
    stop_time: float
    distance_error: float
    time_error: float
    failure: str = ""
    solves: int | None = None   # solver work of the run; None if it failed
    newton: int | None = None

    def label(self) -> str:
        return f"{self.integrator}/{self.friction_mode}/h={self.h:g}"


def _downhill_displacement(records):
    th = np.radians(THETA_DEG)
    downhill = np.array([-np.cos(th), -np.sin(th), 0.0])
    com0 = records[0].com
    return np.array([(r.com - com0) @ downhill for r in records])


def detect_stop(records, epsilon: float, window: float = STOP_WINDOW):
    """(stopped, distance, time) at the start of the first window of
    ``window`` seconds with max sliding speed <= epsilon throughout."""
    disp = _downhill_displacement(records)
    times = np.array([r.time for r in records])
    slow = np.array([r.max_slide_speed <= epsilon for r in records])
    start = None
    for i, ok in enumerate(slow):
        if ok and start is None:
            start = i
        elif not ok:
            start = None
        if start is not None and times[i] - times[start] >= window:
            return True, float(disp[start]), float(times[start])
    return False, float(disp[-1]), float(times[-1])


def run_block_slide_variant(integrator: str, friction_mode: str, h: float,
                            mu: float = MU, duration: float = 40.0,
                            divisions=(3, 2, 2),
                            start: str = "touch") -> SlideResult:
    scene_dict = block_slide_scene(h, integrator, friction_mode, mu=mu,
                                   duration=duration, divisions=divisions,
                                   start=start)
    scene = load_scene(json.dumps(scene_dict))
    x_ref, t_ref = analytic_stop()
    try:
        records, _, infos = run_simulation(scene)
    except StepFailure as exc:
        return SlideResult(integrator, friction_mode, h, stopped=False,
                           distance=np.nan, stop_time=np.nan,
                           distance_error=np.nan, time_error=np.nan,
                           failure=str(exc))
    stopped, dist, t_stop = detect_stop(records, EPSILON)
    reports = [r for i in infos for r in i.reports]
    return SlideResult(
        integrator, friction_mode, h, stopped=stopped, distance=dist,
        stop_time=t_stop,
        distance_error=(dist - x_ref) / x_ref,
        time_error=(t_stop - t_ref) / t_ref, solves=len(reports),
        newton=sum(r.iterations for r in reports))


PLATE_RELEASE_TIME = 0.55  # floor fully away; grasp-height reference time


def plate_squeeze_scene(h: float, friction_mode: str = "implicit") -> dict:
    """A soft cube gripped between two scripted pressing plates, hanging by
    friction once a supporting floor retreats (grasp fixture).

    The squeeze is set a modest factor above the support threshold, and the
    near-incompressible cube keeps the contact loads evolving as it settles,
    which is what separates the lagged lambda (one step stale) from the
    fully implicit one.  Note the separation this produces on flat plates is
    a finite factor in slip rate, not a hold/lose dichotomy: with a
    state-independent load schedule the lagged system is the implicit system
    time-shifted by one step, and state-feedback channels are damped by the
    pre-sliding transition's slope (~2 mu lambda / eps at v=0).
    """
    delta, size, push = 1e-3, 0.06, 6e-4
    half = size / 2.0

    def plate(sign, name):
        return {
            "kind": "half_space",
            "point": [sign * (half + delta), 0.0, 0.0],
            "normal": [-sign, 0.0, 0.0],
            "friction": {"mu_d": 0.65, "epsilon": 1e-4},
            "motion": {"translation": [[0.0, [0.0, 0.0, 0.0]],
                                       [0.3, [-sign * push, 0.0, 0.0]]]},
            "name": name,
        }

    floor = {
        "kind": "half_space",
        "point": [0.0, -(half + 0.5 * delta), 0.0],
        "normal": [0.0, 1.0, 0.0],
        "friction": {"mu_d": 0.0, "epsilon": 1e-4},
        "motion": {"translation": [[0.0, [0.0, 0.0, 0.0]],
                                   [0.4, [0.0, 0.0, 0.0]],
                                   [PLATE_RELEASE_TIME, [0.0, -0.05, 0.0]]]},
        "name": "floor",
    }
    return {
        "gravity": [0.0, -GRAVITY, 0.0],
        "duration": 2.0,
        "step": h,
        "integrator": "be",
        "friction_mode": friction_mode,
        "contact": {"delta": delta},
        "meshes": [{
            "name": "block",
            "generator": {"kind": "box", "size": [size, size, size],
                          "divisions": [3, 3, 3]},
            "material": {"density": 1000.0, "youngs_modulus": 2.5e4,
                         "poisson_ratio": 0.49, "rayleigh_alpha": 0.05},
        }],
        "obstacles": [plate(+1, "right_plate"), plate(-1, "left_plate"),
                      floor],
        "output": {"trajectory_every": 1},
    }


def run_plate_squeeze(h: float, friction_mode: str):
    """(grasp drop in meters, records): centroid fall between the moment the
    floor is fully away and the end of the run; (nan, None) on failure."""
    scene = load_scene(json.dumps(plate_squeeze_scene(h, friction_mode)))
    try:
        records, _, _ = run_simulation(scene)
    except StepFailure:
        return float("nan"), None
    times = np.array([r.time for r in records])
    ref = int(np.searchsorted(times, PLATE_RELEASE_TIME))
    ref = min(ref, len(records) - 1)
    drop = records[ref].com[1] - records[-1].com[1]
    return float(drop), records


DEFAULT_MATRIX = tuple(
    (integ, mode, h)
    for integ in ("be", "tr")
    for mode in ("implicit", "lagged:1", "lagged:4")
    for h in (0.1, 0.05, 0.01, 0.005)
)


def experiment_block_slide(variants=DEFAULT_MATRIX, duration: float = 40.0):
    """Run the variant matrix; failures are recorded per-variant, not fatal.

    BE rows use the touch start (the contact-engagement transient is what
    separates lagged from implicit); TR is not L-stable and cannot traverse
    the resulting undamped contact chatter at large h, so its rows use the
    settled start.
    """
    return [run_block_slide_variant(
                integ, mode, h, duration=duration,
                start="settled" if integ == "tr" else "touch")
            for integ, mode, h in variants]


def ball_drop_scene(h: float, integrator: str) -> dict:
    """A soft ball of radius 0.05 m with a quadratic volume penalty dropped
    from 0.08 m onto the ground; used for the bounce-height integrator
    comparison (BE damps the impact deformation modes hardest, SDIRK2 the
    least)."""
    return {
        "gravity": [0.0, -GRAVITY, 0.0],
        "duration": 0.5,
        "step": h,
        "integrator": integrator,
        "meshes": [{
            "name": "ball",
            "generator": {"kind": "ball", "radius": 0.05, "divisions": 4},
            "material": {"density": 500.0, "youngs_modulus": 4e5,
                         "poisson_ratio": 0.35, "rayleigh_alpha": 0.0,
                         "rayleigh_beta": 1e-5},
            "translate": [0.0, 0.13, 0.0],
            "volume_region": {"model": "quadratic", "kappa_v_atm": 1.0,
                              "name": "cavity"},
        }],
        "obstacles": [{
            "kind": "half_space", "point": [0.0, 0.0, 0.0],
            "normal": [0.0, 1.0, 0.0],
            "friction": {"mu_d": 0.3, "epsilon": 1e-4}, "name": "ground",
        }],
        "output": {"trajectory_every": 1},
    }


def bounce_apex(records) -> float:
    """Rebound apex: the max centroid height after the first descent ends."""
    com_y = np.array([r.com[1] for r in records])
    k_bottom = int(np.argmin(com_y))
    return float(com_y[k_bottom:].max())


def run_ball_drop(h: float, integrator: str):
    scene = load_scene(json.dumps(ball_drop_scene(h, integrator)))
    records, _, _ = run_simulation(scene)
    return bounce_apex(records), records


def format_report(results) -> str:
    x_ref, t_ref = analytic_stop()
    lines = [f"analytic: distance {x_ref:.4f} m, time {t_ref:.3f} s",
             f"{'variant':<28}{'stopped':<9}{'dist (m)':<12}"
             f"{'err%':<9}{'time (s)':<11}{'err%':<9}{'solves':<8}Newton"]
    for r in results:
        if r.failure:
            lines.append(f"{r.label():<28}FAILED   {r.failure}")
            continue
        lines.append(
            f"{r.label():<28}{str(r.stopped):<9}{r.distance:<12.4f}"
            f"{100 * r.distance_error:<9.2f}{r.stop_time:<11.3f}"
            f"{100 * r.time_error:<9.2f}{r.solves:<8}{r.newton}")
    return "\n".join(lines)
