"""Simulation driver: per-step solve, adaptive contact stiffening with
retries, lagged fixed-point iterations, and trajectory recording.

Each step solves the scheme's stage residual(s) on a frozen contact candidate
set, then builds the end state's set, whose gap scan covers every surface
vertex.  Any non-positive gap bumps kappa by b'(d_deepest)/b'(0.5 delta) and
the step re-runs from its start state with the offending pairs of every try
unioned into the candidate set (kappa never decreases); an accepted end
state's set is the next step's candidate set and what ``record`` reads.
A solver failure in any try, a bump past ``KAPPA_MAX`` or ``MAX_RETRIES``
retries fail the step with a ``StepFailure`` that holds the kappa reached;
the state, the step index and kappa stay as the step found them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .contact import (KAPPA_MAX, adaptive_stiffen, penalty_b,
                      tangential_velocity)
from .elasticity import elastic_energy
from .forces import ContactState, ForceModel
from .integrators import Scheme, StageProblem, make_scheme
from .mesh import SystemState
from .scene import SceneConfig
from .solvers import SolveFailure, damped_newton
from .volume import volume_energy, enclosed_volume

MAX_RETRIES = 20


class StepFailure(RuntimeError):
    """A step that gave up; ``kappa`` is the contact stiffness it reached."""

    def __init__(self, step_index: int, message: str, kappa: float,
                 report=None):
        super().__init__(f"step {step_index}: {message}")
        self.step_index = step_index
        self.kappa = kappa
        self.report = report


@dataclass
class TrajectoryRecord:
    """One sample row; ``columns`` fixes the CSV order."""

    time: float
    com: np.ndarray
    kinetic: float
    elastic: float
    contact: float
    gravity_potential: float
    volume: float
    deepest_gap: float
    max_slide_speed: float
    kappa: float
    region_volumes: dict

    @staticmethod
    def columns(region_names):
        base = ["time", "com_x", "com_y", "com_z", "kinetic", "elastic",
                "contact_energy", "gravity_potential", "volume_energy",
                "deepest_gap", "max_slide_speed", "kappa"]
        return base + [f"vol_{name}" for name in region_names]

    def row(self, region_names):
        vals = [self.time, self.com[0], self.com[1], self.com[2],
                self.kinetic, self.elastic, self.contact,
                self.gravity_potential, self.volume, self.deepest_gap,
                self.max_slide_speed, self.kappa]
        return vals + [self.region_volumes[n] for n in region_names]

    @property
    def total_energy(self):
        return (self.kinetic + self.elastic + self.contact
                + self.gravity_potential + self.volume)


@dataclass
class StepInfo:
    """What an accepted step did: its kappa retries and the solver report of
    every solve, retries and lagged passes included, in order."""

    index: int
    retries: int
    reports: list = field(default_factory=list)


class Simulation:
    """Owns the state and advances it one accepted step at a time."""

    def __init__(self, scene: SceneConfig):
        self.scene = scene
        self.model: ForceModel = scene.build_model()
        self.state = SystemState(scene.initial_q.copy(),
                                 scene.initial_v.copy(), 0.0)
        self.prev_state: SystemState | None = None
        self.h = scene.step
        self.scheme: Scheme = make_scheme(
            scene.integrator, lagged=scene.friction_mode == "lagged")
        self.step_index = 0
        self._contact: ContactState | None = None

    def contact(self) -> ContactState:
        """The contact state of :attr:`state`, built at its first use."""
        self._contact = self._contact or self.model.build_contact_state(
            self.state.q, self.state.v, self.state.t, self.h)
        return self._contact

    # -- solving ----------------------------------------------------------------
    def _solve(self, problem: StageProblem, v0, guess=None):
        return damped_newton(problem, v0, self.scene.solver, guess=guess)

    def advance(self) -> StepInfo:
        """One accepted step, including kappa retries and lagged iterations;
        a failed step raises and leaves the simulation as it found it."""
        st = self.state
        h = self.h
        model = self.model
        pen = model.penalty
        kappa0 = pen.kappa
        contact = self.contact()
        extra = np.zeros((0, 2), int)  # penetrating pairs of earlier tries
        info = StepInfo(index=self.step_index, retries=0)
        prev = self.prev_state

        def fail(message, report=None):
            exc = StepFailure(self.step_index, message, pen.kappa, report)
            pen.kappa = kappa0  # the step's start kappa
            return exc

        while True:
            try:
                result = self.scheme.step(model, contact, st, h, self._solve,
                                          prev=prev)
                info.reports.extend(result.reports)
                for _ in range(self.scene.fixed_point_iters - 1
                               if contact.cset.size else 0):
                    lagged = model.rebuild_lagged(contact, result.q, st.t + h)
                    result = self.scheme.step(model, lagged, st, h,
                                              self._solve, prev=prev,
                                              v0=result.v)
                    info.reports.extend(result.reports)
                    if not any(r.iterations for r in result.reports):
                        break  # a fixed point: later passes repeat it
            except SolveFailure as exc:
                raise fail(f"{exc} [{exc.report.status}]", exc.report) from exc
            end = model.build_contact_state(result.q, result.v, st.t + h, h)
            if end.cset.deepest > 0.0:
                break
            kappa = adaptive_stiffen(end.cset.deepest, pen)
            if kappa > KAPPA_MAX:
                raise fail(f"contact stiffness {kappa:.3e} would exceed the "
                           f"cap {KAPPA_MAX:.3e}; reduce the time step h")
            pen.kappa = kappa
            info.retries += 1
            if info.retries > MAX_RETRIES:
                raise fail(f"contact not resolved after {MAX_RETRIES} kappa "
                           "retries")
            pairs = np.stack([end.cset.vertex, end.cset.obstacle], axis=1)
            extra = np.concatenate([extra, pairs[end.cset.d < 0.0]])
            contact = model.build_contact_state(st.q, st.v, st.t, h,
                                                extra_candidates=extra)
        self.prev_state = st
        self.state = SystemState(result.q, result.v, st.t + h)
        self._contact = end
        self.state.assert_finite()
        self.step_index += 1
        return info

    # -- observation --------------------------------------------------------------
    def record(self) -> TrajectoryRecord:
        st = self.state
        model = self.model
        mesh = model.mesh
        mass = mesh.vertex_mass
        x = st.positions()
        v = st.velocities()
        com = (mass[:, None] * x).sum(axis=0) / mass.sum()
        kinetic = 0.5 * float(np.sum(mass[:, None] * v * v))
        elastic = float(elastic_energy(mesh, st.q))
        grav = -float(np.sum(mass[:, None] * model.gravity[None, :] * x))
        # the snapshot is at (q, t); energy sums the h = 0 set's pairs
        cset = self.contact().cset
        pen = model.penalty
        d = cset.d[cset.d < 1.5 * pen.delta]
        contact_e = float(np.sum(penalty_b(d, pen.delta, pen.kappa)))
        vt = tangential_velocity(cset, st.v, st.t)
        max_slide = float(np.linalg.norm(vt[cset.lam > 0.0], axis=1)
                          .max(initial=0.0))
        vol_e = 0.0
        region_volumes = {}
        for vp in model.volume_penalties:
            vcur, _ = enclosed_volume(vp.tables(), st.q)
            region_volumes[vp.name] = float(vcur)
            vol_e += float(volume_energy(vcur, vp))
        return TrajectoryRecord(
            time=st.t, com=com, kinetic=kinetic, elastic=elastic,
            contact=contact_e, gravity_potential=grav, volume=vol_e,
            deepest_gap=cset.deepest, max_slide_speed=max_slide,
            kappa=model.penalty.kappa,
            region_volumes=region_volumes)


def run_simulation(scene: SceneConfig, duration: float | None = None):
    """Run a scene; returns (records, snapshots, infos).

    Records are sampled every ``output.trajectory_every`` steps (always
    including the initial and final states); snapshots are (step, positions)
    tuples at the configured rate.
    """
    sim = Simulation(scene)
    duration = scene.duration if duration is None else duration
    n_steps = int(round(duration / scene.step))
    every = scene.output["trajectory_every"]
    snap_every = scene.output["snapshot_every"]
    records = [sim.record()]
    snapshots = []
    infos = []
    if snap_every > 0:
        snapshots.append((0, sim.state.positions().copy()))
    for k in range(n_steps):
        info = sim.advance()
        infos.append(info)
        if (k + 1) % every == 0 or k == n_steps - 1:
            records.append(sim.record())
        if snap_every > 0 and ((k + 1) % snap_every == 0 or k == n_steps - 1):
            snapshots.append((k + 1, sim.state.positions().copy()))
    return records, snapshots, infos
