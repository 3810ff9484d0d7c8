"""Penalty contact against analytic implicit obstacles.

Obstacles are half-spaces and spheres with scripted rigid motion.  The gap of
a vertex is its signed distance to the obstacle surface (positive on the
allowed side, well-defined for penetration).  Contact energy is the cubic
penalty

    b(x; delta, kappa) = -kappa/delta (x - delta)^3   for x < delta, else 0

whose value, first and second derivatives all vanish at x = delta.  The
contact force magnitude is lambda = -b'(d) >= 0, applied along the gap
gradient.  kappa is raised adaptively until end-of-step gaps are positive.

A :class:`ContactSet` carries its pairs' geometry at its build positions
(:func:`snapshot`, one ``gap_normal`` call per obstacle); lagged friction's
anchor is such a set.  :func:`contact_geometry` evaluates each obstacle's
gap, normal and surface velocity once for all of its contacts at live
positions, for the residual's contact-and-friction kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import dual as dm

__all__ = [
    "PenaltyParams", "RigidMotion", "HalfSpace", "Sphere", "ContactSet",
    "gaps", "snapshot", "penalty_b", "penalty_db", "penalty_lambda",
    "per_obstacle", "contact_geometry", "surface_velocities", "contact_force",
    "adaptive_stiffen", "StiffeningError", "AdaptDecision",
]


class StiffeningError(RuntimeError):
    pass


@dataclass
class PenaltyParams:
    """Cubic-penalty parameters; kappa is mutable (adaptive stiffening)."""

    delta: float                 # thickness tolerance (m)
    kappa: float                 # contact stiffness (N/m^2)
    kappa_max: float = 1e16      # safety cap

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if not 0 < self.kappa <= self.kappa_max:
            raise ValueError("kappa must satisfy 0 < kappa <= kappa_max")


def penalty_b(x, delta: float, kappa: float):
    """Cubic contact penalty energy (J); zero for x >= delta."""
    shifted = x - delta
    return dm.where(x < delta, (-kappa / delta) * shifted ** 3, 0.0 * shifted)


def penalty_db(x, delta: float, kappa: float):
    shifted = x - delta
    return dm.where(x < delta, (-3.0 * kappa / delta) * shifted ** 2,
                    0.0 * shifted)


def penalty_lambda(d, delta: float, kappa: float):
    """Contact force magnitude lambda = -b'(d) >= 0 (N)."""
    return -penalty_db(d, delta, kappa)


@dataclass
class RigidMotion:
    """Scripted rigid trajectory: piecewise-linear translation keyframes plus
    optional constant-axis rotation with piecewise-linear angle keyframes.

    Keyframes hold their end values, so the motion is evaluable at any t >= 0.
    """

    translation: list = field(default_factory=list)   # [(t, (3,) offset), ...]
    rotation_axis: np.ndarray | None = None           # unit axis
    rotation_pivot: np.ndarray = field(
        default_factory=lambda: np.zeros(3))
    rotation_angles: list = field(default_factory=list)  # [(t, angle rad), ...]

    def __post_init__(self):
        self.translation = [(float(t), np.asarray(o, float))
                            for t, o in self.translation]
        self.translation.sort(key=lambda p: p[0])
        self.rotation_angles = [(float(t), float(a))
                                for t, a in self.rotation_angles]
        self.rotation_angles.sort(key=lambda p: p[0])
        if self.rotation_axis is not None:
            axis = np.asarray(self.rotation_axis, float)
            self.rotation_axis = axis / np.linalg.norm(axis)
        self.rotation_pivot = np.asarray(self.rotation_pivot, float)

    @staticmethod
    def _interp(keys, t):
        """Piecewise-linear value and slope at t; holds outside the range."""
        if not keys:
            return None, None
        times = [k[0] for k in keys]
        if t <= times[0]:
            return keys[0][1], keys[0][1] * 0.0
        if t >= times[-1]:
            return keys[-1][1], keys[-1][1] * 0.0
        idx = np.searchsorted(times, t, side="right") - 1
        t0, v0 = keys[idx]
        t1, v1 = keys[idx + 1]
        w = (t - t0) / (t1 - t0)
        slope = (v1 - v0) / (t1 - t0)
        return v0 + w * (v1 - v0), slope

    def offset(self, t: float) -> np.ndarray:
        val, _ = self._interp(self.translation, t)
        return np.zeros(3) if val is None else val

    def linear_velocity(self, t: float) -> np.ndarray:
        _, slope = self._interp(self.translation, t)
        return np.zeros(3) if slope is None else slope

    def angle(self, t: float) -> float:
        val, _ = self._interp(self.rotation_angles, t)
        return 0.0 if val is None else val

    def angular_velocity(self, t: float) -> np.ndarray:
        if self.rotation_axis is None:
            return np.zeros(3)
        _, slope = self._interp(self.rotation_angles, t)
        return self.rotation_axis * (0.0 if slope is None else slope)

    def rotation(self, t: float) -> np.ndarray:
        if self.rotation_axis is None:
            return np.eye(3)
        ang = self.angle(t)
        k = self.rotation_axis
        kx = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
        return np.eye(3) + np.sin(ang) * kx + (1 - np.cos(ang)) * (kx @ kx)


_STATIC = RigidMotion()


class _ObstacleBase:
    """Shared scripted-motion plumbing; subclasses provide base geometry."""

    def __init__(self, friction=None, motion: RigidMotion | None = None,
                 name: str = ""):
        self.friction = friction
        self.motion = motion or _STATIC
        self.name = name

    def _frame(self, t: float):
        r = self.motion.rotation(t)
        off = self.motion.offset(t)
        return r, off

    def gap(self, x, t: float):
        return self.gap_normal(x, t)[0]

    def surface_velocity(self, x, t: float):
        """Material velocity of the obstacle point currently at x (generic)."""
        vlin = self.motion.linear_velocity(t)
        omega = self.motion.angular_velocity(t)
        if np.all(omega == 0.0):
            return vlin + 0.0 * x
        center = self.motion.rotation_pivot + self.motion.offset(t)
        arm = x - center
        w = np.broadcast_to(omega, np.shape(dm.value(x)))
        return vlin + dm.cross_last(w, arm)


class HalfSpace(_ObstacleBase):
    """Allowed region {x : n.(x - p) >= 0}; gap is the plane distance."""

    def __init__(self, point, normal, friction=None, motion=None, name=""):
        super().__init__(friction, motion, name)
        self.point = np.asarray(point, float)
        normal = np.asarray(normal, float)
        nrm = np.linalg.norm(normal)
        if nrm == 0:
            raise ValueError("half-space normal must be nonzero")
        self.normal = normal / nrm

    def gap_normal(self, x, t: float):
        """(gap, unit gradient of gap) — generic over Dual x."""
        r, off = self._frame(t)
        n = r @ self.normal
        p = r @ (self.point - self.motion.rotation_pivot) \
            + self.motion.rotation_pivot + off
        nb = np.broadcast_to(n, np.shape(dm.value(x)))
        return dm.dot_last(x - p, nb), np.array(nb)


class Sphere(_ObstacleBase):
    """Sphere obstacle; ``contains=False`` keeps vertices outside it,
    ``contains=True`` makes it a container keeping vertices inside."""

    def __init__(self, center, radius, contains=False, friction=None,
                 motion=None, name=""):
        super().__init__(friction, motion, name)
        if radius <= 0:
            raise ValueError("sphere radius must be positive")
        self.center = np.asarray(center, float)
        self.radius = float(radius)
        self.contains = bool(contains)

    def _center(self, t: float):
        r, off = self._frame(t)
        return r @ (self.center - self.motion.rotation_pivot) \
            + self.motion.rotation_pivot + off

    def gap_normal(self, x, t: float):
        rel = x - self._center(t)
        dist = dm.norm_last(rel)
        unit = rel / dist[..., None]
        d = (self.radius - dist) if self.contains else (dist - self.radius)
        return d, (-unit if self.contains else unit)


@dataclass
class ContactSet:
    """Frozen vertex-obstacle candidate pairs with a geometry snapshot.

    The snapshot (x, d, lam, n) is taken at the positions and time the set
    was built from; live evaluation recomputes it at the query state.
    """

    vertex: np.ndarray                  # (k,) vertex indices
    obstacle: np.ndarray                # (k,) obstacle indices
    x: np.ndarray                       # (k, 3) build positions
    d: np.ndarray                       # (k,) gaps at x
    lam: np.ndarray                     # (k,) -b'(d)
    n: np.ndarray                       # (k, 3) unit normals at x
    obstacles: list = field(default_factory=list, repr=False)
    deepest: float = np.inf             # least gap of the scan in gaps

    @property
    def size(self) -> int:
        return len(self.vertex)

    @cached_property
    def friction_coeffs(self) -> np.ndarray:
        """(k, 5) friction coefficients of each contact's obstacle (columns
        as in ``friction.obstacle_coeffs``), gathered once per set."""
        from .friction import obstacle_coeffs  # friction imports this module
        return obstacle_coeffs(self.obstacles)[self.obstacle]


def gaps(obstacles: list, q, t: float, penalty: PenaltyParams,
         candidate_vertices=None, activation=None, extra=None) -> ContactSet:
    """Build the contact candidate set from current positions.

    Candidates are the (vertex, obstacle) pairs with gap below
    ``activation`` (a scalar or one value per candidate vertex; default
    1.5*delta, the penalty support plus a margin for set stability across
    one solve), unioned with the ``extra`` (n, 2) array of (vertex,
    obstacle) pairs.  Pairs come out sorted by vertex, then obstacle, without
    repeats.  ``penalty`` may be None when there are no pairs.
    """
    if activation is None:
        activation = 1.5 * penalty.delta
    x = np.asarray(q, float).reshape(-1, 3)
    cand = (np.arange(len(x)) if candidate_vertices is None
            else np.asarray(candidate_vertices, int))
    g = np.array([obs.gap(x[cand], t) for obs in obstacles],
                 float).reshape(len(obstacles), len(cand))
    obstacle, near = np.nonzero(g < activation)
    pairs = np.stack([cand[near], obstacle], axis=1)
    if extra is not None:
        pairs = np.concatenate([pairs, extra])
    vertex, obstacle = np.unique(pairs, axis=0).T
    cset = snapshot(obstacles, vertex, obstacle, q, t, penalty)
    cset.deepest = float(g.min(initial=np.inf))
    return cset


def snapshot(obstacles, vertex, obstacle, q, t: float,
             penalty: PenaltyParams) -> ContactSet:
    """The pairs of ``vertex`` (k,) and ``obstacles[obstacle]`` (k,) as a
    set whose snapshot is taken at (q, t), with one ``gap_normal`` call per
    obstacle.  ``penalty`` may be None when there are no pairs."""
    x = np.asarray(q, float).reshape(-1, 3)[vertex]
    d, n = np.zeros(0), np.zeros((0, 3))
    if len(vertex):
        d, n = per_obstacle(lambda obs, xo: obs.gap_normal(xo, t),
                            obstacles, obstacle, x)
    lam = penalty_lambda(d, penalty.delta, penalty.kappa) if len(d) else d
    return ContactSet(vertex=vertex, obstacle=obstacle, x=x, d=d, lam=lam,
                      n=n, obstacles=list(obstacles))


def per_obstacle(fn, obstacles, obstacle, x):
    """The outputs of ``fn(obs, x_o)``, a tuple of per-row arrays, for the
    rows of x (k, 3) in contact with ``obstacles[obstacle]`` (k,): one call
    per obstacle on its own rows x_o, results back in the row order of x.
    Generic over Dual x."""
    present = np.unique(obstacle)
    if len(present) == 1:
        return fn(obstacles[present[0]], x)
    rows = [np.nonzero(obstacle == oi)[0] for oi in present]
    outs = [fn(obstacles[oi], x[r]) for oi, r in zip(present, rows)]
    order = np.argsort(np.concatenate(rows))
    return tuple(dm.concat(part)[order] for part in zip(*outs))


def contact_geometry(obstacles, obstacle, x, t: float):
    """(gap (k,), unit normal (k, 3), obstacle surface velocity (k, 3)) of
    the positions x (k, 3) against ``obstacles[obstacle]``, with one
    ``gap_normal`` and one ``surface_velocity`` call per obstacle; generic
    over Dual x.  Without rows (perhaps without obstacles) it gives empty
    real arrays."""
    if not len(obstacle):
        return np.zeros(0), np.zeros((0, 3)), np.zeros((0, 3))
    return per_obstacle(lambda obs, xo: (*obs.gap_normal(xo, t),
                                         obs.surface_velocity(xo, t)),
                        obstacles, obstacle, x)


def contact_force(cset: ContactSet, obstacles, q, t: float,
                  penalty: PenaltyParams):
    """Generalized penalty force f_c (m,) of the frozen set: lambda(d) grad d
    at each contact.

    Generic over Dual q; geometry is evaluated live at q for the frozen set.
    """
    x = q.reshape(-1, 3)
    d, n, _ = contact_geometry(obstacles, cset.obstacle, x[cset.vertex], t)
    f = penalty_lambda(d, penalty.delta, penalty.kappa)[..., None] * n
    return dm.scatter_add(dm.zeros(x.shape, like=q), cset.vertex,
                          f).reshape(-1)


def surface_velocities(obstacles, obstacle, x, t: float) -> np.ndarray:
    """Surface velocities (k, 3) of ``obstacles[obstacle]`` at the positions
    x (k, 3), with one ``surface_velocity`` call per obstacle."""
    if not len(obstacle):
        return np.zeros((0, 3))
    return per_obstacle(lambda obs, xo: (obs.surface_velocity(xo, t),),
                        obstacles, obstacle, x)[0]


def contact_energy(cset: ContactSet, obstacles, q, t: float,
                   penalty: PenaltyParams):
    """Aggregate penalty energy W_c at q for the frozen set."""
    d = snapshot(obstacles, cset.vertex, cset.obstacle, dm.value(q), t,
                 penalty).d
    return float(np.sum(penalty_b(d, penalty.delta, penalty.kappa)))


def tangential_velocity(cset: ContactSet, v, t: float) -> np.ndarray:
    """Relative tangential velocities (k, 3) at the set's snapshot: v minus
    the obstacle surface motion at each build position x, projected onto
    the tangent plane of the snapshot normal; t is the snapshot's time."""
    w = surface_velocities(cset.obstacles, cset.obstacle, cset.x, t)
    rel = np.asarray(v, float).reshape(-1, 3)[cset.vertex] - w
    return rel - dm.dot_last(rel, cset.n)[:, None] * cset.n


@dataclass
class AdaptDecision:
    accept: bool
    kappa: float
    factor: float = 1.0


def adaptive_stiffen(d_deepest: float, penalty: PenaltyParams) -> AdaptDecision:
    """Accept the step, or bump kappa by b'(d_deepest)/b'(0.5 delta) and
    signal a retry.  kappa never decreases; exceeding kappa_max is an error
    (the step size is too large for the contact to resolve).

    Acceptance requires strictly positive gaps, so an exact zero still bumps
    (factor 4); for any d < 0 the ratio of squared cubic derivatives gives a
    factor > 4.
    """
    if d_deepest > 0.0:
        return AdaptDecision(accept=True, kappa=penalty.kappa)
    delta, kappa = penalty.delta, penalty.kappa
    factor = (penalty_db(d_deepest, delta, kappa)
              / penalty_db(0.5 * delta, delta, kappa))
    new_kappa = kappa * factor
    if new_kappa > penalty.kappa_max:
        raise StiffeningError(
            f"contact stiffness {new_kappa:.3e} would exceed the cap "
            f"{penalty.kappa_max:.3e}; reduce the time step h")
    return AdaptDecision(accept=False, kappa=float(new_kappa),
                         factor=float(factor))
