"""Penalty contact against analytic implicit obstacles.

Obstacles are half-spaces and spheres with scripted rigid motion.  The gap of
a vertex is its signed distance to the obstacle surface (positive on the
allowed side, well-defined for penetration).  Contact energy is the cubic
penalty

    b(x; delta, kappa) = -kappa/delta (x - delta)^3   for x < delta, else 0

whose value, first and second derivatives all vanish at x = delta.  The
contact force magnitude is lambda = -b'(d) >= 0, applied along the gap
gradient.  kappa is raised adaptively until end-of-step gaps are positive.

A model's obstacles are one :class:`ObstacleTable`: static rows of their
geometry and friction coefficients, and frames moved once per distinct
time.  The scan of :func:`gaps`, a :class:`ContactSet`'s snapshot at its
build positions (:func:`snapshot`; lagged friction's anchor is such a set)
and the residual's contact-and-friction kernel at live positions gather
their contacts' rows from it by obstacle index.  A set carries the table it
was built from, and every query of the set reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import dual as dm

__all__ = [
    "PenaltyParams", "RigidMotion", "HalfSpace", "Sphere", "ContactSet",
    "ObstacleTable", "gaps", "snapshot", "penalty_b", "penalty_db",
    "penalty_lambda", "adaptive_stiffen",
    "StiffeningError", "AdaptDecision", "KAPPA_MAX",
]

KAPPA_MAX = 1e16  # cap on the contact stiffness kappa (N/m^2)


class StiffeningError(RuntimeError):
    pass


@dataclass
class PenaltyParams:
    """Cubic-penalty parameters; kappa is mutable (adaptive stiffening)."""

    delta: float                 # thickness tolerance (m)
    kappa: float                 # contact stiffness (N/m^2)

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if not 0 < self.kappa <= KAPPA_MAX:
            raise ValueError(f"kappa must satisfy 0 < kappa <= KAPPA_MAX = "
                             f"{KAPPA_MAX:.0e}, got {self.kappa!r}")


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


def unit(v, what: str) -> np.ndarray:
    """``v`` over its length; ValueError naming ``what`` if ``v`` is zero."""
    v = np.asarray(v, float)
    nrm = np.linalg.norm(v)
    if nrm == 0:
        raise ValueError(f"{what} must be nonzero")
    return v / nrm


def rotation(k, angle) -> np.ndarray:
    """Rodrigues rotation (3, 3) by ``angle`` about the unit axis k."""
    kx = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    return np.eye(3) + np.sin(angle) * kx + (1 - np.cos(angle)) * (kx @ kx)


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
            self.rotation_axis = unit(self.rotation_axis, "rotation axis")
        self.rotation_pivot = np.asarray(self.rotation_pivot, float)

    @staticmethod
    def _interp(keys, t, default):
        """Piecewise-linear value and slope at t (``default`` if no keys)."""
        if not keys:
            return default, default * 0.0
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

    def frame(self, t: float):
        """(rotation (3, 3), offset, linear and angular velocity) at t."""
        off, vlin = self._interp(self.translation, t, np.zeros(3))
        if self.rotation_axis is None:
            return np.eye(3), off, vlin, np.zeros(3)
        ang, rate = self._interp(self.rotation_angles, t, 0.0)
        k = self.rotation_axis
        return rotation(k, ang), off, vlin, k * rate


_STATIC = RigidMotion()


class _ObstacleBase:
    """Friction, scripted motion and name; the geometry of obstacles is
    queried through their :class:`ObstacleTable`."""

    def __init__(self, friction=None, motion: RigidMotion | None = None,
                 name: str = ""):
        self.friction = friction
        self.motion = motion or _STATIC
        self.name = name


class HalfSpace(_ObstacleBase):
    """Allowed region {x : n.(x - p) >= 0}; gap is the plane distance."""

    def __init__(self, point, normal, friction=None, motion=None, name=""):
        super().__init__(friction, motion, name)
        self.point = np.asarray(point, float)
        self.normal = unit(normal, "half-space normal")


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


class ObstacleTable:
    """Obstacles as arrays: per obstacle its kind ``sign`` (0 half-space, +1
    ball, -1 container), ``base`` point or centre, ``normal``, ``radius``,
    ``pivot`` and ``friction`` row, and its :meth:`frames`.  Each model owns
    its table, so models sharing one scene's obstacles share no frames."""

    def __init__(self, obstacles):
        self.obstacles = list(obstacles)
        rows = [(*o.point, *o.normal, 0.0, 0.0) if isinstance(o, HalfSpace)
                else (*o.center, 0.0, 0.0, 0.0, o.radius,
                      -1.0 if o.contains else 1.0) for o in self.obstacles]
        static = np.array(rows, float).reshape(len(rows), 8)
        self.base, self.normal = static[:, :3], static[:, 3:6]
        self.radius, self.sign = static[:, 6], static[:, 7]
        self.pivot = np.array([o.motion.rotation_pivot
                               for o in self.obstacles]).reshape(-1, 3)
        # columns mu_d, mu_s, mu_v, epsilon, v_s; an obstacle without
        # friction gets the row of FrictionParams(mu_d=0)
        self.friction = np.array(
            [(0.0, 0.0, 0.0, 1e-4, 1e-3) if (f := o.friction) is None
             else (f.mu_d, f.mu_s, f.mu_v, f.epsilon, f.v_s)
             for o in self.obstacles], float).reshape(-1, 5)
        self._memo = None  # (t, frames at t)

    def frames(self, t: float) -> np.ndarray:
        """(5, n_obs, 3) point or centre, normal, linear and angular velocity
        and rotation centre moved to t, evaluated once per distinct t."""
        memo = self._memo
        if memo is None or memo[0] != t:
            rows = []
            for o, base, normal, pivot in zip(self.obstacles, self.base,
                                              self.normal, self.pivot):
                r, off, vlin, omega = o.motion.frame(t)
                rows.append((r @ (base - pivot) + pivot + off, r @ normal,
                             vlin, omega, pivot + off))
            moved = np.array(rows, float).reshape(len(rows), 5, 3)
            memo = self._memo = (t, np.swapaxes(moved, 0, 1))
        return memo[1]

    def gap_normal(self, obstacle, x, t: float):
        """(gap (k,), unit gap gradient (k, 3)) of the positions x (k, 3)
        against the obstacles ``obstacle`` (k,): one expression per obstacle
        kind present, joined on the kind mask.  Generic over Dual x."""
        point, normal = self.frames(t)[:2]
        sign = self.sign[obstacle]
        ball = sign != 0.0
        rel = x - point[obstacle]
        if not ball.all():  # half-spaces: the plane distance
            n = normal[obstacle]
            d = dm.dot_last(rel, n)
            if not ball.any():
                return d, n
        dist = dm.norm_last(rel)  # spheres: the signed centre distance
        d_ball = (dist - self.radius[obstacle]) * sign
        n_ball = rel / dist[..., None] * sign[:, None]
        if ball.all():
            return d_ball, n_ball
        return dm.where(ball, d_ball, d), dm.where(ball[:, None], n_ball, n)

    def velocity(self, obstacle, x, t: float):
        """Surface velocities (k, 3) of the obstacles ``obstacle`` (k,) at
        the positions x (k, 3): the linear velocity, plus omega x (x - c)
        when some obstacle rotates at t.  Generic over Dual x."""
        _, _, vlin, omega, center = self.frames(t)
        w = vlin[obstacle]
        if np.any(omega != 0.0):
            w = w + dm.cross_last(omega[obstacle], x - center[obstacle])
        return w


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
    table: ObstacleTable = field(repr=False)
    deepest: float = np.inf             # least gap of the scan in gaps

    @property
    def size(self) -> int:
        return len(self.vertex)


def gaps(table: ObstacleTable, q, t: float, penalty: PenaltyParams,
         candidate_vertices=None, activation=None, extra=None) -> ContactSet:
    """Build the contact candidate set of the table's obstacles from current
    positions.

    Candidates are the (vertex, obstacle) pairs with gap below
    ``activation`` (a scalar or one value per candidate vertex; default
    1.5*delta, the penalty support plus a margin for set stability across
    one solve), unioned with the ``extra`` (n, 2) array of (vertex,
    obstacle) pairs.  Pairs come out sorted by vertex, then obstacle, without
    repeats.
    """
    if activation is None:
        activation = 1.5 * penalty.delta
    x = np.asarray(q, float).reshape(-1, 3)
    cand = (np.arange(len(x)) if candidate_vertices is None
            else np.asarray(candidate_vertices, int))
    n_obs = len(table.obstacles)
    g = table.gap_normal(np.repeat(np.arange(n_obs), len(cand)),
                         np.tile(x[cand], (n_obs, 1)), t)[0]
    g = g.reshape(n_obs, len(cand))
    obstacle, near = np.nonzero(g < activation)
    pairs = np.stack([cand[near], obstacle], axis=1)
    if extra is not None:
        pairs = np.concatenate([pairs, extra])
    vertex, obstacle = np.unique(pairs, axis=0).T
    cset = snapshot(table, vertex, obstacle, q, t, penalty)
    cset.deepest = float(g.min(initial=np.inf))
    return cset


def snapshot(table: ObstacleTable, vertex, obstacle, q, t: float,
             penalty: PenaltyParams) -> ContactSet:
    """The pairs of ``vertex`` (k,) and the table's obstacles ``obstacle``
    (k,) as a set whose snapshot is taken at (q, t), gathered from the
    table's frames at t."""
    x = np.asarray(q, float).reshape(-1, 3)[vertex]
    d, n = table.gap_normal(obstacle, x, t)
    lam = penalty_lambda(d, penalty.delta, penalty.kappa)
    return ContactSet(vertex=vertex, obstacle=obstacle, x=x, d=d, lam=lam,
                      n=n, table=table)


def contact_energy(cset: ContactSet, q, t: float, penalty: PenaltyParams):
    """Aggregate penalty energy W_c at q for the frozen set."""
    d = snapshot(cset.table, cset.vertex, cset.obstacle, dm.value(q), t,
                 penalty).d
    return float(np.sum(penalty_b(d, penalty.delta, penalty.kappa)))


def tangential_velocity(cset: ContactSet, v, t: float) -> np.ndarray:
    """Relative tangential velocities (k, 3) at the set's snapshot: v minus
    the obstacle surface motion at each build position x, projected onto
    the tangent plane of the snapshot normal; t is the snapshot's time."""
    w = cset.table.velocity(cset.obstacle, cset.x, t)
    rel = np.asarray(v, float).reshape(-1, 3)[cset.vertex] - w
    return rel - dm.dot_last(rel, cset.n)[:, None] * cset.n


@dataclass
class AdaptDecision:
    accept: bool
    kappa: float
    factor: float = 1.0


def adaptive_stiffen(d_deepest: float, penalty: PenaltyParams) -> AdaptDecision:
    """Accept the step, or bump kappa by b'(d_deepest)/b'(0.5 delta) and
    signal a retry.  kappa never decreases; exceeding KAPPA_MAX is an error
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
    if new_kappa > KAPPA_MAX:
        raise StiffeningError(
            f"contact stiffness {new_kappa:.3e} would exceed the cap "
            f"{KAPPA_MAX:.3e}; reduce the time step h")
    return AdaptDecision(accept=False, kappa=float(new_kappa),
                         factor=float(factor))
