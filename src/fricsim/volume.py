"""Enclosed-volume measurement and volume-change penalties.

The enclosed volume of a closed, outward-oriented triangle region is the
divergence-theorem sum V = sum det(p1, p2, p3) / 6.  Three penalty models act
on V (compression coefficient kappa_v in atm^-1, initial pressure P0 in atm;
converted to SI internally, energies in joules):

    ideal gas:              W_ig = P0 (V - V0 (1 + ln(V/V0)))
    nearly incompressible:  W_ni = (1/kappa_v)(V0 - V (1 - ln(V/V0)))
    quadratic:              W_2  = (V - V0)^2 / (2 V0 kappa_v)

All three vanish with zero slope at V = V0 and share the curvature
1/(V0 kappa_v) there (for the ideal gas when kappa_v = 1/P0).  The log models
are undefined for V <= 0; the quadratic model is the safe default, and the
ideal-gas model is recommended when |V - V0|/V0 may exceed ~0.2.

V, g = dV/dq and the Hessian blocks are gathers of flat q over index
tables (:class:`RegionTables`) that depend only on the region's triangles;
each region builds them once, at its first evaluation, and keeps them
(:meth:`VolumePenaltyParams.tables`).  Corner k's cross product
c_k = p_{k+1} x p_{k+2} is q[a1] q[b2] - q[a2] q[b1] for all corners at
once, with (3 n_t, 3) corner-major rows: the same products, in the same
order, as a per-corner cross product, so V = sum p_0 . c_0 / 6 and g, the
per-slot sum of c_k / 6 in corner order, keep their bits.  The Hessian
blocks are q / 6 gathered into the -skew / skew pattern and signed; since
(-p) / 6 = -(p / 6) exactly, they keep their bits too, signed zeros
included.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import dual as dm
from .mesh import check_closed_oriented

ATM = 101325.0  # Pa

__all__ = ["ATM", "VolumePenaltyParams", "VolumeDomainError", "RegionTables",
           "enclosed_volume", "volume_energy", "volume_force", "volume_law",
           "volume_hessian_blocks", "volume_hessian_pairs"]


class VolumeDomainError(ValueError):
    pass


@dataclass
class VolumePenaltyParams:
    """Penalty model acting on the volume enclosed by ``region`` triangles."""

    region: np.ndarray                  # (n_t, 3) closed, outward-oriented
    model: str = "quadratic"            # quadratic | ideal_gas | nearly_incompressible
    kappa_v_atm: float = 1.0            # compression coefficient (atm^-1)
    p0_atm: float = 1.0                 # initial pressure (atm)
    rest_volume: float | None = None    # V0 (m^3); measured at rest if None
    name: str = "volume"
    _tables: RegionTables | None = field(default=None, init=False,
                                         repr=False, compare=False)

    def __post_init__(self):
        self.region = np.asarray(self.region, int)
        if self.model not in ("quadratic", "ideal_gas",
                              "nearly_incompressible"):
            raise ValueError(f"unknown volume model {self.model!r}")
        if self.kappa_v_atm <= 0 or self.p0_atm <= 0:
            raise ValueError("kappa_v and P0 must be positive")
        if not check_closed_oriented(self.region):
            raise VolumeDomainError(
                "volume region must be a closed oriented surface")

    @property
    def kappa_v(self) -> float:
        """Compression coefficient in Pa^-1."""
        return self.kappa_v_atm / ATM

    @property
    def p0(self) -> float:
        """Initial pressure in Pa."""
        return self.p0_atm * ATM

    def tables(self) -> RegionTables:
        """The region's :class:`RegionTables`, built at the first call
        (cached; they depend only on ``region``)."""
        if self._tables is None:
            self._tables = RegionTables(self.region)
        return self._tables


# Vertex pairs of the six off-diagonal d2V/dp dp blocks of every triangle,
# as columns of the region; no diagonal blocks.  The block of pair (a, b)
# is +-skew(p_c) / 6 of the third corner c (_THIRD_CORNER), and skew(p)
# has entry (r, s) +-p[_SKEW_COMPONENT[r, s]] off its diagonal.
# _BLOCK_SIGN holds the product of both signs off the diagonal and the
# block's sign on it, so a -skew block's diagonal is -0.0.
_HESSIAN_PAIRS = ((0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2))
_THIRD_CORNER = np.array([2, 2, 0, 0, 1, 1])
_SKEW_COMPONENT = np.array([[0, 2, 1], [2, 0, 0], [1, 0, 0]])
_OFF_DIAGONAL = 1 - np.eye(3, dtype=int)
_BLOCK_SIGN = (np.array([-1.0, 1.0, -1.0, 1.0, -1.0, 1.0])[:, None, None, None]
               * np.array([[1.0, -1.0, 1.0], [1.0, 1.0, -1.0],
                           [-1.0, 1.0, 1.0]]))
_COMPONENT = np.arange(3)
_NEXT = np.array([[1, 2, 0], [2, 0, 1]])   # i + 1 and i + 2, mod 3


class RegionTables:
    """Index tables of one closed triangle region into flat q; they depend
    only on the triangles, and :meth:`VolumePenaltyParams.tables` builds
    them once per region.

    Rows are corner-major: row k n_t + t is corner k of triangle t, whose
    cross product c_k = p_{k+1} x p_{k+2} (corners mod 3) has component i
    a_{i+1} b_{i+2} - a_{i+2} b_{i+1} with a = p_{k+1}, b = p_{k+2}.  So
    ``a1``, ``a2``, ``b1`` and ``b2`` are (3 n_t, 3) gathers of those
    factors, ``first`` (n_t, 3) gathers corner 0's position and ``slots``
    are the flat dofs that corner k's c_k / 6 adds into, in ``dm.spread``'s
    order.  ``index`` (6, n_t, 3, 3) gathers the Hessian blocks' entries
    from x = [0, q / 6]: entry (r, s) of a block of third corner c is
    p_c[_SKEW_COMPONENT[r, s]] / 6, and its diagonal is the leading 0.
    """

    def __init__(self, region):
        tris = np.asarray(region, int)
        self.n_t = len(tris)
        dof = np.ascontiguousarray(3 * tris.T)             # (3, n_t) corners
        pos = dof[:, :, None] + _COMPONENT                 # (3, n_t, 3)
        self.first, self.slots = pos[0], pos.ravel()
        # [u, w, k, t, i]: component i + 1 + w of corner k + 1 + u
        factors = dof[_NEXT][:, None, :, :, None] + _NEXT[:, None, None]
        self.a1, self.a2, self.b1, self.b2 = factors.reshape(4, -1, 3)
        third = dof[_THIRD_CORNER][:, :, None, None]
        self.index = (1 + third + _SKEW_COMPONENT) * _OFF_DIAGONAL


def _tables(region) -> RegionTables:
    """``region``'s tables: as given, or built from an (n_t, 3) array."""
    return region if isinstance(region, RegionTables) else RegionTables(region)


def enclosed_volume(region, q):
    """(V, dV/dq): signed enclosed volume and its exact gradient, both
    generic over Dual q, from ``region``'s :class:`RegionTables` (or its
    (n_t, 3) triangles); V and the gradient share the corner products."""
    tab = _tables(region)
    q = q.reshape(-1)
    c = q[tab.a1] * q[tab.b2] - q[tab.a2] * q[tab.b1]
    v = dm.dot_last(q[tab.first], c[:tab.n_t]).sum() / 6.0
    return v, dm.bincount(tab.slots, c / 6.0, len(q))


def volume_law(v, params: VolumePenaltyParams):
    """(W, dW/dV, d2W/dV2) of the params' model at volume v (m^3), with
    V0 = ``params.rest_volume``; generic over Dual v.  Nothing here checks
    V > 0: the log models' W, W' and W'' are not finite there."""
    v0 = params.rest_volume
    if v0 is None or v0 <= 0:
        raise VolumeDomainError("rest volume V0 must be positive")
    kv = params.kappa_v
    if params.model == "quadratic":
        return ((v - v0) ** 2 / (2.0 * v0 * kv), (v - v0) / (v0 * kv),
                1.0 / (v0 * kv))
    ratio = dm.log(v / v0)
    off = 0.0 * ratio  # NaN at V <= 0: W' + off and W'' + off are not finite
    if params.model == "ideal_gas":
        # d/dV [P0 (V - V0 - V0 ln(V/V0))] = P0 (1 - V0/V)
        return (params.p0 * (v - v0 * (1.0 + ratio)),
                params.p0 * (1.0 - v0 / v) + off,
                params.p0 * v0 / v ** 2 + off)
    # d/dV [(V0 - V + V ln(V/V0))/kv] = ln(V/V0)/kv
    return (v0 - v * (1.0 - ratio)) / kv, ratio / kv, 1.0 / (v * kv) + off


def volume_energy(v, params: VolumePenaltyParams):
    """Penalty energy (J) at volume v (m^3); zero with zero slope at V0."""
    return volume_law(v, params)[0]


def volume_force(q, params: VolumePenaltyParams):
    """f_v = -dW/dV * dV/dq over ``params.region``; expansive when
    compressed.  Generic over Dual q."""
    v, grad = enclosed_volume(params.tables(), q)
    return -(volume_law(v, params)[1] * grad)


def volume_hessian_pairs(region):
    """(vi, vj) vertex pairs of the blocks of :func:`volume_hessian_blocks`,
    in its order; they depend only on the region."""
    tris = np.asarray(region, int)
    return (np.concatenate([tris[:, a] for a, _ in _HESSIAN_PAIRS]),
            np.concatenate([tris[:, b] for _, b in _HESSIAN_PAIRS]))


def volume_hessian_blocks(region, q):
    """3x3 blocks (6 n_t, 3, 3) of d2V/dq2 at real q, at
    :func:`volume_hessian_pairs`, from ``region``'s :class:`RegionTables`
    (or its (n_t, 3) triangles).

    Per triangle (a, b, c): d2 det/dp_a dp_b = -skew(p_c) etc.; six
    off-diagonal blocks per triangle, no diagonal blocks.  The diagonal
    entries gather the leading zero, so they are +0.0 or -0.0 by sign.
    """
    tab = _tables(region)
    q = np.asarray(q, float).reshape(-1)
    x = np.empty(len(q) + 1)
    x[0] = 0.0
    np.divide(q, 6.0, out=x[1:])
    blocks = x[tab.index]
    blocks *= _BLOCK_SIGN
    return blocks.reshape(-1, 3, 3)
