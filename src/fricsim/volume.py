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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dual as dm
from .mesh import check_closed_oriented

ATM = 101325.0  # Pa

__all__ = ["ATM", "VolumePenaltyParams", "VolumeDomainError",
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


def enclosed_volume(region: np.ndarray, q):
    """(V, dV/dq): signed enclosed volume and its exact gradient, both
    generic over Dual q; the gradient's first term shares p2 x p3 with V."""
    tris = np.asarray(region, int)
    x = q.reshape(-1, 3)
    p1, p2, p3 = x[tris[:, 0]], x[tris[:, 1]], x[tris[:, 2]]
    c23 = dm.cross_last(p2, p3)
    v = dm.asum(dm.dot_last(p1, c23)) / 6.0
    # corner terms in column order, the order of three per-column scatters
    corners = dm.concat([c23, dm.cross_last(p3, p1), dm.cross_last(p1, p2)])
    grad = dm.spread(tris.T.ravel(), corners / 6.0, len(x))
    return v, grad.reshape(-1)


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
    v, grad = enclosed_volume(params.region, q)
    return -(volume_law(v, params)[1] * grad)


# Vertex pairs of the six off-diagonal d2V/dp dp blocks of every triangle,
# as columns of the region; no diagonal blocks.
_HESSIAN_PAIRS = ((0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2))


def volume_hessian_pairs(region):
    """(vi, vj) vertex pairs of the blocks of :func:`volume_hessian_blocks`,
    in its order; they depend only on the region."""
    tris = np.asarray(region, int)
    return (np.concatenate([tris[:, a] for a, _ in _HESSIAN_PAIRS]),
            np.concatenate([tris[:, b] for _, b in _HESSIAN_PAIRS]))


def volume_hessian_blocks(region, q):
    """3x3 blocks (6 n_t, 3, 3) of d2V/dq2, at :func:`volume_hessian_pairs`.

    Per triangle (a, b, c): d2 det/dp_a dp_b = -skew(p_c) etc.; six off-diagonal
    blocks per triangle, no diagonal blocks.
    """
    tris = np.asarray(region, int)
    x = np.asarray(q, float).reshape(-1, 3)
    pa, pb, pc = x[tris[:, 0]], x[tris[:, 1]], x[tris[:, 2]]

    def skew(v):
        k = np.zeros((len(v), 3, 3))
        k[:, 0, 1], k[:, 0, 2] = -v[:, 2], v[:, 1]
        k[:, 1, 0], k[:, 1, 2] = v[:, 2], -v[:, 0]
        k[:, 2, 0], k[:, 2, 1] = -v[:, 1], v[:, 0]
        return k / 6.0

    # in _HESSIAN_PAIRS order: d2/dpa dpb = -skew(pc)/6, and so on
    kc, ka, kb = skew(pc), skew(pa), skew(pb)
    return np.concatenate([-kc, kc, -ka, ka, -kb, kb])
