"""The benchmark's workloads: scene text from a seed, step count and checks.

Seed 0 is exactly the shipped configuration.  Any other seed perturbs the
body's initial pose and velocity within the ranges stated per workload, so
the same seed always gives the same scene text.  A run with ``--seed n``
simulates the workload's ``variants`` scenes of seeds n * variants to
n * variants + variants - 1, so that one run's figures average over
several starting states.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    steps: int
    # (checkout root, seed) -> (scene JSON text, parsed scene document)
    scene: Callable[[Path, int], tuple[str, dict]]
    # (trajectory records, scene document) -> (ok, one-line detail)
    physical_check: Callable[[list, dict], tuple[bool, str]]
    # scene variants per run: a run always simulates each of them once,
    # and ball_bounce's simulations take about 17 s at reference speed
    variants: int = 3


def _uniform3(rng: random.Random, half: float) -> list[float]:
    return [rng.uniform(-half, half) for _ in range(3)]


def _shipped(root: Path, name: str, seed: int, d_pos: float, d_vel: float):
    """Shipped scene file; a non-zero seed shifts the first mesh by up to
    ``d_pos`` m and gives it up to ``d_vel`` m/s per axis."""
    text = (root / "scenes" / name).read_text()
    doc = json.loads(text)
    if seed == 0:
        return text, doc
    rng = random.Random(seed)
    mesh = doc["meshes"][0]
    base = mesh.get("translate", [0.0, 0.0, 0.0])
    mesh["translate"] = [b + d for b, d in zip(base, _uniform3(rng, d_pos))]
    mesh["velocity"] = _uniform3(rng, d_vel)
    return json.dumps(doc), doc


# -- grasp ------------------------------------------------------------------
def grasp_scene(root: Path, seed: int):
    """scenes/plate_squeeze.json; seeds shift the cube by up to 0.05 mm per
    axis (a twentieth of the 1 mm plate gap) and add up to 1 mm/s per axis."""
    return _shipped(root, "plate_squeeze.json", seed, 5e-5, 1e-3)


def grasp_check(records, doc):
    """The cube stays centred between the symmetric plates (|com_x| <= 1 mm)
    and ends at rest (sliding speed <= 10 friction epsilons)."""
    eps = min(o["friction"]["epsilon"] for o in doc["obstacles"])
    off = max(abs(r.com[0]) for r in records)
    final = records[-1].max_slide_speed
    ok = off <= 1e-3 and final <= 10.0 * eps
    return ok, (f"max |com_x| {1e3 * off:.4f} mm (<= 1 mm), final slide "
                f"speed {final:.3e} m/s (<= {10.0 * eps:.0e})")


# -- ball_bounce ------------------------------------------------------------
def ball_scene(root: Path, seed: int):
    """scenes/ball_drop.json; seeds shift the ball by up to 2 mm per axis
    (the drop is 80 mm) and add up to 0.02 m/s per axis."""
    return _shipped(root, "ball_drop.json", seed, 2e-3, 2e-2)


BALL_ENERGY_RTOL = 1e-6


def ball_check(records, doc):
    """Total energy never exceeds its initial value plus the energy the
    kappa retries added, by more than BALL_ENERGY_RTOL of its magnitude.

    Contact, damping and BDF2 only dissipate.  The one source is adaptive
    stiffening: a retry raises kappa and re-solves from the start-of-step
    state, whose barrier energy, linear in kappa, grows by the factor
    kappa_new / kappa_old.  That energy is credited here, so only energy
    from anywhere else fails the check.
    """
    e0 = records[0].total_energy
    added = 0.0
    worst = 0.0
    for prev, cur in zip(records, records[1:]):
        if cur.kappa != prev.kappa:
            added += prev.contact * (cur.kappa / prev.kappa - 1.0)
        worst = max(worst, cur.total_energy - e0 - added)
    excess = worst / abs(e0)
    return excess <= BALL_ENERGY_RTOL, (
        f"max energy over E0 + kappa work {excess:.3e} of |E0| = "
        f"{abs(e0):.4f} J (<= {BALL_ENERGY_RTOL:.0e}); kappa retries "
        f"added {added:.3e} J")


# -- slide_lagged_krylov ----------------------------------------------------
SLIDE_ENGAGE_S = 0.1


def slide_scene(root: Path, seed: int):
    """experiments.block_slide_scene(0.01, "be", "lagged:4",
    solver_kind="iterative"); seeds move the block by up to 1 mm within the
    incline plane, scale the 0.1 m/s launch speed by up to 2 % and add up to
    2 mm/s across the slope.  The normal offset stays at gap delta."""
    from fricsim.experiments import block_slide_scene

    doc = block_slide_scene(0.01, "be", "lagged:4", solver_kind="iterative")
    if seed:
        rng = random.Random(seed)
        mesh = doc["meshes"][0]
        downhill = _downhill(doc)
        across = (0.0, 0.0, 1.0)
        a, b = rng.uniform(-1e-3, 1e-3), rng.uniform(-1e-3, 1e-3)
        mesh["translate"] = [t + a * d + b * c for t, d, c
                             in zip(mesh["translate"], downhill, across)]
        speed = math.hypot(*mesh["velocity"])
        speed *= 1.0 + rng.uniform(-0.02, 0.02)
        side = rng.uniform(-2e-3, 2e-3)
        mesh["velocity"] = [speed * d + side * c
                            for d, c in zip(downhill, across)]
    return json.dumps(doc), doc


def _downhill(doc):
    """Unit downhill direction in the incline plane."""
    nx, ny, _ = doc["obstacles"][0]["normal"]
    return (-ny, nx, 0.0)


def slide_check(records, doc):
    """Friction exceeds the slope's pull (mu > tan 10 deg), so once contact
    has engaged (after SLIDE_ENGAGE_S; the block starts at gap delta with no
    load) the downhill speed, from centroid differences, stays at or below
    the launch speed."""
    d = _downhill(doc)
    v0 = sum(a * b for a, b in zip(doc["meshes"][0]["velocity"], d))
    s = [sum(a * b for a, b in zip(r.com, d)) for r in records]
    peak = max((s1 - s0) / (r1.time - r0.time) for s0, s1, r0, r1
               in zip(s, s[1:], records, records[1:])
               if r0.time >= SLIDE_ENGAGE_S)
    return peak <= v0, (f"peak downhill speed after {SLIDE_ENGAGE_S} s "
                        f"{peak:.5f} m/s (<= launch {v0:.5f} m/s)")


WORKLOADS = {
    "grasp": Workload("grasp", 240, grasp_scene, grasp_check),
    "ball_bounce": Workload("ball_bounce", 210, ball_scene, ball_check,
                            variants=2),
    "slide_lagged_krylov": Workload("slide_lagged_krylov", 250, slide_scene,
                                    slide_check),
}
