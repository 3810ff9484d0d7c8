"""Scene configuration: parsing, validation, normalization, construction.

Scenes are JSON documents (schema documented in the README).  ``load_scene``
validates every field, applies defaults, and keeps a canonical normalized
form that round-trips byte-identically through ``normalized_dump``.  Unknown
keys and invariant violations are reported with their field paths.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .contact import HalfSpace, PenaltyParams, RigidMotion, Sphere
from .forces import ForceModel
from .friction import FrictionParams
from .integrators import make_scheme
from .mesh import MaterialParams, TetMeshModel, merge_meshes
from .meshgen import ball_grid, box_grid
from .solvers import SolverConfig
from .volume import VolumePenaltyParams


class SceneError(ValueError):
    pass


_DEFAULTS = {
    "gravity": [0.0, -9.8, 0.0],
    "duration": 1.0,
    "step": 0.01,
    "integrator": "be",
    "friction_mode": "implicit",
    "friction_jacobian": "with_sliding_basis",
    "solver": {
        "kind": "direct",
        "k_max": 100,
        "r_tol_rel": 1e-6,
        "r_tol_abs": None,
        "v_tol": None,
        "max_krylov_iters": 200,
    },
    "contact": {
        "delta": 1e-3,
        "kappa": None,          # None: balance gravity at 0.5*delta
        "kappa_max": 1e16,
    },
    "output": {
        "trajectory_every": 1,
        "snapshot_every": 0,
    },
}

_MATERIAL_DEFAULTS = {
    "density": 1000.0,
    "youngs_modulus": 1e6,
    "poisson_ratio": 0.3,
    "rayleigh_alpha": 0.0,
    "rayleigh_beta": 0.0,
}

_FRICTION_DEFAULTS = {
    "mu_d": 0.0,
    "mu_s": None,
    "mu_v": 0.0,
    "epsilon": 1e-4,
    "stribeck_velocity": None,
}


def _check_keys(d: dict, allowed, path: str):
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise SceneError(f"unknown keys at {path or 'top level'}: "
                         + ", ".join(unknown))


def _vec3(x, path: str):
    try:
        v = [float(c) for c in x]
    except (TypeError, ValueError):
        raise SceneError(f"{path} must be a 3-vector") from None
    if len(v) != 3:
        raise SceneError(f"{path} must have exactly 3 components")
    return v


def _number(x, path: str, kind=float):
    try:
        v = kind(x)
    except (TypeError, ValueError, OverflowError):
        raise SceneError(f"{path} must be a number, got {x!r}") from None
    if not math.isfinite(v):
        raise SceneError(f"{path} must be finite, got {x!r}")
    return v


def _merged(defaults: dict, given: dict, path: str) -> dict:
    _check_keys(given, defaults.keys(), path)
    out = dict(defaults)
    out.update(given)
    return out


@dataclass
class SceneConfig:
    """Validated scene: normalized dict plus runtime objects.  Every
    ``Simulation`` of it shares the merged mesh and ``solver`` read-only."""

    normalized: dict
    mesh: TetMeshModel                   # all meshes merged, one q vector
    obstacles: list
    penalty: PenaltyParams
    volume_penalties: list
    gravity: np.ndarray
    duration: float
    step: float
    integrator: str
    friction_mode: str                   # implicit | lagged
    fixed_point_iters: int
    frozen_basis: bool
    solver: SolverConfig
    output: dict
    initial_q: np.ndarray
    initial_v: np.ndarray
    fixed_vertices: np.ndarray
    fixed_velocity: np.ndarray
    region_names: list

    def build_model(self) -> ForceModel:
        """A model with its own copy of the penalty parameters: adaptive
        stiffening raises the model's kappa, never the scene's."""
        return ForceModel(self.mesh, self.obstacles, replace(self.penalty),
                          gravity=self.gravity,
                          volume_penalties=self.volume_penalties,
                          friction_mode=self.friction_mode,
                          frozen_basis=self.frozen_basis,
                          fixed_vertices=self.fixed_vertices,
                          fixed_velocity=self.fixed_velocity)

    def normalized_dump(self) -> str:
        return json.dumps(self.normalized, sort_keys=True, indent=2) + "\n"


def _parse_friction_mode(txt: str):
    if txt == "implicit":
        return "implicit", 1
    if txt.startswith("lagged"):
        iters = 1
        if ":" in txt:
            try:
                iters = int(txt.split(":", 1)[1])
            except ValueError:
                raise SceneError(
                    f"friction_mode {txt!r}: iteration count must be an "
                    "integer") from None
        if iters < 1:
            raise SceneError("friction_mode lagged:N needs N >= 1")
        return "lagged", iters
    raise SceneError(f"friction_mode must be 'implicit' or 'lagged:N', "
                     f"got {txt!r}")


def _rotation_matrix(axis, angle):
    axis = np.asarray(axis, float)
    nrm = np.linalg.norm(axis)
    if nrm == 0:
        raise SceneError("rotation axis must be nonzero")
    k = axis / nrm
    kx = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    return np.eye(3) + np.sin(angle) * kx + (1 - np.cos(angle)) * (kx @ kx)


def _load_mesh_spec(spec: dict, idx: int, base_dir: str):
    path = f"meshes[{idx}]"
    allowed = {"name", "file", "generator", "material", "translate", "rotate",
               "velocity", "angular_velocity", "fixed_vertices",
               "fixed_velocity", "volume_region"}
    _check_keys(spec, allowed, path)
    mat_spec = _merged(_MATERIAL_DEFAULTS, spec.get("material", {}),
                       f"{path}.material")
    try:
        material = MaterialParams(
            density=float(mat_spec["density"]),
            youngs_modulus=float(mat_spec["youngs_modulus"]),
            poisson_ratio=float(mat_spec["poisson_ratio"]),
            rayleigh_alpha=float(mat_spec["rayleigh_alpha"]),
            rayleigh_beta=float(mat_spec["rayleigh_beta"]))
    except ValueError as exc:
        raise SceneError(f"{path}.material: {exc}") from None

    groups = {}
    if "file" in spec and "generator" in spec:
        raise SceneError(f"{path}: give either 'file' or 'generator', not both")
    if "file" in spec:
        fpath = spec["file"]
        if not os.path.isabs(fpath):
            fpath = os.path.join(base_dir, fpath)
        if not os.path.exists(fpath):
            raise SceneError(f"{path}.file: mesh file not found: {fpath}")
        with open(fpath) as fh:
            data = json.load(fh)
        _check_keys(data, {"vertices", "tets", "surface_groups"},
                    f"{path}.file contents")
        verts = np.asarray(data["vertices"], float)
        tets = np.asarray(data["tets"], int)
        groups = {k: np.asarray(vv, int)
                  for k, vv in data.get("surface_groups", {}).items()}
    elif "generator" in spec:
        gen = spec["generator"]
        kind = gen.get("kind")
        if kind == "box":
            _check_keys(gen, {"kind", "size", "divisions", "taper"},
                        f"{path}.generator")
            verts, tets = box_grid(_vec3(gen.get("size", [0.1, 0.1, 0.1]),
                                         f"{path}.generator.size"),
                                   gen.get("divisions", [2, 2, 2]),
                                   taper=float(gen.get("taper", 0.0)))
        elif kind == "ball":
            _check_keys(gen, {"kind", "radius", "divisions"},
                        f"{path}.generator")
            verts, tets = ball_grid(float(gen.get("radius", 0.05)),
                                    int(gen.get("divisions", 4)))
        else:
            raise SceneError(
                f"{path}.generator.kind must be 'box' or 'ball', got {kind!r}")
    else:
        raise SceneError(f"{path}: needs a 'file' or 'generator'")

    if "rotate" in spec:
        rspec = spec["rotate"]
        _check_keys(rspec, {"axis", "angle"}, f"{path}.rotate")
        rot = _rotation_matrix(_vec3(rspec["axis"], f"{path}.rotate.axis"),
                               _number(rspec["angle"], f"{path}.rotate.angle"))
        verts = verts @ rot.T
    translate = np.asarray(_vec3(spec.get("translate", [0, 0, 0]),
                                 f"{path}.translate"))
    verts = verts + translate

    try:
        mesh = TetMeshModel(verts, tets, material)
    except Exception as exc:
        raise SceneError(f"{path}: {exc}") from None

    vel = np.asarray(_vec3(spec.get("velocity", [0, 0, 0]),
                           f"{path}.velocity"))
    omega = np.asarray(_vec3(spec.get("angular_velocity", [0, 0, 0]),
                             f"{path}.angular_velocity"))
    v0 = np.tile(vel, mesh.n_verts).reshape(-1, 3)
    if np.any(omega != 0.0):
        com = mesh.rest_positions.mean(axis=0)
        v0 = v0 + np.cross(omega, mesh.rest_positions - com)
    return mesh, v0.ravel(), groups


def _build_obstacle(spec: dict, idx: int):
    path = f"obstacles[{idx}]"
    kind = spec.get("kind")
    common = {"kind", "friction", "motion", "name"}
    fr_spec = _merged(_FRICTION_DEFAULTS, spec.get("friction", {}),
                      f"{path}.friction")
    try:
        friction = FrictionParams(
            mu_d=float(fr_spec["mu_d"]),
            mu_s=None if fr_spec["mu_s"] is None else float(fr_spec["mu_s"]),
            mu_v=float(fr_spec["mu_v"]),
            epsilon=float(fr_spec["epsilon"]),
            v_s=None if fr_spec["stribeck_velocity"] is None
            else float(fr_spec["stribeck_velocity"]))
    except ValueError as exc:
        raise SceneError(f"{path}.friction: {exc}") from None
    motion = RigidMotion()
    if "motion" in spec:
        mspec = spec["motion"]
        _check_keys(mspec, {"translation", "rotation"}, f"{path}.motion")
        translation = [(float(t), _vec3(off, f"{path}.motion.translation"))
                       for t, off in mspec.get("translation", [])]
        rot = mspec.get("rotation", {})
        if rot:
            _check_keys(rot, {"axis", "pivot", "angles"},
                        f"{path}.motion.rotation")
            motion = RigidMotion(
                translation=translation,
                rotation_axis=_vec3(rot["axis"], f"{path}.motion.rotation.axis"),
                rotation_pivot=_vec3(rot.get("pivot", [0, 0, 0]),
                                     f"{path}.motion.rotation.pivot"),
                rotation_angles=[(float(t), float(a))
                                 for t, a in rot.get("angles", [])])
        else:
            motion = RigidMotion(translation=translation)
    name = spec.get("name", f"obstacle{idx}")
    if kind == "half_space":
        _check_keys(spec, common | {"point", "normal"}, path)
        try:
            return HalfSpace(point=_vec3(spec["point"], f"{path}.point"),
                             normal=_vec3(spec["normal"], f"{path}.normal"),
                             friction=friction, motion=motion, name=name)
        except (KeyError, ValueError) as exc:
            raise SceneError(f"{path}: {exc}") from None
    if kind == "sphere":
        _check_keys(spec, common | {"center", "radius", "contains"}, path)
        try:
            return Sphere(center=_vec3(spec["center"], f"{path}.center"),
                          radius=float(spec["radius"]),
                          contains=bool(spec.get("contains", False)),
                          friction=friction, motion=motion, name=name)
        except (KeyError, ValueError) as exc:
            raise SceneError(f"{path}: {exc}") from None
    raise SceneError(f"{path}.kind must be 'half_space' or 'sphere', "
                     f"got {kind!r}")


def load_scene(text: str, base_dir: str = ".") -> SceneConfig:
    """Parse and validate a JSON scene document."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SceneError(f"invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise SceneError("scene must be a JSON object")
    top_allowed = set(_DEFAULTS) | {"meshes", "obstacles"}
    _check_keys(raw, top_allowed, "")
    cfg = {k: raw.get(k, v) for k, v in _DEFAULTS.items()}
    cfg["solver"] = _merged(_DEFAULTS["solver"], raw.get("solver", {}),
                            "solver")
    cfg["contact"] = _merged(_DEFAULTS["contact"], raw.get("contact", {}),
                             "contact")
    cfg["output"] = _merged(_DEFAULTS["output"], raw.get("output", {}),
                            "output")

    duration = _number(cfg["duration"], "duration")
    step = _number(cfg["step"], "step")
    if duration <= 0:
        raise SceneError("duration must be positive")
    if step <= 0:
        raise SceneError("step must be positive")
    gravity = np.asarray(_vec3(cfg["gravity"], "gravity"))

    integrator = str(cfg["integrator"]).lower()
    friction_mode, fp_iters = _parse_friction_mode(str(cfg["friction_mode"]))
    try:
        make_scheme(integrator, lagged=friction_mode == "lagged")
    except ValueError as exc:
        raise SceneError(f"integrator: {exc}") from None
    fj = cfg["friction_jacobian"]
    if fj not in ("with_sliding_basis", "frozen_basis"):
        raise SceneError("friction_jacobian must be 'with_sliding_basis' or "
                         f"'frozen_basis', got {fj!r}")

    mesh_specs = raw.get("meshes", [])
    if not mesh_specs:
        raise SceneError("scene needs at least one mesh")
    meshes, vels, fixed_vertices, volume_penalties = [], [], [], []
    fixed_velocity = np.zeros(3)
    offset = 0
    for i, spec in enumerate(mesh_specs):
        mesh, v0, groups = _load_mesh_spec(spec, i, base_dir)
        meshes.append(mesh)
        vels.append(v0)
        for j in spec.get("fixed_vertices", []):
            j = _number(j, f"meshes[{i}].fixed_vertices", int)
            if not 0 <= j < mesh.n_verts:
                raise SceneError(f"meshes[{i}].fixed_vertices: no vertex {j}")
            fixed_vertices.append(j + offset)
        if "fixed_velocity" in spec:
            fixed_velocity = np.asarray(_vec3(spec["fixed_velocity"],
                                              f"meshes[{i}].fixed_velocity"))
        if "volume_region" in spec:
            volume_penalties.append(_volume_region(spec, i, mesh.surface_tris,
                                                   groups, offset))
        offset += mesh.n_verts

    obstacles = [_build_obstacle(s, i)
                 for i, s in enumerate(raw.get("obstacles", []))]

    contact = cfg["contact"]
    delta = _number(contact["delta"], "contact.delta")
    kappa_max = _number(contact["kappa_max"], "contact.kappa_max")
    kappa = contact["kappa"]
    mesh = merge_meshes(meshes)
    if kappa is None:
        # lambda at d = 0.5*delta balances gravity on the average contact
        # vertex: 3 kappa delta / 4 = m_avg g  =>  kappa = 4 m_avg g / (3 d)
        g_eff = np.linalg.norm(gravity) or 9.8
        m_avg = float(np.mean(mesh.vertex_mass[mesh.surface_vertices]))
        # delta <= 0 is rejected below, before kappa is looked at
        kappa = 4.0 * m_avg * g_eff / (3.0 * delta) if delta > 0 else 1.0
    kappa = _number(kappa, "contact.kappa")
    try:
        penalty = PenaltyParams(delta=delta, kappa=kappa, kappa_max=kappa_max)
    except ValueError as exc:
        raise SceneError(f"contact: {exc}") from None

    sv = cfg["solver"]
    v_tol = sv["v_tol"]
    if v_tol is None:  # a tenth of the smallest friction epsilon
        v_tol = 0.1 * min((o.friction.epsilon for o in obstacles),
                          default=1e-4)
    # numbers are converted outside the try: a SceneError is a ValueError
    settings = dict(
        kind=sv["kind"], k_max=_number(sv["k_max"], "solver.k_max", int),
        r_tol_abs=None if sv["r_tol_abs"] is None
        else _number(sv["r_tol_abs"], "solver.r_tol_abs"),
        r_tol_rel=_number(sv["r_tol_rel"], "solver.r_tol_rel"),
        v_tol=_number(v_tol, "solver.v_tol"),
        max_krylov_iters=_number(sv["max_krylov_iters"],
                                 "solver.max_krylov_iters", int))
    try:
        solver = SolverConfig(**settings)
    except ValueError as exc:
        raise SceneError(f"solver: {exc}") from None
    output = {k: _number(cfg["output"][k], f"output.{k}", int)
              for k in _DEFAULTS["output"]}

    normalized = {
        "gravity": list(gravity),
        "duration": duration,
        "step": step,
        "integrator": integrator,
        "friction_mode": cfg["friction_mode"],
        "friction_jacobian": fj,
        "solver": {k: sv[k] for k in _DEFAULTS["solver"]},
        "contact": {"delta": delta, "kappa": kappa, "kappa_max": kappa_max},
        "output": dict(output),
        "meshes": _normalize_mesh_specs(mesh_specs),
        "obstacles": raw.get("obstacles", []),
    }

    return SceneConfig(
        normalized=normalized,
        mesh=mesh,
        obstacles=obstacles,
        penalty=penalty,
        volume_penalties=volume_penalties,
        gravity=gravity,
        duration=duration,
        step=step,
        integrator=integrator,
        friction_mode=friction_mode,
        fixed_point_iters=fp_iters,
        frozen_basis=(fj == "frozen_basis"),
        solver=solver,
        output=output,
        initial_q=mesh.rest_q().copy(),
        initial_v=np.concatenate(vels),
        fixed_vertices=np.asarray(fixed_vertices, int),
        fixed_velocity=fixed_velocity,
        region_names=[vp.name for vp in volume_penalties],
    )


def _volume_region(spec: dict, idx: int, tris, groups: dict, offset: int):
    """Mesh ``idx``'s volume penalty, on the merged vertex numbering."""
    path = f"meshes[{idx}].volume_region"
    vspec = spec["volume_region"]
    _check_keys(vspec, {"model", "kappa_v_atm", "p0_atm", "group", "name"},
                path)
    group = vspec.get("group", "surface")
    if group != "surface":
        if group not in groups:
            raise SceneError(f"{path}.group: no surface group named "
                             f"{group!r}")
        tris = tris[groups[group]]
    mesh_name = spec.get("name", f"mesh{idx}")
    try:
        return VolumePenaltyParams(
            region=tris + offset,
            model=vspec.get("model", "quadratic"),
            kappa_v_atm=float(vspec.get("kappa_v_atm", 1.0)),
            p0_atm=float(vspec.get("p0_atm", 1.0)),
            name=vspec.get("name", f"{mesh_name}_volume"))
    except ValueError as exc:
        raise SceneError(f"{path}: {exc}") from None


def _normalize_mesh_specs(mesh_specs):
    out = []
    for i, spec in enumerate(mesh_specs):
        entry = {"name": spec.get("name", f"mesh{i}")}
        for key in ("file", "generator", "material", "translate", "rotate",
                    "velocity", "angular_velocity", "fixed_vertices",
                    "fixed_velocity", "volume_region"):
            if key in spec:
                entry[key] = spec[key]
        entry["material"] = _merged(_MATERIAL_DEFAULTS,
                                    spec.get("material", {}), "material")
        out.append(entry)
    return out


def load_scene_file(path: str) -> SceneConfig:
    if not os.path.exists(path):
        raise SceneError(f"scene file not found: {path}")
    with open(path) as fh:
        return load_scene(fh.read(), base_dir=os.path.dirname(path) or ".")
