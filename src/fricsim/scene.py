"""Scene configuration: parsing, validation, normalization, construction.

Scenes are JSON documents (schema documented in the README).  ``load_scene``
validates every field, applies defaults, and keeps a canonical normalized
form that round-trips byte-identically through ``normalized_dump``.  Unknown
keys and invariant violations are reported with their field paths.
"""

from __future__ import annotations

import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from .contact import (KAPPA_MAX, HalfSpace, PenaltyParams, RigidMotion,
                      Sphere, rotation, unit)
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
    "solver": {
        "kind": "direct",
    },
    "contact": {
        "delta": 1e-3,
        "kappa": None,          # None: balance gravity at 0.5*delta
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


@contextmanager
def _at(path: str):
    """Report a constructor's or a file read's ValueError, LookupError,
    TypeError or OSError as a SceneError naming ``path``; a SceneError
    raised inside passes as is."""
    try:
        yield
    except SceneError:
        raise
    except (ValueError, LookupError, TypeError, OSError) as exc:
        why = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise SceneError(f"{path}: {why}") from None


def _object(x, path: str) -> dict:
    if not isinstance(x, dict):
        raise SceneError(f"{path or 'scene'} must be a JSON object, "
                         f"got {x!r}")
    return x


def _list(x, path: str) -> list:
    if not isinstance(x, list):
        raise SceneError(f"{path} must be a JSON list, got {x!r}")
    return x


def _check_keys(d: dict, allowed, path: str):
    unknown = sorted(set(_object(d, path)) - set(allowed))
    if unknown:
        raise SceneError(f"unknown keys at {path or 'top level'}: "
                         + ", ".join(unknown))


def _number(x, path: str, kind=float):
    """A JSON number as a finite float, or as an int when ``kind`` is int,
    which takes integral values only."""
    if type(x) not in (int, float):  # a JSON true or false is a bool
        raise SceneError(f"{path} must be a number, got {x!r}")
    if not abs(x) <= sys.float_info.max:  # NaN, inf or an int beyond float
        raise SceneError(f"{path} must be finite, got {x!r}")
    if kind is int and x != int(x):
        raise SceneError(f"{path} must be an integer, got {x!r}")
    return kind(x)


def _indices(x, path: str, size: int) -> np.ndarray:
    """An int array of a JSON list of indices into ``size`` items, which
    takes integral values in [0, size) only, as :func:`_number` does."""
    a = np.asarray(x, float)
    if not np.all(np.isfinite(a) & (a == np.trunc(a))):
        raise SceneError(f"{path} must hold integers only")
    outside = a[(a < 0) | (a >= size)]
    if outside.size:
        raise SceneError(f"{path}: index {int(outside[0])} is outside "
                         f"[0, {size})")
    return a.astype(int)


def _vec3(x, path: str, kind=float) -> list:
    if len(_list(x, path)) != 3:
        raise SceneError(f"{path} must have exactly 3 components")
    return [_number(c, f"{path}[{i}]", kind) for i, c in enumerate(x)]


def _merged(defaults: dict, given, path: str, kind=None) -> dict:
    """``given`` over ``defaults``; with ``kind``, every value read by
    :func:`_number`, except a null where the default is null."""
    _check_keys(given, defaults, path)
    out = {**defaults, **given}
    if kind is not None:
        out = {k: v if v is None and defaults[k] is None
               else _number(v, f"{path}.{k}", kind) for k, v in out.items()}
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
    solver: SolverConfig
    output: dict
    initial_q: np.ndarray
    initial_v: np.ndarray
    fixed_vertices: np.ndarray
    fixed_velocity: np.ndarray           # (n_verts, 3), per mesh
    region_names: list

    def build_model(self) -> ForceModel:
        """A model with its own copy of the penalty parameters: adaptive
        stiffening raises the model's kappa, never the scene's."""
        return ForceModel(self.mesh, self.obstacles, replace(self.penalty),
                          gravity=self.gravity,
                          volume_penalties=self.volume_penalties,
                          friction_mode=self.friction_mode,
                          fixed_vertices=self.fixed_vertices,
                          fixed_velocity=self.fixed_velocity)

    def normalized_dump(self) -> str:
        return json.dumps(self.normalized, sort_keys=True, indent=2) + "\n"


def _parse_friction_mode(txt) -> tuple[str, int]:
    """``implicit``, ``lagged`` or ``lagged:N``, N >= 1 fixed-point passes."""
    if txt in ("implicit", "lagged"):
        return txt, 1
    head, _, n = str(txt).partition(":")
    if head != "lagged" or not n.isdecimal() or int(n) < 1:
        raise SceneError("friction_mode must be 'implicit', 'lagged' or "
                         f"'lagged:N' with an integer N >= 1, got {txt!r}")
    return "lagged", int(n)


def _load_mesh_spec(spec: dict, idx: int, base_dir: str):
    path = f"meshes[{idx}]"
    allowed = {"name", "file", "generator", "material", "translate", "rotate",
               "velocity", "fixed_vertices", "fixed_velocity",
               "volume_region"}
    _check_keys(spec, allowed, path)
    mat_spec = _merged(_MATERIAL_DEFAULTS, spec.get("material", {}),
                       f"{path}.material", float)
    with _at(f"{path}.material"):
        material = MaterialParams(**mat_spec)

    groups = {}
    if "file" in spec and "generator" in spec:
        raise SceneError(f"{path}: give either 'file' or 'generator', not both")
    if "file" in spec:
        with _at(f"{path}.file"):
            fpath = os.path.join(base_dir, spec["file"])  # absolute: as is
            with open(fpath) as fh:
                data = json.load(fh)
            _check_keys(data, {"vertices", "tets", "surface_groups"},
                        f"{path}.file contents")
            verts = np.asarray(data["vertices"], float)
            tets = _indices(data["tets"], f"{path}.file tets", len(verts))
            groups = _object(data.get("surface_groups", {}),
                             f"{path}.file surface_groups")
    elif "generator" in spec:
        gen, gpath = spec["generator"], f"{path}.generator"
        kind = _object(gen, gpath).get("kind")
        if kind == "box":
            _check_keys(gen, {"kind", "size", "divisions"}, gpath)
            with _at(gpath):
                verts, tets = box_grid(
                    _vec3(gen.get("size", [0.1, 0.1, 0.1]), f"{gpath}.size"),
                    _vec3(gen.get("divisions", [2, 2, 2]),
                          f"{gpath}.divisions", int))
        elif kind == "ball":
            _check_keys(gen, {"kind", "radius", "divisions"}, gpath)
            with _at(gpath):
                verts, tets = ball_grid(
                    _number(gen.get("radius", 0.05), f"{gpath}.radius"),
                    _number(gen.get("divisions", 4), f"{gpath}.divisions",
                            int))
        else:
            raise SceneError(
                f"{gpath}.kind must be 'box' or 'ball', got {kind!r}")
    else:
        raise SceneError(f"{path}: needs a 'file' or 'generator'")

    if "rotate" in spec:
        rspec = spec["rotate"]
        _check_keys(rspec, {"axis", "angle"}, f"{path}.rotate")
        with _at(f"{path}.rotate"):
            rot = rotation(unit(_vec3(rspec["axis"], f"{path}.rotate.axis"),
                                "rotation axis"),
                           _number(rspec["angle"], f"{path}.rotate.angle"))
        verts = verts @ rot.T
    verts = verts + _vec3(spec.get("translate", [0, 0, 0]),
                          f"{path}.translate")

    with _at(path):
        mesh = TetMeshModel(verts, tets, material)
    with _at(f"{path}.file surface_groups"):
        groups = {k: _indices(g, f"{path}.file surface_groups.{k}",
                              len(mesh.surface_tris))
                  for k, g in groups.items()}

    vel = np.asarray(_vec3(spec.get("velocity", [0, 0, 0]),
                           f"{path}.velocity"))
    return mesh, np.tile(vel, mesh.n_verts), groups


def _build_obstacle(spec: dict, idx: int):
    path = f"obstacles[{idx}]"
    kind = _object(spec, path).get("kind")
    if kind == "half_space":
        shape = {"point", "normal"}
    elif kind == "sphere":
        shape = {"center", "radius", "contains"}
    else:
        raise SceneError(f"{path}.kind must be 'half_space' or 'sphere', "
                         f"got {kind!r}")
    _check_keys(spec, {"kind", "friction", "motion", "name"} | shape, path)
    fr_spec = _merged(_FRICTION_DEFAULTS, spec.get("friction", {}),
                      f"{path}.friction", float)
    fr_spec["v_s"] = fr_spec.pop("stribeck_velocity")
    with _at(f"{path}.friction"):
        friction = FrictionParams(**fr_spec)
    mpath = f"{path}.motion"
    mspec = spec.get("motion", {})
    _check_keys(mspec, {"translation", "rotation"}, mpath)
    rot = mspec.get("rotation", {})
    _check_keys(rot, {"axis", "pivot", "angles"}, f"{mpath}.rotation")
    with _at(mpath):
        motion = RigidMotion(
            translation=[(_number(t, f"{mpath}.translation"),
                          _vec3(off, f"{mpath}.translation"))
                         for t, off in _list(mspec.get("translation", []),
                                             f"{mpath}.translation")],
            rotation_axis=(_vec3(rot["axis"], f"{mpath}.rotation.axis")
                           if rot else None),
            rotation_pivot=_vec3(rot.get("pivot", [0, 0, 0]),
                                 f"{mpath}.rotation.pivot"),
            rotation_angles=[(_number(t, f"{mpath}.rotation.angles"),
                              _number(a, f"{mpath}.rotation.angles"))
                             for t, a in _list(rot.get("angles", []),
                                               f"{mpath}.rotation.angles")])
    with _at(path):
        if kind == "half_space":
            return HalfSpace(point=_vec3(spec["point"], f"{path}.point"),
                             normal=_vec3(spec["normal"], f"{path}.normal"),
                             friction=friction, motion=motion)
        contains = spec.get("contains", False)
        if not isinstance(contains, bool):
            raise SceneError(f"{path}.contains must be true or false, "
                             f"got {contains!r}")
        return Sphere(center=_vec3(spec["center"], f"{path}.center"),
                      radius=_number(spec["radius"], f"{path}.radius"),
                      contains=contains, friction=friction, motion=motion)


def load_scene(text: str, base_dir: str = ".") -> SceneConfig:
    """Parse and validate a JSON scene document."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SceneError(f"invalid JSON: {exc}") from None
    _check_keys(raw, set(_DEFAULTS) | {"meshes", "obstacles"}, "")
    cfg = {k: raw.get(k, v) for k, v in _DEFAULTS.items()}
    sv = _merged(_DEFAULTS["solver"], cfg["solver"], "solver")
    contact = _merged(_DEFAULTS["contact"], cfg["contact"], "contact", float)
    output = _merged(_DEFAULTS["output"], cfg["output"], "output", int)
    if output["trajectory_every"] <= 0:
        raise SceneError("output.trajectory_every must be positive, got "
                         f"{output['trajectory_every']!r}")
    if output["snapshot_every"] < 0:
        raise SceneError("output.snapshot_every must be nonnegative, got "
                         f"{output['snapshot_every']!r}")

    duration = _number(cfg["duration"], "duration")
    step = _number(cfg["step"], "step")
    if duration <= 0:
        raise SceneError("duration must be positive")
    if step <= 0:
        raise SceneError("step must be positive")
    if step > duration:
        raise SceneError(f"step {step!r} is longer than duration "
                         f"{duration!r}")
    gravity = np.asarray(_vec3(cfg["gravity"], "gravity"))

    integrator = str(cfg["integrator"]).lower()
    friction_mode, fp_iters = _parse_friction_mode(cfg["friction_mode"])
    with _at("integrator"):
        make_scheme(integrator, lagged=friction_mode == "lagged")

    mesh_specs = _list(raw.get("meshes", []), "meshes")
    if not mesh_specs:
        raise SceneError("scene needs at least one mesh")
    meshes, vels, fixed_vertices, volume_penalties = [], [], [], []
    fixed_velocity = []  # per vertex: its own mesh's, zero if not given
    region_mesh = {}  # volume-region name -> index of the mesh that has it
    offset = 0
    for i, spec in enumerate(mesh_specs):
        mesh, v0, groups = _load_mesh_spec(spec, i, base_dir)
        meshes.append(mesh)
        vels.append(v0)
        fpath = f"meshes[{i}].fixed_vertices"
        for j in _list(spec.get("fixed_vertices", []), fpath):
            j = _number(j, fpath, int)
            if not 0 <= j < mesh.n_verts:
                raise SceneError(f"{fpath}: no vertex {j}")
            fixed_vertices.append(j + offset)
        fixed_velocity.append(np.tile(
            _vec3(spec.get("fixed_velocity", [0, 0, 0]),
                  f"meshes[{i}].fixed_velocity"), (mesh.n_verts, 1)))
        if "volume_region" in spec:
            vp = _volume_region(spec, i, mesh.surface_tris, groups, offset)
            if vp.name in region_mesh:  # one vol_<name> column per region
                raise SceneError(
                    f"meshes[{i}].volume_region.name {vp.name!r} is also the "
                    f"region name of meshes[{region_mesh[vp.name]}]")
            region_mesh[vp.name] = i
            volume_penalties.append(vp)
        offset += mesh.n_verts

    obstacles = [_build_obstacle(s, i) for i, s in
                 enumerate(_list(raw.get("obstacles", []), "obstacles"))]

    delta = contact["delta"]
    mesh = merge_meshes(meshes)
    if contact["kappa"] is None:
        # lambda at d = 0.5*delta balances gravity on the average contact
        # vertex: 3 kappa delta / 4 = m_avg g  =>  kappa = 4 m_avg g / (3 d)
        m_avg = float(np.mean(mesh.vertex_mass[mesh.surface_vertices]))
        with np.errstate(over="ignore"):  # |g| may overflow; named below
            g_eff = np.linalg.norm(gravity) or 9.8
            # delta <= 0 is rejected below, before kappa is looked at
            kappa = (float(4.0 * m_avg * g_eff / (3.0 * delta))
                     if delta > 0 else 1.0)
        if not 0 < kappa <= KAPPA_MAX:
            raise SceneError(
                f"contact: the automatic kappa 4 m_avg |g| / (3 delta) = "
                f"{kappa:.3e} is outside (0, KAPPA_MAX = {KAPPA_MAX:.0e}]; "
                f"gravity {gravity.tolist()}, delta {delta!r}, m_avg "
                f"{m_avg:.3e}: set contact.kappa or a smaller gravity")
        contact["kappa"] = kappa
    with _at("contact"):
        penalty = PenaltyParams(**contact)

    with _at("solver"):
        solver = SolverConfig(  # v_tol: a tenth of the smallest friction eps
            kind=sv["kind"],
            v_tol=0.1 * min((o.friction.epsilon for o in obstacles),
                            default=1e-4))

    normalized = {
        "gravity": list(gravity),
        "duration": duration,
        "step": step,
        "integrator": integrator,
        "friction_mode": cfg["friction_mode"],
        "solver": sv,
        "contact": contact,
        "output": dict(output),
        "meshes": [{**s, "name": s.get("name", f"mesh{i}"),
                    "material": _merged(_MATERIAL_DEFAULTS,
                                        s.get("material", {}), "material")}
                   for i, s in enumerate(mesh_specs)],
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
        solver=solver,
        output=output,
        initial_q=mesh.rest_q().copy(),
        initial_v=np.concatenate(vels),
        fixed_vertices=np.asarray(fixed_vertices, int),
        fixed_velocity=np.concatenate(fixed_velocity),
        region_names=[vp.name for vp in volume_penalties],
    )


def _volume_region(spec: dict, idx: int, tris, groups: dict, offset: int):
    """Mesh ``idx``'s volume penalty, on the merged vertex numbering."""
    path = f"meshes[{idx}].volume_region"
    vspec = spec["volume_region"]
    _check_keys(vspec, {"model", "kappa_v_atm", "p0_atm", "group", "name"},
                path)
    group = vspec.get("group", "surface")
    mesh_name = spec.get("name", f"mesh{idx}")
    name = vspec.get("name", f"{mesh_name}_volume")
    if not isinstance(name, str) or any(c in name for c in ",\r\n"):
        raise SceneError(f"{path}.name must be a string with no comma or "
                         f"line break (it heads a CSV column), got {name!r}")
    with _at(path):
        if group != "surface":
            if group not in groups:
                raise SceneError(f"{path}.group: no surface group named "
                                 f"{group!r}")
            tris = tris[groups[group]]
        return VolumePenaltyParams(
            region=tris + offset,
            model=vspec.get("model", "quadratic"),
            kappa_v_atm=_number(vspec.get("kappa_v_atm", 1.0),
                                f"{path}.kappa_v_atm"),
            p0_atm=_number(vspec.get("p0_atm", 1.0), f"{path}.p0_atm"),
            name=name)


def load_scene_file(path: str) -> SceneConfig:
    with _at(path), open(path) as fh:
        text = fh.read()
    return load_scene(text, base_dir=os.path.dirname(path) or ".")
