import json
import os
import re

import numpy as np
import pytest

from fricsim.experiments import (ball_drop_scene, block_slide_scene,
                                 plate_squeeze_scene)
from fricsim.export import export, read_trajectory_csv, write_trajectory_csv
from fricsim.scene import _DEFAULTS, SceneError, load_scene, load_scene_file
from fricsim.simulate import Simulation, run_simulation
from fricsim.solvers import SolverConfig

SCENES = os.path.join(os.path.dirname(__file__), "..", "scenes")

MINIMAL = {
    "duration": 0.02,
    "step": 0.01,
    "meshes": [
        {"name": "tet",
         "generator": {"kind": "box", "size": [0.1, 0.1, 0.1],
                       "divisions": [1, 1, 1]},
         "translate": [0.0, 0.2, 0.0]}
    ],
    "obstacles": [
        {"kind": "half_space", "point": [0, 0, 0], "normal": [0, 1, 0],
         "friction": {"mu_d": 0.3}}
    ],
}


def test_minimal_scene_roundtrips_byte_identically():
    scene = load_scene(json.dumps(MINIMAL))
    dump1 = scene.normalized_dump()
    scene2 = load_scene(dump1)
    dump2 = scene2.normalized_dump()
    assert dump1 == dump2


def test_defaults_echoed_in_normalized_dump():
    scene = load_scene(json.dumps(MINIMAL))
    norm = scene.normalized
    assert norm["gravity"] == [0.0, -9.8, 0.0]
    assert norm["solver"]["kind"] == "direct"
    assert norm["contact"]["kappa"] is not None  # resolved default
    assert norm["integrator"] == "be"


def test_unknown_keys_listed():
    bad = dict(MINIMAL)
    bad["gravty"] = [0, -1, 0]
    bad["stepp"] = 0.1
    with pytest.raises(SceneError) as exc:
        load_scene(json.dumps(bad))
    assert "gravty" in str(exc.value) and "stepp" in str(exc.value)


def test_invalid_poisson_named():
    bad = json.loads(json.dumps(MINIMAL))
    bad["meshes"][0]["material"] = {"poisson_ratio": 0.6}
    with pytest.raises(SceneError, match="poisson_ratio"):
        load_scene(json.dumps(bad))


def test_missing_mesh_file_named():
    bad = json.loads(json.dumps(MINIMAL))
    del bad["meshes"][0]["generator"]
    bad["meshes"][0]["file"] = "no_such_mesh.json"
    with pytest.raises(SceneError, match="no_such_mesh.json"):
        load_scene(json.dumps(bad), base_dir="/tmp")


def test_mesh_file_loading(tmp_path):
    mesh = {"vertices": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                         [0.0, 0.0, 1.0]],
            "tets": [[0, 1, 2, 3]]}
    mpath = tmp_path / "tet.json"
    mpath.write_text(json.dumps(mesh))
    cfg = json.loads(json.dumps(MINIMAL))
    del cfg["meshes"][0]["generator"]
    cfg["meshes"][0]["file"] = "tet.json"
    scene = load_scene(json.dumps(cfg), base_dir=str(tmp_path))
    assert scene.mesh.n_verts == 4


def test_lagged_mode_parsing_and_validation():
    cfg = json.loads(json.dumps(MINIMAL))
    cfg["friction_mode"] = "lagged:3"
    scene = load_scene(json.dumps(cfg))
    assert scene.friction_mode == "lagged"
    assert scene.fixed_point_iters == 3
    cfg["integrator"] = "sdirk2"
    with pytest.raises(SceneError, match="lagged"):
        load_scene(json.dumps(cfg))
    cfg["integrator"] = "be"
    cfg["friction_mode"] = "sticky"
    with pytest.raises(SceneError, match="friction_mode"):
        load_scene(json.dumps(cfg))


_UNKNOWN_TAPER = r"unknown keys at meshes\[0\].generator: taper$"


def _unknown_solver_key(key, value, old_match):
    """A removed ``solver`` key's case, under its old id."""
    return pytest.param(f"solver.{key}", value,
                        f"unknown keys at solver: {key}$",
                        id=f"solver.{key}-{value}-{old_match}")


@pytest.mark.parametrize("path,value,match", [
    ("duration", "x", "duration"),
    ("step", None, "step"),
    ("contact.delta", "x", "contact.delta"),
    ("contact.delta", 0.0, "contact: delta"),
    ("contact.kappa", -1, "contact: kappa"),
    ("output.trajectory_every", "x", "output.trajectory_every"),
    ("solver.kind", "lu", "solver: kind"),
    # the solver block has ``kind`` alone; these cases keep their ids
    _unknown_solver_key("k_max", 0, "solver: k_max"),
    _unknown_solver_key("k_max", "abc", "solver.k_max"),
    _unknown_solver_key("r_tol_rel", "x", "solver.r_tol_rel"),
    _unknown_solver_key("v_tol", "x", "solver.v_tol"),
    _unknown_solver_key("max_krylov_iters", -3, "solver: max_krylov_iters"),
    ("meshes.0.rotate", {"axis": [0, 1, 0], "angle": "x"},
     r"meshes\[0\].rotate.angle"),
    ("meshes.0.fixed_vertices", ["a"], r"meshes\[0\].fixed_vertices"),
    ("meshes.0.fixed_vertices", [8], r"meshes\[0\].fixed_vertices: no vertex"),
    ("meshes.0.generator.divisions", [0, 1, 1], r"meshes\[0\].generator"),
    ("meshes.0.generator.divisions", ["x", 1, 1],
     r"meshes\[0\].generator.divisions"),
    # a box generator has no ``taper`` key; both cases keep their ids
    pytest.param(
        "meshes.0.generator.taper", -100, _UNKNOWN_TAPER,
        id=r"meshes.0.generator.taper--100-meshes\[0\].generator: taper"),
    pytest.param(
        "meshes.0.generator.taper", "x", _UNKNOWN_TAPER,
        id=r"meshes.0.generator.taper-x-meshes\[0\].generator.taper"),
    ("meshes.0.generator", {"kind": "ball", "radius": 0},
     r"meshes\[0\].generator"),
    ("meshes.0.material.density", [1], r"meshes\[0\].material.density"),
    ("meshes.0.material.density", float("nan"),
     r"meshes\[0\].material.density"),
    ("obstacles.0.friction.mu_d", [1], r"obstacles\[0\].friction.mu_d"),
    ("obstacles.0.friction.mu_d", None, r"obstacles\[0\].friction.mu_d"),
    ("solver", 5, "solver"),
    ("obstacles", [3], r"obstacles\[0\]"),
    ("obstacles", {"a": 1}, "obstacles"),
    ("meshes.0.fixed_vertices", 3, r"meshes\[0\].fixed_vertices"),
    ("contact", [], "contact"),
    ("meshes.0.file", "bad_json.json", r"meshes\[0\].file"),
    ("meshes.0.file", "no_tets.json", r"meshes\[0\].file"),
    ("meshes.0.file", ".", r"meshes\[0\].file: .*directory"),
    ("obstacles.0.motion", {"translation": [["x", [0, 0, 0]]]},
     r"obstacles\[0\].motion.translation"),
    ("obstacles.0.motion", {"rotation": {"axis": [0, 0, 0]}},
     r"obstacles\[0\].motion: rotation axis"),
    _unknown_solver_key("k_max", 2.5, "solver.k_max"),
    ("meshes.0.fixed_vertices", [0.7], r"meshes\[0\].fixed_vertices"),
    ("output.trajectory_every", 1.9, "output.trajectory_every"),
    ("gravity", [0, float("nan"), 0], r"gravity\[1\]"),
    ("friction_mode", "lagged4", "friction_mode"),
    ("friction_mode", "laggedy", "friction_mode"),
    ("obstacles", [{"kind": "sphere", "center": [0, 0, 0], "radius": 1.0,
                    "contains": "false"}], r"obstacles\[0\].contains"),
    ("meshes.0.generator", {"kind": "ball", "radius": -0.05, "divisions": 2},
     r"meshes\[0\].generator: radius must be positive"),
    ("meshes.0.generator.size", [-0.1, 0.1, 0.1],
     r"meshes\[0\].generator: size must be positive"),
    ("meshes.0.file", "frac_tets.json",
     r"meshes\[0\].file tets must hold integers"),
    ("friction_jacobian", "with_sliding_basis",
     "unknown keys at top level: friction_jacobian$"),
    ("contact.kappa_max", 1e16, "unknown keys at contact: kappa_max$"),
    ("meshes.0.angular_velocity", [0, 1, 0],
     r"unknown keys at meshes\[0\]: angular_velocity$"),
    ("step", 1e308, "step 1e\\+308 is longer than duration 0.02$"),
    ("meshes.0.file", "neg_tet.json",
     r"meshes\[0\].file tets: index -2 is outside \[0, 5\)$"),
    ("meshes.0.file", "big_tet.json",
     r"meshes\[0\].file tets: index 7 is outside \[0, 4\)$"),
    ("meshes", [{"file": "neg_group.json", "volume_region": {"group": "lid"}}],
     r"meshes\[0\].file surface_groups.lid: index -1 is outside \[0, 4\)$"),
    ("output.trajectory_every", -3,
     "output.trajectory_every must be positive, got -3$"),
    ("output.trajectory_every", 0,
     "output.trajectory_every must be positive, got 0$"),
    ("output.snapshot_every", -1,
     "output.snapshot_every must be nonnegative, got -1$"),
    # an automatic kappa out of range names its inputs, not a scene kappa
    ("gravity", [0, -1e20, 0],
     r"contact: the automatic kappa 4 m_avg \|g\| / \(3 delta\) = "
     r"1\.\d+e\+22 is outside .*gravity \[0\.0, -1e\+20, 0\.0\], "
     r"delta 0\.001,"),
    ("gravity", [0, -1e200, 0],
     r"contact: the automatic kappa .* = inf is outside .*"
     r"gravity \[0\.0, -1e\+200, 0\.0\]"),
    ("gravity", [0, -1e300, 0],
     r"contact: the automatic kappa .* = inf is outside .*"
     r"gravity \[0\.0, -1e\+300, 0\.0\]"),
    ("contact.kappa", 1e17,
     r"contact: kappa must satisfy 0 < kappa <= KAPPA_MAX = 1e\+16, "
     r"got 1e\+17$"),
    ("contact.kappa", -2.0, "contact: kappa must satisfy .*, got -2.0$"),
])
@pytest.mark.filterwarnings("error::RuntimeWarning")  # no overflow warning
def test_bad_value_named(path, value, match, tmp_path):
    (tmp_path / "bad_json.json").write_text('{"vertices": [[0, 0, 0]], ')
    (tmp_path / "no_tets.json").write_text('{"vertices": [[0, 0, 0]]}')
    (tmp_path / "frac_tets.json").write_text(json.dumps({
        "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "tets": [[0, 1, 2, 3.7]]}))
    tet = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
    (tmp_path / "neg_tet.json").write_text(json.dumps({
        "vertices": tet + [[1, 1, 1]],
        "tets": [[0, 1, 2, 3], [1, 2, 3, 4], [2, 1, 4, -2]]}))
    (tmp_path / "big_tet.json").write_text(json.dumps({
        "vertices": tet, "tets": [[0, 1, 2, 7]]}))
    (tmp_path / "neg_group.json").write_text(json.dumps({
        "vertices": tet, "tets": [[0, 1, 2, 3]],
        "surface_groups": {"lid": [0, -1]}}))
    cfg = json.loads(json.dumps(MINIMAL))
    *head, key = path.split(".")
    target = cfg
    for k in head:
        target = target[int(k)] if k.isdigit() else target.setdefault(k, {})
    target[key] = value
    if key == "file":
        del target["generator"]
    with pytest.raises(SceneError, match=match):
        load_scene(json.dumps(cfg), base_dir=str(tmp_path))


def test_readme_scene_example_loads():
    """The README's schema example, its ``//`` comments stripped, is a
    valid scene that names every top-level key."""
    with open(os.path.join(os.path.dirname(__file__), "..",
                           "README.md")) as fh:
        block = re.search(r"```jsonc\n(.*?)```", fh.read(), re.S).group(1)
    doc = json.loads(re.sub(r"//[^\n]*", "", block))
    load_scene(json.dumps(doc))
    assert set(doc) == set(_DEFAULTS) | {"meshes", "obstacles"}


def test_shipped_scenes_are_the_experiment_builders():
    """The benchmark and CLI read the scene files; the acceptance criteria
    build the same scenes in ``experiments``."""
    built = {"plate_squeeze.json": plate_squeeze_scene(0.005),
             "ball_drop.json": ball_drop_scene(0.002, "bdf2"),
             "block_slide.json": block_slide_scene(0.01, duration=2.0)}
    for name, doc in built.items():
        with open(os.path.join(SCENES, name)) as fh:
            assert json.load(fh) == json.loads(json.dumps(doc)), name


def _two_cubes():
    """``tet_drop_min``'s scene, its cube alone, and the scene with a second
    cube beside it: own density and Rayleigh alpha/beta, a volume region
    and one fixed vertex."""
    with open(os.path.join(SCENES, "tet_drop_min.json")) as fh:
        doc = json.load(fh)
    cube = doc["meshes"][0]
    second = {**cube, "name": "cube2", "translate": [0.3, 0.08, 0.0],
              "material": {**cube["material"], "density": 1200.0,
                           "rayleigh_alpha": 0.1, "rayleigh_beta": 0.002},
              "volume_region": {"model": "quadratic"},
              "fixed_vertices": [2]}
    return ({**doc, "meshes": [cube]}, {**doc, "meshes": [second]},
            {**doc, "meshes": [cube, second]})


def test_two_meshes_merge_on_one_numbering():
    first, second, both = (load_scene(json.dumps(d)) for d in _two_cubes())
    m1, m2, mesh = first.mesh, second.mesh, both.mesh
    n1 = m1.n_verts
    assert n1 == 8
    for name in ("vertex_mass", "mu", "lam", "alpha", "beta"):
        np.testing.assert_array_equal(
            getattr(mesh, name),
            np.concatenate([getattr(m1, name), getattr(m2, name)]), name)
    assert not np.array_equal(m1.vertex_mass, m2.vertex_mass)
    assert not np.array_equal(m1.alpha, m2.alpha)
    np.testing.assert_array_equal(mesh.surface_tris[len(m1.surface_tris):],
                                  m2.surface_tris + n1)
    assert list(both.fixed_vertices) == [2 + n1]
    (region,) = both.volume_penalties
    np.testing.assert_array_equal(region.region,
                                  second.volume_penalties[0].region + n1)

    sim = Simulation(both)
    v0 = sim.model.volume_penalties[0].rest_volume
    assert v0 == Simulation(second).model.volume_penalties[0].rest_volume
    assert v0 == pytest.approx(0.001, rel=1e-12)
    for _ in range(20):
        sim.advance()
    assert sim.record().deepest_gap > 0.0
    fixed = 3 * both.fixed_vertices[0]
    assert np.all(sim.state.v[fixed:fixed + 3] == 0.0)


def test_fixed_velocity_is_per_mesh():
    """A fixed vertex moves at its own mesh's ``fixed_velocity``, and at
    zero when its mesh gives none."""
    _, _, both = _two_cubes()
    a, b = both["meshes"]
    both["meshes"] = [{**a, "fixed_vertices": [0],
                       "fixed_velocity": [1, 0, 0]},
                      {**b, "fixed_vertices": [0]}]
    scene = load_scene(json.dumps(both))
    sim = Simulation(scene)
    sim.advance()
    v = sim.state.v.reshape(-1, 3)
    np.testing.assert_array_equal(scene.fixed_vertices, [0, 8])
    np.testing.assert_array_equal(v[0], [1.0, 0.0, 0.0])
    np.testing.assert_array_equal(v[8], [0.0, 0.0, 0.0])


def test_solver_config_built_once():
    scene = load_scene(json.dumps(MINIMAL))
    assert scene.solver == SolverConfig(v_tol=0.1 * 1e-4)  # friction eps
    assert scene.normalized["solver"] == {"kind": "direct"}


def test_unknown_integrator_rejected():
    cfg = json.loads(json.dumps(MINIMAL))
    cfg["integrator"] = "rk4"
    with pytest.raises(SceneError, match="integrator"):
        load_scene(json.dumps(cfg))


def test_shipped_scenes_parse():
    for name in os.listdir(SCENES):
        if name.endswith(".json"):
            load_scene_file(os.path.join(SCENES, name))


def test_csv_roundtrip_exact(tmp_path):
    scene = load_scene(json.dumps(MINIMAL))
    records, snaps, _ = run_simulation(scene)
    path = str(tmp_path / "t.csv")
    write_trajectory_csv(path, records, scene.region_names)
    cols, data = read_trajectory_csv(path)
    assert cols[0] == "time"
    for i, rec in enumerate(records):
        row = rec.row(scene.region_names)
        assert np.array_equal(np.asarray(row, float), data[i])


def test_csv_zero_samples_header_only(tmp_path):
    path = str(tmp_path / "empty.csv")
    write_trajectory_csv(path, [], [])
    cols, data = read_trajectory_csv(path)
    assert cols == ["time", "com_x", "com_y", "com_z", "kinetic", "elastic",
                    "contact_energy", "gravity_potential", "volume_energy",
                    "deepest_gap", "max_slide_speed", "kappa"]
    assert data.shape[0] == 0


def test_export_snapshots_and_manifest(tmp_path):
    cfg = json.loads(json.dumps(MINIMAL))
    cfg["output"] = {"trajectory_every": 1, "snapshot_every": 1}
    scene = load_scene(json.dumps(cfg))
    records, snaps, _ = run_simulation(scene)
    out = str(tmp_path / "out")
    written = export(records, snaps, out, scene=scene)
    objs = [w for w in written if w.endswith(".obj")]
    assert len(objs) == len(snaps)
    n_verts = scene.mesh.n_verts
    for path in objs:
        with open(path) as fh:
            vlines = [ln for ln in fh if ln.startswith("v ")]
        assert len(vlines) == n_verts
    with open(os.path.join(out, "manifest.json")) as fh:
        manifest = json.load(fh)
    assert manifest["config"]["step"] == 0.01
    assert "numpy" in manifest["versions"]


def test_reproducible_csv(tmp_path):
    cfg = json.dumps(MINIMAL)
    outs = []
    for run in range(2):
        scene = load_scene(cfg)
        records, _, _ = run_simulation(scene)
        path = str(tmp_path / f"r{run}.csv")
        write_trajectory_csv(path, records, scene.region_names)
        outs.append(open(path, "rb").read())
    assert outs[0] == outs[1]
