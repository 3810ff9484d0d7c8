import json
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from fricsim import cli
from fricsim.experiments import (SlideResult, analytic_stop,
                                 block_slide_scene, detect_stop,
                                 format_report, run_block_slide_variant)
from fricsim.scene import load_scene
from fricsim.simulate import run_simulation

SCENES = os.path.join(os.path.dirname(__file__), "..", "scenes")


def test_analytic_oracle_values():
    # closed-form kinematics: a = g (mu cos t - sin t), x = v0^2/2a, T = v0/a
    x, t = analytic_stop()
    a = 9.8 * (0.177 * np.cos(np.radians(10)) - np.sin(np.radians(10)))
    assert x == pytest.approx(0.1**2 / (2 * a), rel=1e-12)
    assert t == pytest.approx(0.1 / a, rel=1e-12)
    # consistency with the quoted stopping pair: v0 = 2 x_T / T
    assert 2 * 0.769 / 15.38 == pytest.approx(0.1, rel=1e-3)
    assert x == pytest.approx(0.769, rel=2e-3)
    assert t == pytest.approx(15.38, rel=2e-3)


def test_frictionless_block_never_stops():
    r = run_block_slide_variant("be", "implicit", 0.05, mu=0.0, duration=3.0)
    assert not r.stopped
    # distance grows monotonically
    scene = load_scene(json.dumps(block_slide_scene(0.05, mu=0.0,
                                                    duration=1.5)))
    records, _, _ = run_simulation(scene)
    th = np.radians(10.0)
    downhill = np.array([-np.cos(th), -np.sin(th), 0.0])
    disp = [(rec.com - records[0].com) @ downhill for rec in records]
    assert np.all(np.diff(disp) > 0)


def test_detect_stop_window():
    class R:
        def __init__(self, t, v, com):
            self.time = t
            self.max_slide_speed = v
            self.com = np.array(com)

    th = np.radians(10.0)
    downhill = np.array([-np.cos(th), -np.sin(th), 0.0])
    recs = [R(0.1 * k, 1.0 if k < 5 else 1e-6,
              downhill * (0.01 * min(k, 5))) for k in range(30)]
    stopped, dist, t_stop = detect_stop(recs, 1e-4, window=1.0)
    assert stopped
    assert t_stop == pytest.approx(0.5)
    assert dist == pytest.approx(0.05)


def test_block_size_independence():
    # stopping distance is insensitive to the block's dimensions
    r1 = run_block_slide_variant("be", "implicit", 0.05, duration=25.0)
    r2 = run_block_slide_variant("be", "implicit", 0.05, duration=25.0,
                                 divisions=(2, 1, 2))
    assert r1.stopped and r2.stopped
    assert r1.distance == pytest.approx(r2.distance, rel=0.02)


def test_cli_block_slide_writes_strict_json(tmp_path, monkeypatch):
    # one stopped and one failed row: exit 3, the table as printed, and a
    # failed row's non-finite floats written as null, not NaN
    nan = float("nan")
    rows = [SlideResult("be", "implicit", 0.05, stopped=True, distance=0.77,
                        stop_time=15.4, distance_error=1e-3, time_error=2e-3,
                        solves=800, newton=1234),
            SlideResult("tr", "lagged:4", 0.1, stopped=False, distance=nan,
                        stop_time=nan, distance_error=nan, time_error=nan,
                        failure="step 39 failed")]
    monkeypatch.setattr(cli, "experiment_block_slide",
                        lambda variants, duration: rows)
    out = tmp_path / "bs"
    assert cli.main(["block-slide", "--out", str(out)]) == 3
    assert (out / "block_slide.txt").read_text() == format_report(rows) + "\n"

    def reject(token):
        raise ValueError(f"not strict JSON: {token}")

    doc = json.loads((out / "block_slide.json").read_text(),
                     parse_constant=reject)
    assert doc[0] == rows[0].__dict__
    assert doc[1] == {**rows[1].__dict__, "distance": None,
                      "stop_time": None, "distance_error": None,
                      "time_error": None}
    # a finished row carries its solver work; a failed row its failure text
    # and null totals
    assert (doc[0]["solves"], doc[0]["newton"]) == (800, 1234)
    assert (doc[1]["solves"], doc[1]["newton"]) == (None, None)
    table = (out / "block_slide.txt").read_text().splitlines()
    assert table[1].split()[-2:] == ["solves", "Newton"]
    assert table[2].split()[-2:] == ["800", "1234"]
    assert table[3].endswith("FAILED   step 39 failed")


def test_cli_block_slide_config_error_exits_2(capsys):
    # a duration shorter than the quick matrix's steps is a config error:
    # exit 2 and one JSON line on stderr, not a traceback
    assert cli.main(["block-slide", "--quick", "--duration", "0.01"]) == 2
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err == {"error": "config",
                   "message": "step 0.1 is longer than duration 0.01"}


def test_cli_run_counts_solves_started_from_the_extrapolation(tmp_path,
                                                             capsys):
    # a short ball_drop run: BDF2 in free fall, where 2v - v_prev is the
    # next velocity, so every solve after the first step starts there
    with open(os.path.join(SCENES, "ball_drop.json")) as fh:
        doc = json.load(fh)
    doc["duration"] = 0.02
    short = tmp_path / "short.json"
    short.write_text(json.dumps(doc))
    _, _, infos = run_simulation(load_scene(json.dumps(doc), SCENES))
    starts = [r.start for i in infos for r in i.reports]
    assert starts == ["v"] + ["extrapolated"] * (len(infos) - 1)
    assert cli.main(["run", str(short), "--out", str(tmp_path / "o")]) == 0
    assert (f"), {len(infos) - 1} started from the extrapolation, "
            in capsys.readouterr().out)


def test_cli_run_simulation_failure_exits_3(tmp_path, capsys):
    # the mis-split TR on ball_in_box trips the stiffness cap at step 11:
    # exit 3 and one JSON line on stderr
    with open(os.path.join(SCENES, "ball_in_box.json")) as fh:
        doc = json.load(fh)
    doc.update(integrator="tr_missplit", duration=0.2)
    cfg = tmp_path / "missplit.json"
    cfg.write_text(json.dumps(doc))
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "simulation"
    assert err["message"].startswith("step 11: contact stiffness ")


def test_cli_run_out_under_a_regular_file_exits_4(tmp_path, capsys):
    with open(os.path.join(SCENES, "tet_drop_min.json")) as fh:
        doc = json.load(fh)
    doc["duration"] = 0.02
    cfg = tmp_path / "short.json"
    cfg.write_text(json.dumps(doc))
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "o"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == 4
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "io"


def test_cli_block_slide_quick_writes_both_files(tmp_path):
    # the quick matrix over 0.5 s: every row runs (TR's from the settled
    # start) and none fails
    out = tmp_path / "bs"
    assert cli.main(["block-slide", "--quick", "--duration", "0.5",
                     "--out", str(out)]) == 0
    doc = json.loads((out / "block_slide.json").read_text())
    assert {(r["integrator"], r["h"]) for r in doc} >= {("tr", 0.1),
                                                        ("be", 0.05)}
    assert not any(r["failure"] for r in doc)
    table = (out / "block_slide.txt").read_text()
    assert table == format_report([SlideResult(**r) for r in doc]) + "\n"


def test_cli_check_and_run(tmp_path):
    scenes = os.path.join(os.path.dirname(__file__), "..", "scenes")
    cfg = os.path.join(scenes, "tet_drop_min.json")
    env = dict(os.environ)
    out = subprocess.run([sys.executable, "-m", "fricsim.cli", "check", cfg],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0
    assert '"step"' in out.stdout

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"meshes": [], "duratio": 1.0}))
    out = subprocess.run([sys.executable, "-m", "fricsim.cli", "check",
                          str(bad)], capture_output=True, text=True, env=env)
    assert out.returncode == 2
    assert "duratio" in out.stderr

    with open(cfg) as fh:
        doc = json.load(fh)
    doc["solver"] = {"kind": "lu"}
    bad.write_text(json.dumps(doc))
    out = subprocess.run([sys.executable, "-m", "fricsim.cli", "check",
                          str(bad)], capture_output=True, text=True, env=env)
    assert out.returncode == 2
    assert "solver: kind" in out.stderr and "Traceback" not in out.stderr

    # a constructor's error and a broken mesh file: one JSON line, exit 2
    (tmp_path / "mesh.json").write_text('{"vertices": []}')
    gen_doc = json.loads(json.dumps(doc))
    gen_doc["meshes"][0]["generator"]["divisions"] = [0, 1, 1]
    file_doc = json.loads(json.dumps(doc))
    del file_doc["meshes"][0]["generator"]
    file_doc["meshes"][0]["file"] = "mesh.json"
    for bad_doc, where in ((gen_doc, "meshes[0].generator"),
                           (file_doc, "meshes[0].file")):
        bad.write_text(json.dumps(bad_doc))
        out = subprocess.run([sys.executable, "-m", "fricsim.cli", "check",
                              str(bad)], capture_output=True, text=True,
                             env=env)
        assert out.returncode == 2
        assert "Traceback" not in out.stderr
        lines = out.stderr.splitlines()
        assert len(lines) == 1 and where in json.loads(lines[0])["message"]

    # a directory as the scene file: one JSON line, exit 2
    out = subprocess.run([sys.executable, "-m", "fricsim.cli", "check",
                          str(tmp_path)], capture_output=True, text=True,
                         env=env)
    assert out.returncode == 2 and "Traceback" not in out.stderr
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "config"

    short = tmp_path / "short.json"
    with open(cfg) as fh:
        doc = json.load(fh)
    doc["duration"] = 0.02
    doc["solver"] = {"kind": "iterative"}
    short.write_text(json.dumps(doc))
    outdir = tmp_path / "results"
    out = subprocess.run([sys.executable, "-m", "fricsim.cli", "run",
                          str(short), "--out", str(outdir)],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert (outdir / "trajectory.csv").exists()
    assert (outdir / "manifest.json").exists()
    _, _, infos = run_simulation(load_scene(json.dumps(doc), scenes))
    reports = [r for i in infos for r in i.reports]
    newton = sum(r.iterations for r in reports)
    assert newton > 0
    assert (f"{len(reports)} solves, {newton} Newton iterations"
            in out.stdout), out.stdout
    stops = Counter(r.stop for r in reports)
    assert set(stops) <= {"residual", "step"}
    listed = ", ".join(f"{stops[k]} {k}" for k in sorted(stops))
    assert f"(stops: {listed})" in out.stdout, out.stdout
    krylov = sum(sum(r.linear_iters) for r in reports)
    assert krylov > 0
    assert f", {krylov} Krylov iterations," in out.stdout, out.stdout

    # the manifest cannot be written: one JSON line, exit 4
    blocked = tmp_path / "blocked"
    (blocked / "manifest.json").mkdir(parents=True)
    out = subprocess.run([sys.executable, "-m", "fricsim.cli", "run",
                          str(short), "--out", str(blocked)],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 4 and "Traceback" not in out.stderr
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "io"
    assert "manifest" in json.loads(lines[0])["message"]
