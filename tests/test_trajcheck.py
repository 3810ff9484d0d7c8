"""``tools/trajcheck.py compare`` on small hand-written dumps and
summaries."""

import hashlib
import json
import os
import pickle
import subprocess
import sys

import numpy as np

TOOL = os.path.join(os.path.dirname(__file__), "..", "tools", "trajcheck.py")


def _scene(q0=0.1):
    return {"rows": [[0.0, q0], [0.01, 0.2]], "newton": [[2, 3]],
            "krylov": [[[], []]], "q": np.array([q0, 0.2, 0.3]),
            "v": np.zeros(3), "failure": None}


def _compare(tmp_path, da, db, names=("a.pkl", "b.pkl")):
    paths = []
    for name, data in zip(names, (da, db)):
        paths.append(str(tmp_path / name))
        if name.endswith(".json"):
            with open(paths[-1], "w") as fh:
                json.dump(data, fh)
        else:
            with open(paths[-1], "wb") as fh:
                pickle.dump(data, fh)
    out = subprocess.run([sys.executable, TOOL, "compare", *paths],
                         capture_output=True, text=True)
    return out.returncode, out.stdout


def test_equal_dumps_compare_equal(tmp_path):
    code, out = _compare(tmp_path, {"s": _scene()}, {"s": _scene()})
    assert code == 0
    assert out.startswith("s: ==  Newton 5 / 5  solves 2 / 2  Krylov 0 / 0")
    assert out.splitlines()[-1] == "total: Newton 5 / 5  solves 2 / 2  " \
                                   "Krylov 0 / 0"


def test_one_ulp_in_q_differs(tmp_path):
    b = _scene(np.nextafter(0.1, 1.0))
    b["rows"] = _scene()["rows"]  # only the final q differs
    code, out = _compare(tmp_path, {"s": _scene()}, {"s": b})
    assert code == 1
    assert out.startswith("s: !=")
    assert "per-solve Newton and Krylov equal" in out


def test_scene_only_in_the_second_dump_is_reported(tmp_path):
    code, out = _compare(tmp_path, {"s": _scene()},
                         {"s": _scene(), "extra": _scene()})
    assert code == 1
    assert "s: ==" in out
    assert f"extra: missing from {tmp_path / 'a.pkl'}" in out


def test_summary_compares_with_its_own_dump(tmp_path):
    # the summary of _scene(): steps, totals, failure and the SHA-256 of
    # the final q and v as little-endian float64 bytes, q first
    state = np.array([0.1, 0.2, 0.3]).tobytes() + np.zeros(3).tobytes()
    summary = {"s": {"steps": 1, "newton": 5, "solves": 2, "krylov": 0,
                     "failure": None,
                     "state_sha256": hashlib.sha256(state).hexdigest()}}
    names = ("a.json", "b.pkl")
    code, out = _compare(tmp_path, summary, {"s": _scene()}, names)
    assert code == 0
    assert out.splitlines()[0] == "s: ==  Newton 5 / 5  solves 2 / 2  " \
                                  "Krylov 0 / 0"
    b = _scene(np.nextafter(0.1, 1.0))
    b["rows"] = _scene()["rows"]  # only the final q differs
    code, out = _compare(tmp_path, summary, {"s": b}, names)
    assert code == 1
    assert out.startswith("s: !=")
    assert "differs in state_sha256" in out
