"""Trajectory equality between two source trees.

Dump the eleven check scenes (the five in ``scenes/``, the lagged block
slide, the ball drop on SDIRK2 and on TR-BDF2, the plate squeeze on the
iterative solver, and the ball in the box and the plate squeeze on the
mis-split TR, each up to its failure) with the ``fricsim`` package of a
given ``src`` directory, then compare two dumps::

    python tools/trajcheck.py dump SRC_DIR OUT.pkl
    python tools/trajcheck.py compare A.pkl B.pkl

A dump holds, per scene, every ``TrajectoryRecord.row`` (the initial state
and the state after every step), the Newton count and the Krylov counts
(``SolveReport.linear_iters``) of every solve in step order, the final q
and v, and, for a scene that ends in a ``StepFailure``, its message and the
last kappa reached (the failure's ``kappa``; a failed step hands the model
back its start kappa).  ``dump`` also writes OUT.json, a summary small enough
to commit (``tools/trajcheck.json`` is the summary at HEAD): per scene the
steps taken, the Newton, solve and Krylov totals, the failure message and a
SHA-256 of the final q and v bytes.

``compare`` prints each scene's Newton, solve and Krylov totals and reports
the scene as ``==`` when all of them are equal bit for bit; otherwise it
says whether every solve's Newton and Krylov counts are equal (or the first
step where one differs), and names the first row that differs, the largest
final |dq| and |dv| and any differing failures.  Either side may be a
``.json`` summary; then only what a summary holds is compared, and a
differing scene names the summary fields that differ.  A scene that only
one side holds is reported as missing from the other and makes the sides
differ.  A last line sums the totals over the scenes both sides hold; the
exit code is 0 when the sides are equal, else 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import sys

# Pin the BLAS/OpenMP pools before numpy loads. Dumps of the eleven scenes
# with the banded LU are equal at 1 and 2 threads, but its bits do depend on
# the count at 6591 dofs, so a dump fixes it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _scene_doc(name):
    with open(os.path.join(ROOT, "scenes", name)) as fh:
        return json.load(fh)


# (label, scene file or a builder of a scene dict, given fricsim.experiments,
# steps)
SCENES = (
    ("plate_squeeze", "plate_squeeze.json", 400),
    ("ball_drop", "ball_drop.json", 250),
    ("ball_in_box", "ball_in_box.json", 200),
    ("block_slide", "block_slide.json", 200),
    ("tet_drop_min", "tet_drop_min.json", 100),
    ("slide_lagged", lambda ex: ex.block_slide_scene(
        0.01, "be", "lagged:4", solver_kind="iterative"), 250),
    ("ball_sdirk2", lambda ex: ex.ball_drop_scene(0.002, "sdirk2"), 150),
    ("ball_trbdf2", lambda ex: ex.ball_drop_scene(0.002, "trbdf2"), 150),
    ("plate_iterative", lambda ex: dict(ex.plate_squeeze_scene(0.005),
                                        solver={"kind": "iterative"}), 200),
    # the mis-split TR fails at step 11 of the ball, which meets a wall
    # within a step and so never feels contact at a step start, and at
    # step 3 of the plates, whose contact enters every step's explicit half.
    # How the plates fail depends on rounding: a one-ulp change, such as
    # every mu_d moved up by one ulp or TR's end q taken as the stage's
    # positions(v), flips their failure between LineSearchFailed and
    # MaxIters, so such a flip alone is no defect.
    ("ball_missplit", lambda ex: dict(_scene_doc("ball_in_box.json"),
                                      integrator="tr_missplit"), 12),
    ("plate_missplit", lambda ex: dict(_scene_doc("plate_squeeze.json"),
                                       integrator="tr_missplit"), 4),
)


def _scene(fs, spec):
    if callable(spec):
        from fricsim import experiments
        return fs.load_scene(json.dumps(spec(experiments)))
    return fs.load_scene_file(os.path.join(ROOT, "scenes", spec))


def dump(src: str, out: str, only=None):
    sys.path.insert(0, os.path.abspath(src))
    import fricsim as fs
    from fricsim.simulate import Simulation, StepFailure

    data = {}
    for label, spec, steps in SCENES:
        if only and label not in only:
            continue
        scene = _scene(fs, spec)
        sim = Simulation(scene)
        rows = [sim.record().row(scene.region_names)]
        newton, krylov = [], []
        failure = None
        for _ in range(steps):
            try:
                info = sim.advance()
            except StepFailure as exc:
                failure = f"{exc} (kappa {exc.kappa!r})"
                break
            newton.append([r.iterations for r in info.reports])
            krylov.append([list(r.linear_iters) for r in info.reports])
            rows.append(sim.record().row(scene.region_names))
        data[label] = {"rows": rows, "newton": newton, "krylov": krylov,
                       "q": sim.state.q.copy(), "v": sim.state.v.copy(),
                       "failure": failure}
        print(f"{label}: {len(newton)} steps, {sum(map(sum, newton))} "
              f"Newton, {_krylov_total(krylov)} Krylov"
              + (f", then {failure}" if failure else ""), flush=True)
    with open(out, "wb") as fh:
        pickle.dump(data, fh)
    with open(os.path.splitext(out)[0] + ".json", "w") as fh:
        json.dump(summary(data), fh, indent=1)
        fh.write("\n")


def _krylov_total(krylov):
    return sum(sum(map(sum, step)) for step in krylov)


def summary(data):
    """Per scene of a dump: steps, Newton, solve and Krylov totals, the
    failure message and a SHA-256 of the final q and v bytes (float64,
    little-endian, q first)."""
    return {label: {
        "steps": len(d["newton"]),
        "newton": sum(map(sum, d["newton"])),
        "solves": sum(map(len, d["newton"])),
        "krylov": _krylov_total(d["krylov"]),
        "failure": d.get("failure"),
        "state_sha256": hashlib.sha256(
            np.asarray(d["q"], "<f8").tobytes()
            + np.asarray(d["v"], "<f8").tobytes()).hexdigest()}
        for label, d in data.items()}


def _load(path):
    if path.endswith(".json"):
        with open(path) as fh:
            return json.load(fh)
    with open(path, "rb") as fh:
        return pickle.load(fh)


def _dump_difference(ra, rb):
    """(same, what differs) of one scene in two full dumps."""
    na, nb = ra["newton"], rb["newton"]
    ka, kb = ra["krylov"], rb["krylov"]
    bad_row = next((k for k, (x, y) in enumerate(zip(ra["rows"], rb["rows"]))
                    if x != y), None)
    same = (bad_row is None and len(ra["rows"]) == len(rb["rows"])
            and na == nb and ka == kb
            and np.array_equal(ra["q"], rb["q"])
            and np.array_equal(ra["v"], rb["v"])
            and ra.get("failure") == rb.get("failure"))
    if same:
        return True, ""
    bad_step = next((k for k, (x, y) in enumerate(zip(zip(na, ka),
                                                      zip(nb, kb)))
                     if x != y),
                    None if len(na) == len(nb) else min(len(na), len(nb)))
    return False, (
        "  per-solve Newton and Krylov "
        + ("equal" if bad_step is None else f"differs from step {bad_step}")
        + f", first differing row {bad_row}, final max |dq| "
        f"{np.abs(ra['q'] - rb['q']).max():.3e}, |dv| "
        f"{np.abs(ra['v'] - rb['v']).max():.3e}")


def compare(a: str, b: str) -> bool:
    da, db = _load(a), _load(b)
    full = not (a.endswith(".json") or b.endswith(".json"))
    sa, sb = (d if p.endswith(".json") else summary(d)
              for d, p in ((da, a), (db, b)))
    same_all = True
    sums = np.zeros((3, 2), int)  # (Newton, solves, Krylov) x (a, b)
    for label in sa:
        if label not in sb:
            print(f"{label}: missing from {b}")
            same_all = False
            continue
        xa, xb = sa[label], sb[label]
        sums += [[xa[k], xb[k]] for k in ("newton", "solves", "krylov")]
        if full:
            same, detail = _dump_difference(da[label], db[label])
        else:
            same = xa == xb
            detail = "" if same else "  differs in " + ", ".join(
                k for k in xa if xa[k] != xb.get(k))
        same_all &= same
        print(f"{label}: {'==' if same else '!='}  Newton "
              f"{xa['newton']} / {xb['newton']}  solves {xa['solves']} / "
              f"{xb['solves']}  Krylov {xa['krylov']} / {xb['krylov']}"
              + detail
              + ("" if xa["failure"] == xb["failure"] else
                 f", failures {xa['failure']!r} / {xb['failure']!r}"))
    for label in sb:
        if label not in sa:
            print(f"{label}: missing from {a}")
            same_all = False
    print(f"total: Newton {sums[0, 0]} / {sums[0, 1]}  "
          f"solves {sums[1, 0]} / {sums[1, 1]}  "
          f"Krylov {sums[2, 0]} / {sums[2, 1]}")
    return same_all


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    d = sub.add_parser("dump", help="simulate the check scenes and save")
    d.add_argument("src", help="directory that holds the fricsim package")
    d.add_argument("out", help="output pickle; the summary goes next to "
                   "it, with the extension .json")
    d.add_argument("--only", nargs="*", help="scene labels to run")
    c = sub.add_parser("compare", help="compare two dumps or summaries")
    c.add_argument("a")
    c.add_argument("b")
    args = ap.parse_args(argv)
    if args.cmd == "dump":
        if args.out.endswith(".json"):  # the summary would overwrite it
            ap.error("the output pickle must not end in .json")
        dump(args.src, args.out, args.only)
        return 0
    return 0 if compare(args.a, args.b) else 1


if __name__ == "__main__":
    sys.exit(main())
