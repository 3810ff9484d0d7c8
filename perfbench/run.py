#!/usr/bin/env python3
"""Step-time benchmark of fricsim, end to end and layer by layer.

    python3 perfbench/run.py --workload grasp --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

One workload per run.  The seed gives the workload's scene variants.  The
run times scene set-up, then runs rounds of whole closed-loop simulations,
one of each variant (each step starts only after the previous one is
accepted), until the next round would end past ``--seconds``; at least one
round always runs.  Every simulation's output is checked.  Times are
reported at reference speed: each is scaled by how long a fixed reference
kernel, timed between the steps, took against its reference time.  With
``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` every layer function is wrapped and the object
holds the per-layer metrics instead.  ``--workload all`` runs each workload
in its own process and prints one table.  See perfbench/README.md.
"""

import os

# One single-threaded process: pin the BLAS/OpenMP pools before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
from scipy.special import betainc  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5   # set-up samples before the first simulation
SETUP_EVERY = 10    # and one more after every 10th step, outside its timing

# The reference kernel: a fixed mix of interpreter work and small dense
# solves, timed once after every step and every set-up sample.  REF_S is its
# time at reference speed, about its time on the machine in the README
# notes when no other guest slows it.
REF_S = 0.3e-3
REF_WINDOW = 2      # a step is scaled by the reference times this many
                    # steps either side of it as well as its own
_REF_A = np.random.default_rng(0).random((40, 40)) + 40.0 * np.eye(40)


def time_reference() -> float:
    t0 = perf_counter()
    s = 0
    for i in range(1500):
        s += i * i
    for i in range(8):
        np.linalg.solve(_REF_A + i * np.eye(40), _REF_A[0])
    return perf_counter() - t0


@dataclass
class SimResult:
    steps: int
    step_s: list = field(default_factory=list)
    ref_s: list = field(default_factory=list)
    retries: int = 0
    stepinfo_solves: int = 0
    stepinfo_newton: int = 0
    counts: dict = field(default_factory=dict)
    resid_ratio_max: float = 0.0
    layers: dict = field(default_factory=dict)
    residual_in_solver: int = 0
    export_s: float = 0.0
    export_bytes: int = 0
    problems: list = field(default_factory=list)
    detail: str = ""
    variant: int = 0

    @property
    def scale(self) -> float:
        """Wall seconds of this simulation to seconds at reference speed."""
        return REF_S / statistics.fmean(self.ref_s) if self.ref_s else 1.0


def _div(a, b):
    return a / b if b else 0.0


def time_setup(fs, text, setups, refs):
    """Append one set-up time to ``setups`` and one reference time to
    ``refs``."""
    t0 = perf_counter()
    fs.Simulation(fs.load_scene(text, str(ROOT / "scenes")))
    setups.append(perf_counter() - t0)
    refs.append(time_reference())


def simulate_once(fs, wl, text, doc, tracer, setups, refs) -> SimResult:
    """One whole simulation of the workload, its export and its checks.

    The reference kernel is timed after every step, outside the step's
    time.  Set-up is timed again after every SETUP_EVERY-th step, so its
    samples spread over the same stretch of time as the steps.
    """
    scene = fs.load_scene(text, str(ROOT / "scenes"))
    sim = fs.Simulation(scene)
    records = [sim.record()]
    tracer.reset()
    res = SimResult(steps=wl.steps)
    try:
        for k in range(wl.steps):
            t0 = perf_counter()
            info = sim.advance()
            records.append(sim.record())
            res.step_s.append(perf_counter() - t0)
            res.ref_s.append(time_reference())
            if k % SETUP_EVERY == SETUP_EVERY - 1:
                time_setup(fs, text, setups, refs)
            res.retries += info.retries
            res.stepinfo_solves += len(info.reports)
            res.stepinfo_newton += sum(r.iterations for r in info.reports)
    except fs.StepFailure as exc:
        res.problems.append(f"StepFailure: {exc}")
        return res
    res.counts = dict(tracer.counts)
    res.resid_ratio_max = tracer.resid_ratio_max
    res.layers = tracer.layer_times()
    res.residual_in_solver = tracer.calls_under("integrators.residual",
                                                "solvers.newton")
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as out:
        t0 = perf_counter()
        written = fs.export(records, [], out, scene=scene)
        res.export_s = perf_counter() - t0
        res.export_bytes = sum(os.path.getsize(p) for p in written)
        with open(os.path.join(out, "trajectory.csv")) as fh:
            rows = fh.read().splitlines()[1:]
    res.problems += output_problems(records, rows, scene.region_names, wl)
    ok, res.detail = wl.physical_check(records, doc)
    if not ok:
        res.problems.append("physical check failed: " + res.detail)
    return res


def output_problems(records, csv_rows, region_names, wl):
    """Checks every workload shares: finite samples, no penetration and a
    trajectory.csv that holds every sample."""
    problems = []
    if len(records) != wl.steps + 1:
        problems.append(f"{len(records)} samples for {wl.steps} steps")
    if not all(math.isfinite(x) for r in records for x in r.row(region_names)):
        problems.append("non-finite sampled state")
    deepest = min(r.deepest_gap for r in records)
    if not deepest > 0.0:
        problems.append(f"deepest gap {deepest:.3e} <= 0")
    if len(csv_rows) != len(records):
        problems.append(f"trajectory.csv has {len(csv_rows)} rows, "
                        f"expected {len(records)}")
    elif float(csv_rows[-1].split(",")[0]) != records[-1].time:
        problems.append("trajectory.csv final time differs from the record")
    return problems


def med(ok, f):
    return statistics.median(f(r) for r in ok) if ok else 0.0


def step_ms(r: SimResult):
    """The simulation's step times in ms at reference speed.

    Each step is scaled by the mean reference time over the steps within
    REF_WINDOW of it, so that a stretch in which the machine ran slow is
    scaled by what the reference kernel took in that stretch.
    """
    ref = np.asarray(r.ref_s)
    window = np.ones(2 * REF_WINDOW + 1)
    local = (np.convolve(ref, window, "same")
             / np.convolve(np.ones_like(ref), window, "same"))
    return 1e3 * REF_S * np.asarray(r.step_s) / local


def p95(x):
    """Harrell-Davis estimate of the 95th percentile: a beta-weighted mean
    of the order statistics around it, steadier on a sparse tail of slow
    steps than the one or two order statistics a plain percentile uses."""
    x = np.sort(x)
    n = len(x)
    cdf = betainc(0.95 * (n + 1), 0.05 * (n + 1), np.arange(n + 1) / n)
    return float(np.diff(cdf) @ x)


def ms_per_step(ok):
    """Step time at reference speed over every step of the run."""
    return float(np.concatenate([step_ms(r) for r in ok]).mean()) \
        if ok else 0.0


def end_to_end(ok, setup_s, attempted):
    def newton(r):
        # the solver-boundary count; StepInfo only if the wraps found nothing
        if r.counts.get("solves"):
            return r.counts["newton"]
        return r.stepinfo_newton

    return {
        "ms_per_step": ms_per_step(ok),
        "step_ms_p95": p95(np.concatenate([step_ms(r) for r in ok]))
        if ok else 0.0,
        "newton_per_step": _div(sum(newton(r) for r in ok),
                                sum(r.steps for r in ok)),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": len(ok) / attempted,
    }


def per_layer(r: SimResult):
    steps = r.steps
    c = r.counts
    newton = c.get("newton", 0)
    solves = c.get("solves", 0)

    def ms(layer, self_time=False):
        calls, incl, self_s = r.layers.get(layer, (0, 0.0, 0.0))
        return 1e3 * r.scale * (self_s if self_time else incl) / steps

    return {
        "simulate.record_ms": ms("simulate.record"),
        "simulate.retries_per_step": r.retries / steps,
        "contact.build_ms": ms("contact.build"),
        "contact.candidates_per_step": c.get("candidates", 0) / steps,
        "contact.active_frac": _div(c.get("active", 0),
                                    c.get("candidates", 0)),
        "integrators.residual_ms": ms("integrators.residual"),
        "integrators.residual_per_newton": _div(r.residual_in_solver, newton),
        "integrators.jacobian_ms": ms("integrators.jacobian"),
        "forces.jacobians_ms": ms("forces.jacobians"),
        "forces.jacobians_self_ms": ms("forces.jacobians", self_time=True),
        "friction.blocks_ms": ms("friction.blocks"),
        "elasticity.damping_q_ms": ms("elasticity.damping_q"),
        "volume.hessian_ms": ms("volume.hessian"),
        "solvers.lu_ms": ms("solvers.lu"),
        "solvers.lu_fill": _div(c.get("lu_nnz", 0), c.get("jac_nnz", 0)),
        "solvers.jac_nnz": _div(c.get("jac_nnz", 0), c.get("lu_calls", 0)),
        "solvers.krylov_ms": ms("solvers.krylov"),
        "solvers.krylov_per_newton": _div(c.get("krylov_iters", 0), newton),
        "solvers.solves_per_step": solves / steps,
        "solvers.newton_per_solve": _div(newton, solves),
        "solvers.alpha_lt1_frac": _div(c.get("alpha_lt1", 0),
                                       c.get("alphas", 0)),
        "solvers.stagnation_stop_frac": _div(c.get("stagnation", 0), solves),
        "solvers.resid_ratio_max": r.resid_ratio_max,
        "dual.jvp_calls": r.layers.get("dual.jvp", (0,))[0] / steps,
        "dual.jvp_ms": ms("dual.jvp"),
        "export.write_ms": 1e3 * r.scale * r.export_s,
        "export.bytes": r.export_bytes,
    }


def print_layer_table(ok):
    """Human summary of the traced run: each layer's share of the step."""
    r = ok[0]
    step = sum(r.step_s)
    print(f"{'layer':<24}{'calls':>8}{'ms/step':>10}{'share':>8}"
          f"{'self ms':>10}{'self':>7}")
    for layer, (calls, incl, self_s) in sorted(r.layers.items()):
        print(f"{layer:<24}{calls:>8}{1e3 * incl / r.steps:>10.3f}"
              f"{incl / step:>8.1%}{1e3 * self_s / r.steps:>10.3f}"
              f"{self_s / step:>7.1%}")
    print(f"solves/Newton iterations seen at the solver boundary: "
          f"{r.counts.get('solves', 0)}/{r.counts.get('newton', 0)}; "
          f"in StepInfo.reports: {r.stepinfo_solves}/{r.stepinfo_newton}")


def run_workload(args) -> int:
    if not (ROOT / "src" / "fricsim" / "__init__.py").is_file() \
            or not (ROOT / "scenes").is_dir():
        print(f"perfbench: no fricsim sources under {ROOT}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    # metric names and units come from the manifest the harness reads
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import fricsim as fs
    import spans

    wl = WORKLOADS[args.workload]
    # variant j of seed n is the workload's scene for sub-seed n * V + j
    scenes = [wl.scene(ROOT, args.seed * wl.variants + j)
              for j in range(wl.variants)]

    setups, refs = [], []
    for i in range(SETUP_REPEATS):
        time_setup(fs, scenes[i % len(scenes)][0], setups, refs)

    tracer = spans.Tracer(spans.ALL_LAYERS if args.trace
                          else spans.COUNT_ONLY)
    results = []
    t_start = perf_counter()
    with tracer:
        while True:
            t0 = perf_counter()
            for j, (text, doc) in enumerate(scenes):
                try:
                    res = simulate_once(fs, wl, text, doc, tracer, setups,
                                        refs)
                except Exception:  # a crash is a failed run, not lost
                    traceback.print_exc()
                    res = SimResult(steps=wl.steps, problems=["crashed"])
                res.variant = j
                results.append(res)
            took = perf_counter() - t0
            if perf_counter() - t_start + took > args.seconds:
                break
    tracer.report_problems()

    ok = [r for r in results if not r.problems]
    for r in results:
        for p in r.problems:
            print(f"perfbench: {args.workload} seed {args.seed} variant "
                  f"{r.variant}: {p}", file=sys.stderr)
    if args.trace:
        listed = manifest["per_layer"]
        rows = [per_layer(r) for r in ok]
        metrics = {m["name"]: statistics.median(row[m["name"]] for row in rows)
                   if rows else 0.0 for m in listed
                   if not m["name"].startswith("trace.")}
        # the same estimator as the untraced ms_per_step, so that their
        # difference is the tracing overhead
        metrics["trace.ms_per_step"] = ms_per_step(ok)
        metrics["trace.wall_ms_per_step"] = med(
            ok, lambda r: 1e3 * statistics.fmean(r.step_s))
        if ok:
            print_layer_table(ok)
    else:
        listed = manifest["end_to_end"]
        setup_scale = REF_S / statistics.fmean(refs)
        metrics = end_to_end(ok, setup_scale * statistics.median(setups),
                             len(results))
    print(f"{args.workload} seed {args.seed}: {len(ok)}/{len(results)} "
          f"simulations passed; {ok[0].detail if ok else ''}")
    if ok:
        wall = med(ok, lambda r: 1e3 * statistics.fmean(r.step_s))
        speed = med(ok, lambda r: 1.0 / r.scale)
        print(f"wall ms per step {wall:.4g}; reference kernel took "
              f"{speed:.3f}x its reference time (median over simulations)")
    for m in listed:
        print(f"{m['name']:<34}{metrics[m['name']]:>14.6g} {m['unit']}")
    print(json.dumps({
        "correct": len(ok) == len(results),
        "attempted": len(results),
        "failed": len(results) - len(ok),
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in listed},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{name}: benchmark failed (exit {proc.returncode})")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}: {result['attempted'] - result['failed']}/"
              f"{result['attempted']} simulations passed")
        for metric, v in result["metrics"].items():
            print(f"  {metric:<34}{v['value']:>14.6g} {v['unit']}")
        if not result["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
