"""Command line interface: run scenes, validate configs, run the block-slide
benchmark matrix.

Exit codes: 0 success, 2 configuration error, 3 simulation failure,
4 I/O failure.  Errors also emit one machine-readable JSON line on stderr:
{"error": <category>, "message": <text>}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import Counter

from .experiments import DEFAULT_MATRIX, experiment_block_slide, format_report
from .export import ExportError, export
from .scene import SceneError, load_scene_file
from .simulate import StepFailure, run_simulation


def _fail(category: str, message: str, code: int) -> int:
    print(json.dumps({"error": category, "message": message}),
          file=sys.stderr)
    return code


def cmd_run(args) -> int:
    try:
        scene = load_scene_file(args.config)
    except SceneError as exc:
        return _fail("config", str(exc), 2)
    try:
        records, snapshots, infos = run_simulation(scene)
    except StepFailure as exc:
        return _fail("simulation", str(exc), 3)
    try:
        export(records, snapshots, args.out, scene=scene)
    except ExportError as exc:
        return _fail("io", str(exc), 4)
    retries = sum(i.retries for i in infos)
    reports = [r for i in infos for r in i.reports]
    newton = sum(r.iterations for r in reports)
    extrapolated = sum(r.start == "extrapolated" for r in reports)
    krylov = sum(sum(r.linear_iters) for r in reports)
    stops = ", ".join(f"{n} {why}" for why, n in
                      sorted(Counter(r.stop for r in reports).items()))
    print(f"{len(infos)} steps, {len(records)} samples, "
          f"{len(reports)} solves, {newton} Newton iterations "
          f"(stops: {stops}), {extrapolated} started from the "
          f"extrapolation, {krylov} Krylov iterations, "
          f"{retries} contact retries, final kappa "
          f"{records[-1].kappa:.4g}; results in {args.out}")
    return 0


def cmd_check(args) -> int:
    try:
        scene = load_scene_file(args.config)
    except SceneError as exc:
        return _fail("config", str(exc), 2)
    sys.stdout.write(scene.normalized_dump())
    return 0


def cmd_block_slide(args) -> int:
    if args.quick:
        variants = tuple((i, m, h) for (i, m, h) in DEFAULT_MATRIX
                         if h >= 0.05)
    else:
        variants = DEFAULT_MATRIX
    results = experiment_block_slide(variants, duration=args.duration)
    report = format_report(results)
    print(report)
    if args.out:
        try:
            os.makedirs(args.out, exist_ok=True)
            with open(f"{args.out}/block_slide.txt", "w") as fh:
                fh.write(report + "\n")
            with open(f"{args.out}/block_slide.json", "w") as fh:
                # strict JSON: a failed row's non-finite floats are null
                json.dump([{k: None if isinstance(v, float)
                            and not math.isfinite(v) else v
                            for k, v in r.__dict__.items()}
                           for r in results], fh, indent=2, allow_nan=False)
                fh.write("\n")
        except OSError as exc:
            return _fail("io", str(exc), 4)
    if any(r.failure for r in results):
        return 3
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fricsim",
        description="Implicit FEM elastodynamics with smoothed frictional "
                    "contact")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scene config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default="out")
    p_run.set_defaults(func=cmd_run)

    p_check = sub.add_parser("check",
                             help="validate a config and print the "
                                  "normalized form")
    p_check.add_argument("config")
    p_check.set_defaults(func=cmd_check)

    p_bs = sub.add_parser("block-slide",
                          help="run the incline stopping benchmark matrix")
    p_bs.add_argument("--out", default="")
    p_bs.add_argument("--duration", type=float, default=40.0)
    p_bs.add_argument("--quick", action="store_true",
                      help="only the h >= 0.05 s variants")
    p_bs.set_defaults(func=cmd_block_slide)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
