"""Result export: CSV trajectories, OBJ-style mesh snapshots, run manifest.

Floats are written with ``repr`` (shortest round-trip, 17 significant digits
when needed), so a written CSV parses back to bit-identical values.
"""

from __future__ import annotations

import json
import os
import platform
import sys

import numpy as np

from .simulate import TrajectoryRecord


class ExportError(OSError):
    pass


def _fmt(x: float) -> str:
    return repr(float(x))


def write_trajectory_csv(path: str, records, region_names):
    cols = TrajectoryRecord.columns(region_names)
    try:
        with open(path, "w") as fh:
            fh.write(",".join(cols) + "\n")
            for rec in records:
                fh.write(",".join(_fmt(v) for v in rec.row(region_names))
                         + "\n")
    except OSError as exc:
        raise ExportError(f"cannot write trajectory {path}: {exc}") from exc


def read_trajectory_csv(path: str):
    """(column names, (n, k) float array); inverse of write_trajectory_csv."""
    with open(path) as fh:
        header = fh.readline().strip()
        cols = header.split(",") if header else []
        rows = [[float(tok) for tok in line.strip().split(",")]
                for line in fh if line.strip()]
    data = np.asarray(rows, float) if rows else np.zeros((0, len(cols)))
    return cols, data


def write_snapshot_obj(path: str, positions: np.ndarray, tris: np.ndarray):
    """Wavefront-style text mesh: v lines for every vertex, f lines (1-based)
    for the surface triangles."""
    try:
        with open(path, "w") as fh:
            for p in positions:
                fh.write(f"v {_fmt(p[0])} {_fmt(p[1])} {_fmt(p[2])}\n")
            for t in tris:
                fh.write(f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}\n")
    except OSError as exc:
        raise ExportError(f"cannot write snapshot {path}: {exc}") from exc


def export(records, snapshots, out_dir: str, scene=None, surface_tris=None,
           region_names=()):
    """Write trajectory.csv, frame_%06d snapshots and manifest.json."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ExportError(f"cannot create {out_dir}: {exc}") from exc
    region_names = list(region_names) if region_names else \
        (scene.region_names if scene is not None else [])
    csv_path = os.path.join(out_dir, "trajectory.csv")
    write_trajectory_csv(csv_path, records, region_names)
    written = [csv_path]
    if snapshots and surface_tris is None and scene is not None:
        surface_tris = scene.mesh.surface_tris
    for step, positions in snapshots or []:
        path = os.path.join(out_dir, f"frame_{step:06d}.obj")
        write_snapshot_obj(path, positions, surface_tris)
        written.append(path)
    manifest = {
        "config": scene.normalized if scene is not None else None,
        "versions": {
            "package": _pkg_version(),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": _scipy_version(),
            "platform": platform.platform(),
        },
        "samples": len(records),
        "snapshots": len(snapshots or []),
    }
    man_path = os.path.join(out_dir, "manifest.json")
    with open(man_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(man_path)
    return written


def _pkg_version():
    from . import __version__
    return __version__


def _scipy_version():
    import scipy
    return scipy.__version__
