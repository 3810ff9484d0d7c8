"""Result export: CSV trajectories, OBJ-style mesh snapshots, run manifest.

Floats are written with ``repr`` (shortest round-trip, 17 significant digits
when needed), so a written CSV parses back to bit-identical values.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from contextlib import contextmanager

import numpy as np
import scipy

from .simulate import TrajectoryRecord


class ExportError(OSError):
    pass


def _fmt(x: float) -> str:
    return repr(float(x))


@contextmanager
def _writing(path: str, what: str):
    """``path`` open for writing; an OSError becomes an ExportError naming
    ``what`` and ``path``."""
    try:
        with open(path, "w") as fh:
            yield fh
    except OSError as exc:
        raise ExportError(f"cannot write {what} {path}: {exc}") from exc


def write_trajectory_csv(path: str, records, region_names):
    with _writing(path, "trajectory") as fh:
        fh.write(",".join(TrajectoryRecord.columns(region_names)) + "\n")
        for rec in records:
            fh.write(",".join(_fmt(v) for v in rec.row(region_names)) + "\n")


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
    with _writing(path, "snapshot") as fh:
        for p in positions:
            fh.write(f"v {_fmt(p[0])} {_fmt(p[1])} {_fmt(p[2])}\n")
        for t in tris:
            fh.write(f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}\n")


def export(records, snapshots, out_dir: str, scene):
    """Write trajectory.csv, frame_%06d snapshots and manifest.json."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ExportError(f"cannot create {out_dir}: {exc}") from exc
    csv_path = os.path.join(out_dir, "trajectory.csv")
    write_trajectory_csv(csv_path, records, scene.region_names)
    written = [csv_path]
    for step, positions in snapshots:
        path = os.path.join(out_dir, f"frame_{step:06d}.obj")
        write_snapshot_obj(path, positions, scene.mesh.surface_tris)
        written.append(path)
    manifest = {
        "config": scene.normalized,
        "versions": {
            "package": _pkg_version(),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "platform": platform.platform(),
        },
        "samples": len(records),
        "snapshots": len(snapshots),
    }
    man_path = os.path.join(out_dir, "manifest.json")
    with _writing(man_path, "manifest") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(man_path)
    return written


def _pkg_version():
    from . import __version__  # the package __init__ imports this module
    return __version__
