"""File formats: ASCII xyz point files and path CSVs."""

import csv
import warnings
from pathlib import Path

import numpy as np

from .geometry import PathSegment

__all__ = ["load_xyz", "save_xyz", "load_path_csv", "save_path_csv"]


def load_xyz(path):
    """Read an ASCII xyz file (one `x y z` triple per line, meters,
    whitespace-separated, `#` starts a comment) into an (N, 3) array.

    numpy's parser reads well-formed files; a malformed, empty or
    comment-only file is re-read line by line, which names the offending
    line or returns a (0, 3) array.
    """
    with warnings.catch_warnings():
        # loadtxt warns on a file without data; the line loop handles it.
        warnings.simplefilter("ignore", UserWarning)
        try:
            points = np.loadtxt(path, comments="#", ndmin=2, encoding="utf-8")
        except ValueError:
            points = None
    if points is not None and points.shape[0] and points.shape[1] == 3:
        return points
    return _load_xyz_lines(path)


def _load_xyz_lines(path):
    points = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 values, got {len(parts)}")
            try:
                points.append([float(p) for p in parts])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return np.asarray(points, dtype=np.float64).reshape(-1, 3)


def save_xyz(path, points, comment=None):
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    with open(path, "w", encoding="utf-8") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        for x, y, z in points:
            fh.write(f"{float(x)!r} {float(y)!r} {float(z)!r}\n")


def save_path_csv(path, segment):
    """Write a path as CSV with an `x,y,z,psi` header."""
    seg = segment if isinstance(segment, PathSegment) else PathSegment(segment)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "z", "psi"])
        for row in seg.as_array():
            writer.writerow([repr(float(v)) for v in row])


def load_path_csv(path):
    rows = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if [h.strip() for h in header] != ["x", "y", "z", "psi"]:
            raise ValueError(f"{path}: expected header x,y,z,psi, got {header}")
        for rec in reader:
            rows.append([float(v) for v in rec])
    if not rows:
        raise ValueError(f"{path}: empty path")
    return PathSegment(np.asarray(rows))


def ensure_dir(path):
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    return p
