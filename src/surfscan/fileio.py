"""File formats: ASCII xyz point files."""

import math
import warnings
from pathlib import Path

import numpy as np

__all__ = ["load_xyz"]


def load_xyz(path):
    """Read an ASCII xyz file (one `x y z` triple per line, meters,
    whitespace-separated, `#` starts a comment) into an (N, 3) array.

    numpy's parser reads well-formed files; a malformed, empty or
    comment-only file, or one with a non-finite value (`nan`, `inf`), is
    re-read line by line, which names the offending line or returns a
    (0, 3) array.
    """
    with warnings.catch_warnings():
        # loadtxt warns on a file without data; the line loop handles it.
        warnings.simplefilter("ignore", UserWarning)
        try:
            points = np.loadtxt(path, comments="#", ndmin=2, encoding="utf-8")
        except ValueError:
            points = None
    if points is not None and points.shape[0] and points.shape[1] == 3 and np.isfinite(points).all():
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
                point = [float(p) for p in parts]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if not all(math.isfinite(v) for v in point):
                raise ValueError(f"{path}:{lineno}: non-finite value in {line!r}")
            points.append(point)
    return np.asarray(points, dtype=np.float64).reshape(-1, 3)


def ensure_dir(path):
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    return p
