"""Seeded generator for the `large_site_plan` scenario.

The site is a 40 x 40 x 2.4 m ground-robot yard at 0.1 m voxels.  Its
historical map is a surveyed surface cloud (ASCII xyz, 20 points per metre
along each face, so several points per surface voxel), and its current map
differs by a morphology delta.  Four inspection tasks:

    face      a 32 m face along x = 34
    north     a 12 m wall along y = 36
    south     a 10 m wall along y = 3.6
    enclosed  the inner face of a closed room: its viewpoints lie in free
              space that no route reaches, so planning floods the yard and
              skips the task

The seed places the stockpile (historical), the recess cut into the face
(delta removal) and the spoil heap (delta addition) within fixed ranges
that keep clear of every viewpoint, and sets the scenario seed.  The task
set, the map size and the expected outcomes are the same for every seed.
"""

import numpy as np

SITE_LO = (0.0, 0.0, 0.0)
SITE_HI = (40.0, 40.0, 2.4)
WALL_H = 2.4
POINT_SPACING = 0.05  # m between surveyed points on a face
INSET = 0.01  # points sit this far inside their box, clear of voxel faces

FIXED_BOXES = (
    ((34.0, 4.0, 0.0), (34.4, 36.0, WALL_H)),  # face
    ((8.0, 36.0, 0.0), (20.0, 36.4, WALL_H)),  # north wall
    ((14.0, 3.6, 0.0), (24.0, 4.0, WALL_H)),  # south wall
    ((12.0, 14.0, 0.0), (12.4, 22.0, WALL_H)),  # room: west
    ((19.6, 14.0, 0.0), (20.0, 22.0, WALL_H)),  # room: east
    ((12.0, 14.0, 0.0), (20.0, 14.4, WALL_H)),  # room: south
    ((12.0, 21.6, 0.0), (20.0, 22.0, WALL_H)),  # room: north
)

TASKS = (
    ("face", ((34.0, 4.0, 0.0), (34.0, 36.0, 0.0), (34.0, 36.0, 2.0), (34.0, 4.0, 2.0))),
    ("north", ((8.0, 36.0, 0.0), (20.0, 36.0, 0.0), (20.0, 36.0, 2.0), (8.0, 36.0, 2.0))),
    ("south", ((14.0, 3.6, 0.0), (24.0, 3.6, 0.0), (24.0, 3.6, 2.0), (14.0, 3.6, 2.0))),
    ("enclosed", ((19.6, 16.0, 0.0), (19.6, 20.0, 0.0), (19.6, 20.0, 2.0), (19.6, 16.0, 2.0))),
)

EXPECTED_EXECUTABLE = frozenset({"face", "north", "south"})
EXPECTED_SKIPPED = frozenset({"enclosed"})

START = (2.0, 2.0, 0.6, 0.0)


def _tenth(x):
    return round(float(x), 1)


def seeded_layout(seed):
    """Stockpile box, recess box and spoil-heap box for a seed."""
    rng = np.random.default_rng(seed)
    sx, sy = _tenth(rng.uniform(23.0, 27.0)), _tenth(rng.uniform(8.0, 28.0))
    stockpile = ((sx, sy, 0.0), (_tenth(sx + 4.0), _tenth(sy + 2.0), WALL_H))
    ry, rlen = _tenth(rng.uniform(8.0, 28.0)), _tenth(rng.uniform(2.0, 4.0))
    depth = _tenth(0.1 * int(rng.integers(1, 4)))
    recess = ((34.0, ry, 0.0), (_tenth(34.0 + depth), _tenth(ry + rlen), WALL_H))
    hx, hy = _tenth(rng.uniform(4.0, 8.0)), _tenth(rng.uniform(24.0, 30.0))
    heap = ((hx, hy, 0.0), (_tenth(hx + 1.5), _tenth(hy + 1.5), 1.2))
    return stockpile, recess, heap


def _face_grid(a_lo, a_hi, b_lo, b_hi):
    a = np.arange(a_lo + POINT_SPACING / 2, a_hi, POINT_SPACING)
    b = np.arange(b_lo + POINT_SPACING / 2, b_hi, POINT_SPACING)
    aa, bb = np.meshgrid(a, b, indexing="ij")
    return aa.ravel(), bb.ravel()


def box_surface_points(lo, hi):
    """Points on the six faces of a box, inset so each lands in its
    surface voxel."""
    (x0, y0, z0), (x1, y1, z1) = lo, hi
    parts = []
    for x in (x0 + INSET, x1 - INSET):
        y, z = _face_grid(y0, y1, z0, z1)
        parts.append(np.column_stack([np.full_like(y, x), y, z]))
    for y in (y0 + INSET, y1 - INSET):
        x, z = _face_grid(x0, x1, z0, z1)
        parts.append(np.column_stack([x, np.full_like(x, y), z]))
    for z in (z0 + INSET, z1 - INSET):
        x, y = _face_grid(x0, x1, y0, y1)
        parts.append(np.column_stack([x, y, np.full_like(x, z)]))
    return np.vstack(parts)


def _box_yaml(box):
    (x0, y0, z0), (x1, y1, z1) = box
    return f"{{lo: [{x0}, {y0}, {z0}], hi: [{x1}, {y1}, {z1}]}}"


def write_site(seed, out_dir):
    """Write `site.yaml` and `survey.xyz` for the seed into out_dir and
    return (yaml_path, point_count)."""
    stockpile, recess, heap = seeded_layout(seed)
    points = np.vstack([box_surface_points(lo, hi) for lo, hi in FIXED_BOXES + (stockpile,)])
    with open(out_dir / "survey.xyz", "w", encoding="utf-8") as fh:
        fh.write(f"# large_site_plan survey, seed {seed}\n")
        np.savetxt(fh, points, fmt="%.4f")

    tasks = "\n".join(
        f"  - id: {tid}\n    vertices: {[list(v) for v in verts]}" for tid, verts in TASKS
    )
    text = f"""version: 1
name: large-site-{seed}
mode: adaptive
seed: {seed}
voxel_size: 0.1
inflation: 0.5
z_band: [0.6, 0.6]
robot:
  start: {list(START)}
maps:
  bounds: {{lo: {list(SITE_LO)}, hi: {list(SITE_HI)}}}
  historical: {{file: survey.xyz}}
  delta:
    removals:
      - {_box_yaml(recess)}
    additions:
      - {_box_yaml(heap)}
tasks:
{tasks}
"""
    path = out_dir / "site.yaml"
    path.write_text(text, encoding="utf-8")
    return path, points.shape[0]
