"""Hypothesis strategies shared by the kernel and world property tests."""

import numpy as np
from hypothesis import strategies as st


@st.composite
def occupancy_grids(draw, max_side=9):
    shape = tuple(draw(st.integers(1, max_side)) for _ in range(3))
    fill = draw(st.sampled_from([0.0, 0.05, 0.2, 0.5, 1.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).random(shape) < fill


@st.composite
def grid_coordinate(draw, n):
    """Inside the grid, outside it, or exactly on a voxel boundary."""
    return draw(
        st.one_of(
            st.floats(0.0, float(n)),
            st.floats(-4.0, n + 4.0),
            st.integers(-2, n + 2).map(float),
        )
    )


@st.composite
def on_grid_coordinate(draw, n):
    """On the grid by the map's rule, 0 <= o < n: anywhere, or exactly on a
    voxel boundary."""
    return draw(st.one_of(st.floats(0.0, float(n), exclude_max=True), st.integers(0, n - 1).map(float)))


direction_component = st.one_of(
    st.just(0.0),
    st.floats(-3.0, 3.0, allow_subnormal=False),
    st.sampled_from([-1.0, -0.5, 0.5, 1.0]),
)


@st.composite
def wall_slabs(draw):
    """A wall slab across the grid's x axis, of random thickness, width and
    height, with an optional pocket receded into its face."""
    shape = (draw(st.integers(3, 12)), draw(st.integers(2, 12)), draw(st.integers(2, 10)))
    occ = np.zeros(shape, dtype=np.bool_)
    lo = [draw(st.integers(0, n - 1)) for n in shape]
    hi = [draw(st.integers(l + 1, n)) for l, n in zip(lo, shape)]
    occ[lo[0] : hi[0], lo[1] : hi[1], lo[2] : hi[2]] = True
    if draw(st.booleans()):
        depth = draw(st.integers(1, hi[0] - lo[0]))
        y0, z0 = draw(st.integers(lo[1], hi[1] - 1)), draw(st.integers(lo[2], hi[2] - 1))
        y1, z1 = draw(st.integers(y0 + 1, hi[1])), draw(st.integers(z0 + 1, hi[2]))
        occ[lo[0] : lo[0] + depth, y0:y1, z0:z1] = False
    return occ


@st.composite
def depth_images(draw, min_side=1):
    """A depth image up to 10x10: a tilted plane, noisy or not, with depth
    jumps and invalid (nan) pixels."""
    h = draw(st.integers(min_side, 10))
    w = draw(st.integers(min_side, 10))
    v, u = np.mgrid[0:h, 0:w].astype(np.float64)
    a, b = draw(st.sampled_from([0.0, 0.05, -0.1])), draw(st.sampled_from([0.0, 0.02, 0.2]))
    c = draw(st.sampled_from([0.0, 1.0, 2.5]))  # 0.0 gives degenerate all-zero patches
    depth = a * u + b * v + c
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    depth += draw(st.sampled_from([0.0, 1e-3, 0.2])) * rng.standard_normal((h, w))
    # Depth jumps and invalid (nan) pixels.
    depth[rng.random((h, w)) < draw(st.sampled_from([0.0, 0.1]))] += 1.0
    depth[rng.random((h, w)) < draw(st.sampled_from([0.0, 0.1, 0.3]))] = np.nan
    return depth
