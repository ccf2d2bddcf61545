import numpy as np
import pytest

from surfscan import kernels
from surfscan.geometry import Pose6
from surfscan.world import Box, VoxelMap


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    """Trigger JIT compilation once so per-test timing reflects computation,
    not compiler startup."""
    occ = np.zeros((4, 4, 4), dtype=np.bool_)
    occ[2, 2, 2] = True
    kernels.raycast_batch(occ, np.array([0.5, 2.5, 2.5]), np.array([[1.0, 0.0, 0.0]]), 10.0)
    kernels.point_is_free(occ, 0.5, 0.5, 0.5, 1.0, np.array([[2, 2, 2], [3, 3, 3]]))
    kernels.frechet_dp(np.zeros((2, 3)), np.ones((2, 3)))
    kernels.nearest_point_scan(np.zeros((2, 3)), 0.0, 0.0, 0.0)
    kernels.normals_from_depth(np.full((3, 3), 2.0), 10.0, 10.0, 1.0, 1.0, 0.3)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def wall_map():
    """Flat wall slab with its face at x = 6, inside a roomy grid."""
    return VoxelMap.from_boxes(
        [Box((6.0, -5.0, 0.0), (6.4, 5.0, 2.4))],
        voxel_size=0.1,
        bounds=((-1.0, -7.0, 0.0), (10.0, 7.0, 2.4)),
    )


@pytest.fixture
def robot_pose():
    return Pose6(4.0, 0.0, 0.6, 0.0, 0.0, 0.0)
