import numpy as np
import pytest

from surfscan.geometry import ViewPose4
from surfscan.world import Box, VoxelMap


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
    return ViewPose4(4.0, 0.0, 0.6, 0.0)
