"""surfscan: adaptive surface-inspection planning and mission simulation.

A hierarchical inspection stack for voxel worlds: grid viewpoint planning
over a historical map, an annealed visitation tour, a reactive local view
planner driven by instantaneous range sensing, similarity-gated replanning
with rigid reconciliation of the global plan, and a deterministic mission
simulator with depth-image viewpoint-quality metrics.
"""

from .controller import add_odometry_noise, track_step
from .geometry import (
    DegenerateGeometryError,
    NoSurfaceError,
    PathSegment,
    PolygonROI,
    RigidTransform,
    ViewPose4,
    apply_transform,
    discrete_frechet,
    kabsch_align,
    nearest_point,
    polygon_basis,
    polygon_normal,
    wrap_angle,
)
from .global_plan import (
    InspectionTask,
    RouteError,
    TaskUnreachableError,
    Tour,
    ViewConstraints,
    ViewPlan,
    filter_viewpoints,
    generate_grid_viewpoints,
    plan_route,
    prioritize_tasks,
    solve_tour_sa_tsp,
)
from .local_plan import ego_frame, predict_local_path
from .metrics import (
    MissionLog,
    MissionRecord,
    estimate_normal_map,
    path_rmse,
    summarize,
    viewing_distance,
    viewpoint_utility,
)
from .mission import MissionResult, MissionRunner
from .scenario import ScenarioConfig, build_scene, demo_scenario, load_scenario
from .supervisor import (
    MissionMode,
    MissionState,
    MissionStatus,
    SimilarityScore,
    decide,
    extract_global_segment,
    path_similarity,
    reconcile,
    step_mission,
)
from .world import (
    Box,
    CameraIntrinsics,
    MorphologyDelta,
    Scene,
    VoxelMap,
    apply_delta,
    fibonacci_directions,
    is_collision_free,
    load_map,
    render_depth,
    sample_cloud,
)

__version__ = "0.1.0"

# There is no jitted path; perfbench/run.py's environment line reads this.
NUMBA_ENABLED = False
