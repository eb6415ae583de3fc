"""Opti-acoustic plane-sweep depth estimation.

Fuses a forward-looking sonar scan with a camera image by hypothesizing a
family of inclined planes, warping sonar features onto each, scoring the
matches in a cost volume, and regressing a dense metric depth map. Ships
with a synthetic opti-acoustic simulator, a preprocessing pipeline, an
evaluation harness, and a CLI binding it all together.
"""

from .config import CalibrationBundle, default_rig
from .geometry import (
    CameraIntrinsics,
    PlaneHypothesisSet,
    RigidTransform,
    SonarSpec,
    WarpGrid,
    build_warp_grid,
    cartesian_to_sonar_polar,
    ray_depth_to_euclidean,
    solve_ray_plane,
    spherical_to_cartesian,
)

__all__ = [
    "CalibrationBundle",
    "CameraIntrinsics",
    "PlaneHypothesisSet",
    "RigidTransform",
    "SonarSpec",
    "WarpGrid",
    "build_warp_grid",
    "cartesian_to_sonar_polar",
    "default_rig",
    "ray_depth_to_euclidean",
    "solve_ray_plane",
    "spherical_to_cartesian",
]

__version__ = "0.1.0"
