"""Coordinate frames, projection models, and the closed-form ray/plane intersection.

Frame conventions used throughout the package:

Sonar frame (frame S, right-handed):
  - X: lateral, positive to starboard
  - Y: forward, along the acoustic axis
  - Z: up (elevation)

Camera frame (frame C, standard computer vision):
  - X: right in the image, Y: down, Z: forward (optical axis)
  - pixels (u, v) with u right and v down, origin at the top-left corner

A :class:`RigidTransform` (R, t) maps sonar-frame points into the camera
frame as ``P_c = R @ P_s + t``.

All angles are radians; degrees appear only at config/CLI boundaries.
Every operation here is pure and safe to vectorize or share across threads.
"""

from dataclasses import dataclass

import numpy as np

ORTHONORMALITY_TOL = 1e-9


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole camera model with no distortion.

    Attributes:
        fx, fy: Focal lengths in pixels.
        cx, cy: Principal point in pixels.
        width, height: Image size in pixels.
    """

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (0 < self.fx < np.inf and 0 < self.fy < np.inf):
            raise ValueError(
                f"focal lengths must be positive and finite, got fx={self.fx}, fy={self.fy}")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError(
                f"principal point ({self.cx}, {self.cy}) outside image "
                f"{self.width}x{self.height}"
            )

    def ray_directions(self, u, v) -> np.ndarray:
        """Unnormalized camera-frame ray K^-1 [u, v, 1]^T for pixel(s) (u, v).

        Broadcasts; returns shape (..., 3).
        """
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        x = (u - self.cx) / self.fx
        y = (v - self.cy) / self.fy
        return np.stack([x, y, np.ones_like(x)], axis=-1)

    def project(self, points_cam: np.ndarray) -> np.ndarray:
        """Project camera-frame points (..., 3) to pixels (..., 2).

        Caller is responsible for checking Z > 0; points at Z = 0 yield inf.
        """
        points_cam = np.asarray(points_cam, dtype=float)
        z = points_cam[..., 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            u = self.fx * points_cam[..., 0] / z + self.cx
            v = self.fy * points_cam[..., 1] / z + self.cy
        return np.stack([u, v], axis=-1)


@dataclass(frozen=True)
class RigidTransform:
    """Rigid motion P_out = R @ P_in + t; rotation checked at construction."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=float).reshape(3, 3)
        t = np.asarray(self.translation, dtype=float).reshape(3)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(t))):
            raise ValueError("rotation and translation must be finite")
        if np.max(np.abs(r.T @ r - np.eye(3))) > ORTHONORMALITY_TOL:
            raise ValueError("rotation matrix is not orthonormal within 1e-9")
        if abs(np.linalg.det(r) - 1.0) > ORTHONORMALITY_TOL:
            raise ValueError("rotation matrix determinant is not +1 within 1e-9")

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform points of shape (..., 3)."""
        points = np.asarray(points, dtype=float)
        return points @ self.rotation.T + self.translation


@dataclass(frozen=True)
class SonarSpec:
    """Forward-looking sonar imaging geometry.

    Attributes:
        range_min, range_max: Sensing range bounds in meters.
        bearing_fov: Total horizontal aperture in radians.
        elevation_fov: Total vertical aperture in radians.
        range_bins, bearing_bins: Polar image dimensions.
    """

    range_min: float
    range_max: float
    bearing_fov: float
    elevation_fov: float
    range_bins: int
    bearing_bins: int

    def __post_init__(self):
        if not (0 < self.range_min < self.range_max < np.inf):
            raise ValueError(f"need 0 < range_min < range_max < inf, got [{self.range_min}, {self.range_max}]")
        if not (0 < self.bearing_fov < np.pi):
            raise ValueError(f"bearing_fov must be in (0, pi), got {self.bearing_fov}")
        if not (0 < self.elevation_fov < np.pi):
            raise ValueError(f"elevation_fov must be in (0, pi), got {self.elevation_fov}")
        if self.range_bins < 2 or self.bearing_bins < 2:
            raise ValueError("bin counts must be >= 2")

    @property
    def range_bin_size(self) -> float:
        return (self.range_max - self.range_min) / self.range_bins

    @property
    def bearing_bin_size(self) -> float:
        return self.bearing_fov / self.bearing_bins

    def bearing_bin_centers(self) -> np.ndarray:
        return -self.bearing_fov / 2 + (np.arange(self.bearing_bins) + 0.5) * self.bearing_bin_size

    def polar_to_bin(self, ranges, bearings):
        """Continuous (range-bin, bearing-bin) coordinates of polar points.

        Bin centers sit at integer coordinates (bin-center convention), so a
        lookup exactly at a center returns that bin's value under bilinear
        sampling.
        """
        rb = (np.asarray(ranges, dtype=float) - self.range_min) / self.range_bin_size - 0.5
        bb = (np.asarray(bearings, dtype=float) + self.bearing_fov / 2) / self.bearing_bin_size - 0.5
        return rb, bb

    def in_fov(self, ranges, bearings) -> np.ndarray:
        """True where (range, bearing) falls inside the sensing sector."""
        ranges = np.asarray(ranges, dtype=float)
        bearings = np.asarray(bearings, dtype=float)
        return (
            (ranges >= self.range_min)
            & (ranges <= self.range_max)
            & (np.abs(bearings) <= self.bearing_fov / 2)
        )


@dataclass(frozen=True)
class PlaneHypothesisSet:
    """The N inclined candidate planes sweeping the sonar volume.

    Plane i (1-based) has unit normal [0, cos(alpha), sin(alpha)] in the
    sonar frame and satisfies

        cos(alpha) * Y + sin(alpha) * Z = d_i * sin(alpha)

    with d_i = d0 * k**(i-1), a geometric progression chosen so that
    consecutive hypotheses induce uniform pixel-space steps.

    Attributes:
        alpha: Plane inclination in radians, in (0, pi/2).
        d0: Distance parameter of the first plane, meters.
        k: Progression ratio, > 1.
        n: Number of planes, >= 2.
    """

    alpha: float
    d0: float
    k: float
    n: int

    def __post_init__(self):
        if not (0 < self.alpha < np.pi / 2):
            raise ValueError(f"alpha must be in (0, pi/2), got {self.alpha}")
        if not 0 < self.d0 < np.inf:
            raise ValueError(f"d0 must be positive and finite, got {self.d0}")
        if not 1 < self.k < np.inf:
            raise ValueError(f"k must be > 1 and finite, got {self.k}")
        if self.n < 2:
            raise ValueError(f"need at least 2 planes, got {self.n}")
        with np.errstate(over="ignore"):
            if not np.isfinite(self.d0 * np.float64(self.k) ** (self.n - 1)):
                raise ValueError(f"last plane distance d0 * k**(n-1) overflows (k={self.k}, n={self.n})")

    def distance(self, i: int) -> float:
        """Distance parameter d_i = d0 * k**(i-1) of plane i (1-based)."""
        if not 1 <= i <= self.n:
            raise IndexError(f"plane index {i} out of range 1..{self.n}")
        return self.d0 * self.k ** (i - 1)

    def distances(self) -> np.ndarray:
        """All N distance parameters, strictly increasing."""
        return self.d0 * self.k ** np.arange(self.n)

    def normal(self) -> np.ndarray:
        """Unit normal shared by every plane in the set (sonar frame)."""
        return np.array([0.0, np.cos(self.alpha), np.sin(self.alpha)])


def spherical_to_cartesian(d, theta, phi) -> np.ndarray:
    """Sonar spherical coordinates to sonar-frame Cartesian.

    Args:
        d: Range in meters, >= 0.
        theta: Bearing in radians (positive to starboard).
        phi: Elevation in radians (positive up).

    Returns:
        Array of shape (..., 3): lateral = d cos(phi) sin(theta),
        forward = d cos(phi) cos(theta), up = d sin(phi).
    """
    d = np.asarray(d, dtype=float)
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    x = d * np.cos(phi) * np.sin(theta)
    y = d * np.cos(phi) * np.cos(theta)
    z = d * np.sin(phi)
    return np.stack(np.broadcast_arrays(x, y, z), axis=-1)


def cartesian_to_sonar_polar(points, spec: SonarSpec | None = None):
    """Orthographic sonar projection: range and bearing from horizontal components.

    The vertical beam is narrow, so cos(phi) is treated as 1 and the
    elevation component is ignored; any point on a vertical arc maps to the
    same polar cell.

    Args:
        points: Sonar-frame points, shape (..., 3).
        spec: Optional sonar geometry for the in-FOV flag. Without it the
            flag is True everywhere.

    Returns:
        (ranges, bearings, in_fov) arrays of shape (...,). The flag checks
        range bounds and the bearing aperture only; elevation is not gated
        (the orthographic model cannot observe it).
    """
    points = np.asarray(points, dtype=float)
    ranges = np.hypot(points[..., 0], points[..., 1])
    bearings = np.arctan2(points[..., 0], points[..., 1])
    if spec is None:
        ok = np.ones_like(ranges, dtype=bool)
    else:
        ok = spec.in_fov(ranges, bearings)
    return ranges, bearings, ok


def camera_depth_field(us, vs, d_hat, intrinsics: CameraIntrinsics,
                       extrinsics: RigidTransform, alpha: float):
    """Camera-frame depth of the points on the viewing rays at plane distances d_hat.

    Substituting the ray P_c = Z_c K^-1 [u, v, 1]^T into the plane constraint
    gives the closed form

        Z_c = (d_hat sin(alpha) + (R n)^T t) / ((R n)^T K^-1 [u, v, 1]^T)

    with n = [0, cos(alpha), sin(alpha)] the plane-family normal. This is the
    one admissibility test of the ray/plane geometry: an entry is ok where the
    ray meets the plane in front of the camera, Z_c > 0; rays with
    |denominator| < 1e-12 (parallel to the family) are never ok.

    Returns:
        (z_c, ok) broadcast to the common shape of us, vs, d_hat; z_c is NaN
        where not ok.
    """
    normal = np.array([0.0, np.cos(alpha), np.sin(alpha)])
    n_cam = extrinsics.rotation @ normal
    rays = intrinsics.ray_directions(us, vs)
    denom = rays @ n_cam
    numer = np.asarray(d_hat, dtype=float) * np.sin(alpha) + n_cam @ extrinsics.translation
    z = numer / np.where(np.abs(denom) >= 1e-12, denom, np.nan)
    ok = z > 0
    return np.where(ok, z, np.nan), ok


def solve_ray_plane(us, vs, intrinsics: CameraIntrinsics, extrinsics: RigidTransform,
                    planes: PlaneHypothesisSet, indices):
    """Intersect pixel viewing rays with hypothesis planes.

    Lifts the closed-form camera depth of :func:`camera_depth_field` back to
    the sonar frame, P_s = R^T (Z_c K^-1 [u, v, 1]^T - t), so each returned
    point lies on its plane and projects back to its pixel.

    Args:
        us, vs: Pixel coordinates.
        intrinsics: Camera model.
        extrinsics: Sonar-to-camera transform.
        planes: Hypothesis set.
        indices: 1-based plane indices; broadcast against us and vs.

    Returns:
        (points, ok): sonar-frame intersections (..., 3) and the mask of
        :func:`camera_depth_field` (the ray meets the plane in front of the
        camera), both at the broadcast shape. Masked entries hold the camera
        center, so every returned coordinate stays finite.
    """
    indices = np.asarray(indices)
    if np.any((indices < 1) | (indices > planes.n)):
        raise IndexError(f"plane indices out of range 1..{planes.n}")
    z, ok = camera_depth_field(us, vs, planes.distances()[indices - 1], intrinsics, extrinsics,
                               planes.alpha)
    points = np.where(ok, z, 0.0)[..., None] * intrinsics.ray_directions(us, vs)
    points -= extrinsics.translation
    return points @ extrinsics.rotation, ok


def ray_depth_to_euclidean(us, vs, z_c, intrinsics: CameraIntrinsics):
    """Convert axis-aligned depth Z_c to Euclidean distance along the pixel ray.

    D = |Z_c| * ||K^-1 [u, v, 1]^T||_2; equals |Z_c| at the principal point
    and grows with the ray obliquity.
    """
    rays = intrinsics.ray_directions(us, vs)
    return np.abs(np.asarray(z_c, dtype=float)) * np.linalg.norm(rays, axis=-1)


@dataclass(frozen=True)
class WarpGrid:
    """Per-pixel, per-plane sampling coordinates of the sweep.

    Attributes:
        ranges, bearings: Polar lookup coordinates, shape (H, W, N).
        valid: False where the ray ran parallel to the plane, the
            intersection fell behind the camera, the lookup left the sonar
            sector, or the candidate point sat outside the vertical aperture.
    """

    ranges: np.ndarray
    bearings: np.ndarray
    valid: np.ndarray

    @property
    def shape(self):
        return self.valid.shape


def build_warp_grid(intrinsics: CameraIntrinsics, extrinsics: RigidTransform,
                    planes: PlaneHypothesisSet, spec: SonarSpec,
                    shape: tuple | None = None, origin: tuple = (0, 0)) -> WarpGrid:
    """Ray-plane intersections and sonar lookups for every (pixel, plane) pair.

    A polar lookup only needs range and bearing, but a candidate point
    outside the sonar's vertical aperture can never have produced an echo,
    so such entries are gated out as inadmissible.

    Args:
        intrinsics: Camera model; also supplies the default grid shape.
        extrinsics: Sonar-to-camera transform.
        planes: Hypothesis set (N planes).
        spec: Sonar geometry used for FOV and elevation gating.
        shape: (H, W) grid size; defaults to the full image.
        origin: (u0, v0) pixel of grid element [0, 0], for crop windows.

    Returns:
        WarpGrid of shape (H, W, N). Parallel rays and behind-camera
        intersections are flagged invalid per entry, never raised.
    """
    if shape is None:
        shape = (intrinsics.height, intrinsics.width)
    h, w = shape
    u0, v0 = origin
    vs, us = np.meshgrid(np.arange(h, dtype=float) + v0, np.arange(w, dtype=float) + u0,
                         indexing="ij")
    points, ok = solve_ray_plane(us[:, :, None], vs[:, :, None], intrinsics, extrinsics, planes,
                                 np.arange(1, planes.n + 1))
    ranges, bearings, in_fov = cartesian_to_sonar_polar(points, spec)
    elevation = np.arctan2(points[..., 2], ranges)
    valid = ok & in_fov & (np.abs(elevation) <= spec.elevation_fov / 2)
    return WarpGrid(ranges, bearings, valid)
