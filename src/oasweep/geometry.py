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
Every operation here is pure and safe to vectorize or share across threads;
:func:`map_in_order` shares the sweep's per-plane work between them.
"""

import os
import threading
from dataclasses import dataclass

import numpy as np

ORTHONORMALITY_TOL = 1e-9
# Pixels per warp-grid task: one plane's block of buffers stays in cache.
# BENCH_plane_threads.json times 4,096, 16,384 and 65,536.
BLOCK_PIXELS = 16384
# Relative margin of the warp grid's row filter (see _wedge_rows): the tangent
# of the vertical half-aperture is widened by it, and a row is skipped only
# when its distance outside the widened wedge also clears it. Rounding of the
# lifted points is about 1e-16 relative, ten orders of magnitude inside.
WEDGE_MARGIN = 1e-6


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def map_in_order(fn, items) -> list:
    """``[fn(item) for item in items]``, shared between threads.

    The items are dealt round-robin between the calling thread and one helper
    thread per extra usable CPU, up to one thread per item; with one CPU the
    calling thread runs them all, in order. ``fn`` runs once per item, and the
    results come back in item order, so the output does not depend on the
    thread count as long as each call touches only its own item's output. A
    thread stops at its first failing item; after all join, the lowest failing
    item's exception is raised, as the plain loop would, and every earlier item has run.
    """
    items = list(items)
    workers = max(1, min(usable_cpus(), len(items)))
    results, failures = [None] * len(items), []

    def share(first):
        try:
            for k in range(first, len(items), workers):
                results[k] = fn(items[k])
        except BaseException as exc:
            failures.append((k, exc))

    helpers = [threading.Thread(target=share, args=(first,)) for first in range(1, workers)]
    for helper in helpers:
        helper.start()
    share(0)
    for helper in helpers:
        helper.join()
    if failures:
        raise min(failures)[1]  # indices are unique: no two exceptions are compared
    return results


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
        sampling. Coordinates are clamped to [0, bins - 1], so the half bin
        between the sector's edge and the edge bin's center maps to that center.
        """
        rb = (np.asarray(ranges, dtype=float) - self.range_min) / self.range_bin_size - 0.5
        bb = (np.asarray(bearings, dtype=float) + self.bearing_fov / 2) / self.bearing_bin_size - 0.5
        return np.clip(rb, 0.0, self.range_bins - 1.0), np.clip(bb, 0.0, self.bearing_bins - 1.0)


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

    def distances(self) -> np.ndarray:
        """All N distance parameters, strictly increasing."""
        return self.d0 * self.k ** np.arange(self.n)


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


def ray_plane_terms(us, vs, d_hat, intrinsics: CameraIntrinsics,
                    extrinsics: RigidTransform, alpha: float):
    """Closed-form camera depth of pixel rays on the planes at distances d_hat.

    The ray P_c = Z_c K^-1 [u, v, 1]^T meets the plane of normal n = [0, cos(alpha), sin(alpha)] at

        Z_c = numer / denom = (d_hat sin(alpha) + (R n)^T t) / ((R n)^T K^-1 [u, v, 1]^T),

    in front of the camera where Z_c > 0. denom is NaN below the 1e-12 parallel threshold, so
    a parallel ray's Z_c is NaN and never > 0. Returns (rays, denom, numer): the rays
    K^-1 [u, v, 1]^T, (..., 3), and denom at the broadcast shape of us and vs, numer at d_hat's.
    """
    n_cam = extrinsics.rotation @ np.array([0.0, np.cos(alpha), np.sin(alpha)])
    rays = intrinsics.ray_directions(us, vs)
    denom = rays @ n_cam
    numer = np.asarray(d_hat, dtype=float) * np.sin(alpha) + n_cam @ extrinsics.translation
    return rays, np.where(np.abs(denom) >= 1e-12, denom, np.nan), numer


@dataclass(frozen=True)
class WarpGrid:
    """Per-pixel, per-plane sampling coordinates of the sweep, admissible entries only.

    Attributes:
        ranges, bearings: Polar lookup coordinates of the valid entries, 1-D,
            plane-major and, within plane i, in ``np.nonzero(valid[:, :, i])``
            order; no other entry has a lookup.
        valid: (H, W, N) mask; False where the ray ran parallel to the plane,
            the intersection fell behind the camera, the lookup left the
            sonar sector, or the candidate point sat outside the vertical
            aperture. Stored plane-major: the (H, W, N) transpose of an
            (N, H, W) array, so each plane ``valid[:, :, i]`` is contiguous.
    """

    ranges: np.ndarray
    bearings: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        count = np.count_nonzero(self.valid)
        if self.valid.ndim != 3 or not self.ranges.shape == self.bearings.shape == (count,):
            raise ValueError(f"need an (H, W, N) mask and {count} lookups, got mask "
                             f"{self.valid.shape}, lookups {self.ranges.shape} and "
                             f"{self.bearings.shape}")

    @property
    def shape(self):
        return self.valid.shape


def build_warp_grid(intrinsics: CameraIntrinsics, extrinsics: RigidTransform,
                    planes: PlaneHypothesisSet, spec: SonarSpec,
                    shape: tuple, origin: tuple) -> WarpGrid:
    """Ray-plane intersections and sonar lookups for every (pixel, plane) pair.

    A polar lookup only needs range and bearing, but a candidate point
    outside the sonar's vertical aperture can never have produced an echo,
    so such entries are gated out as inadmissible.

    Every pixel's ray is intersected with each plane through the closed-form
    depth of :func:`ray_plane_terms`, lifted to the sonar frame,
    P_s = R^T (Z_c K^-1 [u, v, 1]^T - t), projected orthographically (range
    and bearing from the horizontal components alone) and gated by five
    terms: Z_c > 0, range >= range_min, range <= range_max,
    |bearing| <= bearing_fov / 2 and |elevation| <= elevation_fov / 2. Only
    the valid entries' lookups are kept.

    The work runs as one task per plane and block of BLOCK_PIXELS
    consecutive pixels, so that a task's buffers stay in cache, and each
    plane is gated only on the blocks that meet its rows from the first to
    the last that :func:`_wedge_rows` keeps; the rows it skips cannot hold an
    entry inside the vertical aperture, so their mask stays False, as the
    gate would set it. The tasks are shared between threads by
    :func:`map_in_order`. Each task writes its own slice of the mask and
    returns its survivors' lookups, which are joined in task order: the grid
    is the same bit for bit whatever the thread count.

    Args:
        intrinsics: Camera model.
        extrinsics: Sonar-to-camera transform.
        planes: Hypothesis set (N planes).
        spec: Sonar geometry used for FOV and elevation gating.
        shape: (H, W) grid size.
        origin: (u0, v0) pixel of grid element [0, 0], for crop windows.

    Returns:
        WarpGrid of shape (H, W, N). Parallel rays and behind-camera
        intersections are flagged invalid per entry, never raised.
    """
    h, w = shape
    u0, v0 = origin
    vs, us = np.meshgrid(np.arange(h, dtype=float) + v0, np.arange(w, dtype=float) + u0,
                         indexing="ij")
    # Pixels go in as a column, (H*W, 1), as in solving every entry at once
    # with (H, W, 1) pixel arrays: numpy then rounds each ray's dot product
    # the same way, which a flat (H*W,) call, batched differently, does not.
    rays, denom, numers = ray_plane_terms(us.reshape(-1, 1), vs.reshape(-1, 1),
                                          planes.distances(), intrinsics, extrinsics,
                                          planes.alpha)
    rays, denom = np.ascontiguousarray(rays.reshape(-1, 3).T), denom.reshape(-1)
    # Plane-major mask, coordinate-major rays: each task's reads and writes
    # are contiguous rows.
    valid = np.zeros((planes.n, h * w), dtype=bool)

    def gate(task):
        i, block = task
        # numpy's error state is per thread. Depths past the float64 range
        # overflow to inf or NaN, which fail the gate.
        with np.errstate(over="ignore", invalid="ignore"):
            z = numers[i] / denom[block]
            points = z * rays[:, block]
            points -= extrinsics.translation[:, None]
            lateral, forward, up = extrinsics.rotation.T @ points
            ranges = np.hypot(lateral, forward)
            bearings = np.arctan2(lateral, forward)
            elevation = np.arctan2(up, ranges)
            good = ((z > 0) & (ranges >= spec.range_min) & (ranges <= spec.range_max)
                    & (np.abs(bearings) <= spec.bearing_fov / 2)
                    & (np.abs(elevation) <= spec.elevation_fov / 2))
        valid[i, block] = good
        return ranges[good], bearings[good]

    # Each plane's tasks are the whole blocks of the BLOCK_PIXELS grid that
    # meet its row span, so every task allocates the buffers a gate over the
    # full plane would. Blocks cut to the span gate fewer entries (27.8%
    # against 46% of the stock crop's), but their odd-sized buffers raised the
    # turbid-pair benchmark's peak RSS by 7.5% (BENCH_row_band.json).
    tasks = []
    if h * w:
        for i, rows in enumerate(_wedge_rows(rays, denom, numers, extrinsics, spec, shape)):
            rows = np.flatnonzero(rows)
            if rows.size:
                first, stop = rows[0] * w, (rows[-1] + 1) * w
                tasks += [(i, slice(start, start + BLOCK_PIXELS))
                          for start in range(first - first % BLOCK_PIXELS, stop, BLOCK_PIXELS)]
    # The pieces are joined one coordinate at a time, so that the range pieces
    # are freed before the bearings are joined; the empty leading pieces keep
    # the join defined when no task runs.
    ranges, bearings = zip((np.empty(0), np.empty(0)), *map_in_order(gate, tasks))
    ranges = np.concatenate(ranges)
    return WarpGrid(ranges, np.concatenate(bearings),
                    valid.reshape(planes.n, h, w).transpose(1, 2, 0))


def _wedge_rows(rays, denom, numers, extrinsics: RigidTransform, spec: SonarSpec,
                shape: tuple) -> np.ndarray:
    """(N, H) mask of the rows of each plane that may hold an entry inside the vertical aperture.

    The arguments are :func:`build_warp_grid`'s rays (3, H*W), column
    denominators (H*W,) and per-plane numerators (N,). A row is dropped only
    when no pixel of it can pass the gate's elevation term (or its Z_c > 0
    term), so gating the kept rows alone leaves every mask bit and lookup as
    the full gate sets it.

    Along a row the rays K^-1 [u, v, 1]^T are affine in u and so is their
    denominator, which is never zero (the parallel threshold makes it NaN).
    When it has the same sign at the row's first and last pixel, it keeps
    that sign in between, and each ray's point on the plane moves
    monotonically along the line where the plane meets the row's viewing
    plane: the row's points are the 3-D segment P(s) = P0 + s (P1 - P0),
    s in [0, 1], between its end points. These are lifted to the sonar frame
    with the gate's own expressions. With Z_c <= 0 at both ends, every point
    of the row lies behind the camera (Z_c = numer / denom keeps one sign
    along the row) and the row is skipped. With Z_c > 0, an entry passes the
    elevation term when |up| <= T hypot(lateral, forward), T = tan(ε/2).
    With T' = T (1 + WEDGE_MARGIN),

        q(s) = up(s)^2 - T'^2 (lateral(s)^2 + forward(s)^2)

    is a quadratic in s, and the row is skipped only when its minimum over
    [0, 1] (at the ends or at the vertex inside) exceeds
    WEDGE_MARGIN (1 + T'^2), the points being scaled so that their largest
    coordinate is 1. Every point of a skipped row then has elevation above
    arctan(T') > ε/2; the gate's arctan2 would have to err by
    WEDGE_MARGIN T / (1 + T^2) radians to pass it, and its own rounding and
    that of the lifted points (about 1e-16 relative: the rays are affine in
    u up to rounding, and a point with range below range_min > 0 fails the
    gate anyway, so no admissible point has r near 0) sit far inside that.
    For T' above 1 / sqrt(WEDGE_MARGIN) the threshold exceeds any q, so a
    near-hemispherical aperture keeps every row. A row is also kept when
    its denominators differ in sign or are NaN, when anything lifted is
    non-finite, or when its points are too small to scale exactly
    (subnormal): the filter keeps every row it is unsure of.
    """
    h, w = shape
    ends = [[0], [w - 1]] + np.arange(h) * w  # (2, H): each row's first and last pixel
    tan_wide = np.tan(spec.elevation_fov / 2) * (1 + WEDGE_MARGIN)
    weights = np.array([-tan_wide**2, -tan_wide**2, 1.0])[:, None, None]
    with np.errstate(all="ignore"):
        z = numers[:, None] / denom[ends][:, None]  # (2, N, H)
        points = z * rays[:, ends][:, :, None]
        points -= extrinsics.translation[:, None, None, None]
        points = (extrinsics.rotation.T @ points.reshape(3, -1)).reshape(points.shape)
        scale = np.max(np.abs(points), axis=(0, 1))  # (N, H)
        scaled = points / scale
        start, step = scaled[:, 0], scaled[:, 1] - scaled[:, 0]
        c, q1 = np.sum(weights * start**2, axis=0), np.sum(weights * scaled[:, 1]**2, axis=0)
        b, a = np.sum(weights * start * step, axis=0), np.sum(weights * step**2, axis=0)
        # q(s) = c + 2 b s + a s^2 has its vertex inside (0, 1) when 0 < -b < a.
        vertex = np.where((a > 0) & (-b > 0) & (-b < a), c - b * b / a, np.inf)
        outside = np.minimum(np.minimum(c, q1), vertex) > WEDGE_MARGIN * (1 + tan_wide**2)
    same_side = np.sign(denom[ends[0]]) == np.sign(denom[ends[1]])  # NaN: False
    exact = np.isfinite(points).all(axis=(0, 1)) & (scale >= np.finfo(float).tiny)
    skip = same_side & exact & ((z <= 0).all(axis=0) | ((z > 0).all(axis=0) & outside))
    return ~skip
