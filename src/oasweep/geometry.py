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
from functools import cached_property

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
# Pixels per piece of a kept row that the row filter tests again when the warp
# grid is cut to echo cells. BENCH_echo_cells.json times 8 to 128: narrower
# pieces gate fewer entries, but at 8 the filter costs more than it saves.
PIECE_PIXELS = 32


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
        # A huge entry overflows the products to inf or NaN, which fail the checks.
        with np.errstate(over="ignore", invalid="ignore"):
            gram_error = np.max(np.abs(r.T @ r - np.eye(3)))
            det_error = abs(np.linalg.det(r) - 1.0)
        if not gram_error <= ORTHONORMALITY_TOL:
            raise ValueError("rotation matrix is not orthonormal within 1e-9")
        if not det_error <= ORTHONORMALITY_TOL:
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
        return self._bins_in_place(np.array(ranges, dtype=float), np.array(bearings, dtype=float))

    def _bins_in_place(self, rb, bb):
        """:meth:`polar_to_bin` of float arrays of ranges and bearings, written over them."""
        rb -= self.range_min
        rb /= self.range_bin_size
        rb -= 0.5
        bb += self.bearing_fov / 2
        bb /= self.bearing_bin_size
        bb -= 0.5
        return (np.clip(rb, 0.0, self.range_bins - 1.0, out=rb),
                np.clip(bb, 0.0, self.bearing_bins - 1.0, out=bb))


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
class PlaneEntries:
    """The (pixel, plane) entries of an (H, W, N) sweep, as per-plane pixel lists.

    The one layout of the sweep's entries, shared by :class:`WarpGrid` and
    ``sweep.CostVolume``, which add one value per entry in the same order.

    Attributes:
        pixels: int32 flat pixels ``v * W + u``, plane-major and increasing
            within a plane.
        ends: (N + 1,) offsets into ``pixels``: plane i's entries are
            ``pixels[ends[i]:ends[i + 1]]``.
        shape: (H, W, N).
    """

    pixels: np.ndarray
    ends: np.ndarray
    shape: tuple

    def _check(self, *values) -> None:
        """Raise ValueError unless the lists are a layout of ``shape`` with one of each
        of ``values`` per entry."""
        h, w, n = self.shape
        pixels, ends = np.asarray(self.pixels), np.asarray(self.ends)
        if not (min(h, w, n) >= 0 and pixels.dtype == np.int32 and pixels.ndim == 1
                and ends.dtype.kind in "iu" and ends.shape == (n + 1,) and ends[0] == 0
                and ends[-1] == pixels.size and np.all(ends[:-1] <= ends[1:])
                and all(np.shape(v) == pixels.shape for v in values)):
            raise ValueError(f"need int32 pixels, N + 1 nondecreasing ends from 0 to the entry "
                             f"count, and one value per entry for shape {self.shape}, got "
                             f"pixels {pixels.dtype} {pixels.shape}, ends {ends.tolist()} and "
                             f"values {[np.shape(v) for v in values]}")
        if not all(plane.size == 0 or (plane[0] >= 0 and plane[-1] < h * w
                                       and np.all(plane[1:] > plane[:-1]))
                   for plane in np.split(pixels, ends[1:-1])):
            raise ValueError(f"each plane's pixels must increase within [0, {h * w})")

    @property
    def valid(self) -> np.ndarray:
        """The (H, W, N) mask of the entries, built on each call; no stage reads it.

        Stored plane-major: the (H, W, N) transpose of an (N, H, W) array, so each
        plane ``valid[:, :, i]`` is contiguous.
        """
        h, w, n = self.shape
        mask = np.zeros((n, h * w), dtype=bool)
        mask[np.repeat(np.arange(n), np.diff(self.ends)), self.pixels] = True
        return mask.reshape(n, h, w).transpose(1, 2, 0)


@dataclass(frozen=True)
class WarpGrid(PlaneEntries):
    """Per-pixel, per-plane sampling coordinates of the sweep, admissible entries only.

    Its entries are those where the ray meets the plane in front of the
    camera, the lookup falls inside the sonar sector and the candidate point
    inside the vertical aperture; and, for a grid built with echo cells,
    where the lookup's bin cell (floor(rb), floor(bb)) holds an echo.

    Attributes:
        rb, bb: Each entry's continuous lookup coordinates, as
            :meth:`SonarSpec.polar_to_bin` gives them: bin-centred (a bin's
            center is its integer index) and clamped to [0, range_bins - 1] x
            [0, bearing_bins - 1]; in the order of ``pixels``.
    """

    rb: np.ndarray
    bb: np.ndarray

    def __post_init__(self):
        self._check(self.rb, self.bb)

    @cached_property
    def rows(self) -> np.ndarray:
        """(H,) mask of the rows where some plane admits an entry."""
        rows = np.zeros(self.shape[0], dtype=bool)
        # A plane at a time, so that the index copies stay one plane long.
        for plane in map(slice, self.ends[:-1], self.ends[1:]):
            rows[self.pixels[plane] // self.shape[1]] = True
        return rows


def build_warp_grid(intrinsics: CameraIntrinsics, extrinsics: RigidTransform,
                    planes: PlaneHypothesisSet, spec: SonarSpec,
                    shape: tuple, origin: tuple, echo) -> WarpGrid:
    """Ray-plane intersections and sonar-bin lookups for every (pixel, plane) pair.

    A lookup only needs range and bearing, but a candidate point outside the
    sonar's vertical aperture can never have produced an echo, so such
    entries are gated out as inadmissible.

    Every pixel's ray is intersected with each plane through the closed-form
    depth of :func:`ray_plane_terms`, lifted to the sonar frame,
    P_s = R^T (Z_c K^-1 [u, v, 1]^T - t), projected orthographically (range
    and bearing from the horizontal components alone) and gated by five
    terms: Z_c > 0, range >= range_min, range <= range_max,
    |bearing| <= bearing_fov / 2 and |elevation| <= elevation_fov / 2. The
    survivors' ranges and bearings are copied out and converted once, in
    place, to the :meth:`SonarSpec.polar_to_bin` coordinates (rb, bb) the
    grid keeps. With ``echo``, a sixth term keeps only the entries whose bin cell
    (floor(rb), floor(bb)) is marked in it: a caller whose dead sonar cells
    can score nothing passes its live cells, and the grid keeps exactly the
    entries that can. Only the valid entries' lookups are kept.

    Each plane is gated only on the row segments that :func:`_wedge_rows`
    keeps: first on whole crop rows, then, with ``echo``, on the
    PIECE_PIXELS-wide pieces of the kept rows. A skipped segment cannot hold
    an entry that passes the gate, so it has no entry, as the gate would
    find. Each plane's kept pixels, in order, are cut into tasks of at most
    BLOCK_PIXELS pixels: a slice where the task's pixels have no gap, an
    index array otherwise. Each task gates in its own BLOCK_PIXELS-sized
    buffers, into which it gathers an index array's denominators and rays (a
    slice is read through views), so that every allocation has one size,
    whatever the task, and the allocator reuses the block the last task
    freed; beyond them it allocates only the lookups it keeps. The tasks are
    shared between threads by :func:`map_in_order`. Each task returns its
    survivors' pixels and lookups, which are joined in task order, the
    grid's plane-major order: the grid is the same bit for bit whatever the
    thread count.

    Args:
        intrinsics: Camera model.
        extrinsics: Sonar-to-camera transform.
        planes: Hypothesis set (N planes).
        spec: Sonar geometry used for FOV and elevation gating.
        shape: (H, W) grid size.
        origin: (u0, v0) pixel of grid element [0, 0], for crop windows.
        echo: (range_bins, bearing_bins) boolean mask of the bin cells an
            entry may look up, or None for no sixth term.

    Returns:
        WarpGrid of shape (H, W, N). Parallel rays and behind-camera
        intersections are left out per entry, never raised.
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
    # Coordinate-major rays: each task's gathers walk rows.
    rays, denom = np.ascontiguousarray(rays.reshape(-1, 3).T), denom.reshape(-1)

    def gate(task):
        i, pixels = task
        size = pixels.stop - pixels.start if isinstance(pixels, slice) else pixels.size
        floats, flags = np.empty((10, BLOCK_PIXELS)), np.empty((2, BLOCK_PIXELS), dtype=bool)
        # Leading slices; the (3, size) ones contiguous, so that the lift's
        # matrix product runs as it would on a fresh array.
        z, ranges, bearings, elevation = floats[:4, :size]
        points, sonar = (coords.ravel()[:3 * size].reshape(3, size)
                         for coords in (floats[4:7], floats[7:]))
        good, term = flags[:, :size]
        if isinstance(pixels, slice):  # pixels with no gap are read through views
            column, ray = denom[pixels], rays[:, pixels]
        else:
            # The gathers take the pixels in range, so mode="clip" changes no
            # index; it spares the copy that the default mode makes of out=.
            column = np.take(denom, pixels, out=z, mode="clip")
            ray = np.take(rays, pixels, axis=1, out=points, mode="clip")
        # numpy's error state is per thread. Depths past the float64 range
        # overflow to inf or NaN, which fail the gate.
        with np.errstate(over="ignore", invalid="ignore"):
            np.divide(numers[i], column, out=z)
            np.multiply(z, ray, out=points)
            points -= extrinsics.translation[:, None]
            lateral, forward, up = np.matmul(extrinsics.rotation.T, points, out=sonar)
            np.hypot(lateral, forward, out=ranges)
            np.arctan2(lateral, forward, out=bearings)
            np.arctan2(up, ranges, out=elevation)
            np.greater(z, 0, out=good)
            good &= np.greater_equal(ranges, spec.range_min, out=term)
            good &= np.less_equal(ranges, spec.range_max, out=term)
            good &= np.less_equal(np.abs(bearings, out=z), spec.bearing_fov / 2, out=term)
            good &= np.less_equal(np.abs(elevation, out=elevation), spec.elevation_fov / 2,
                                  out=term)
        rb, bb = spec._bins_in_place(ranges[good], bearings[good])
        if echo is not None:
            hit = echo[rb.astype(int), bb.astype(int)]  # >= 0: the cast is the floor
            good[good] = hit
            rb, bb = rb[hit], bb[hit]
        kept = np.flatnonzero(good) + pixels.start if isinstance(pixels, slice) else pixels[good]
        return kept.astype(np.int32), rb, bb

    tasks = []
    if h * w:
        # held[r, c]: the echo cells in rows < r and columns < c.
        held = None if echo is None else np.pad(np.cumsum(np.cumsum(echo, 0), 1), ((1, 0), (1, 0)))
        # Each plane's segments [first, stop) in pixels: its whole rows, then,
        # with echo cells, the kept rows' pieces, which the filter tests again.
        plane, first = np.repeat(np.arange(planes.n), h), np.tile(np.arange(h) * w, planes.n)
        stop = first + w
        for piece in (w,) if echo is None else (w, PIECE_PIXELS):
            cuts = np.arange(0, w, piece)
            plane = np.repeat(plane, cuts.size)
            first, stop = ((first[:, None] + cuts).ravel(),
                           np.minimum(first[:, None] + cuts + piece, stop[:, None]).ravel())
            kept = _wedge_rows(rays, denom, numers[plane], extrinsics, spec,
                               np.stack([first, stop - 1]), held)
            plane, first, stop = plane[kept], first[kept], stop[kept]
        tasks = _gate_tasks(plane, first, stop, BLOCK_PIXELS)
    # Joined one coordinate at a time, so that each one's pieces are freed before
    # the next is joined; the empty leading pieces define an empty join.
    pixels, rb, bb = zip((np.empty(0, np.int32), np.empty(0), np.empty(0)),
                         *map_in_order(gate, tasks))
    # Plane i's entries start after those of the tasks on the planes before it.
    sizes = np.cumsum([0] + [kept.size for kept in pixels[1:]])
    ends = sizes[np.searchsorted([i for i, _ in tasks], np.arange(planes.n + 1))]
    pixels = np.concatenate(pixels)
    rb = np.concatenate(rb)
    return WarpGrid(pixels=pixels, ends=ends, shape=(h, w, planes.n), rb=rb,
                    bb=np.concatenate(bb))


def _gate_tasks(plane, first, stop, block: int) -> list:
    """The gate's (plane, pixels) tasks over pixel segments [first, stop), listed in
    (plane, pixel) order.

    Each plane's pixels, in increasing order, are cut after every ``block``
    of them, so that each task holds at most ``block`` pixels of one plane:
    as a slice where they have no gap, else as an index array.
    """
    tasks = []
    heads = np.flatnonzero(np.diff(plane, prepend=-1))
    for a, b in zip(heads, np.append(heads[1:], plane.size)):
        sizes = stop[a:b] - first[a:b]
        # A pixel: its segment's start, plus its place in the plane's list less the start's.
        pixels = np.repeat(first[a:b] - np.cumsum(sizes) + sizes, sizes) + np.arange(sizes.sum())
        for cut in np.split(pixels, np.arange(block, pixels.size, block)):
            whole = cut[-1] - cut[0] + 1 == cut.size
            tasks.append((int(plane[a]), slice(int(cut[0]), int(cut[-1]) + 1) if whole else cut))
    return tasks


def _wedge_rows(rays, denom, numers, extrinsics: RigidTransform, spec: SonarSpec,
                ends, held) -> np.ndarray:
    """(K,) mask of the row segments that may hold an entry passing the gate.

    Segment k runs along one crop row from flat pixel ends[0, k] to ends[1, k]
    on the plane of numerator numers[k]; the other arguments are
    :func:`build_warp_grid`'s rays (3, H*W) and column denominators (H*W,),
    and the summed-area table of its echo cells (held[r, c]: the cells in
    rows < r and columns < c), or None. A segment is dropped only when no
    pixel of it can pass the gate's Z_c > 0, elevation or range terms, or
    its echo term, so gating the kept segments alone leaves every entry
    and lookup as the full gate sets it.

    Along a row the rays K^-1 [u, v, 1]^T are affine in u and so is their
    denominator, which is never zero (the parallel threshold makes it NaN).
    When it has the same sign at the segment's first and last pixel, it
    keeps that sign in between, and each ray's point on the plane moves
    monotonically along the line where the plane meets the row's viewing
    plane: the segment's points are the 3-D segment P(s) = P0 + s (P1 - P0),
    s in [0, 1], between its end points. These are lifted to the sonar frame
    with the gate's own expressions. With Z_c <= 0 at both ends, every point
    of the segment lies behind the camera (Z_c = numer / denom keeps one
    sign along it) and the segment is skipped. With Z_c > 0, the points are
    scaled so that their largest coordinate is 1, and two quadratics in s
    bound the segment; each has its least value over [0, 1] at an end or at
    its vertex inside.

    Elevation. An entry passes the elevation term when
    |up| <= T hypot(lateral, forward), T = tan(ε/2). With
    T' = T (1 + WEDGE_MARGIN),

        q(s) = up(s)^2 - T'^2 (lateral(s)^2 + forward(s)^2),

    and the segment is skipped when the least q exceeds
    WEDGE_MARGIN (1 + T'^2). Every point of a skipped segment then has
    elevation above arctan(T') > ε/2; the gate's arctan2 would have to err
    by WEDGE_MARGIN T / (1 + T^2) radians to pass it, and its own rounding
    and that of the lifted points (about 1e-16 relative: the rays are affine
    in u up to rounding, and a point with range below range_min > 0 fails
    the gate anyway, so no admissible point has r near 0) sit far inside
    that. For T' above 1 / sqrt(WEDGE_MARGIN) the threshold exceeds any q,
    so a near-hemispherical aperture keeps every segment.

    Range. g(s) = lateral(s)^2 + forward(s)^2 is convex, so its greatest
    value is at an end. The segment's ranges lie in
    [sqrt(g_min), sqrt(g_max)], widened on each side by
    e = WEDGE_MARGIN (1 + |t| / scale) and scaled back. The margin is
    relative to the segment's scale, not to its range: the lifted
    coordinates round to a few ulps of scale + |t| (the lift subtracts t),
    the sums of g (each term at most 1) to a few ulps, which moves sqrt(g)
    by at most their square root, about 1e-7 (so a range near 0 is covered
    too), and the gate's hypot rounds to half an ulp. The segment is skipped
    when the widened interval [lo, hi] misses [range_min, range_max]. Every
    step of :meth:`SonarSpec.polar_to_bin` and of the floor is monotone
    under IEEE rounding, so each entry's range-bin row floor(rb) lies in
    [floor(pb(lo)), floor(pb(hi))], pb being its range coordinate.

    Bearing. When both scaled end points have forward > e, forward is
    positive along the whole exact segment (it is linear in s, and the ends
    round by far less than e), so lateral / forward is a linear-fractional
    function of s with a positive denominator: the bearing
    arctan(lateral / forward) is monotone along the segment and lies
    between its two end values. A perturbation of a point moves its angle
    by at most about its size over the point's distance from the axis, which
    is at least forward; the gate's points and the lifted ends differ from
    the exact segment by a few ulps of scale + |t|, so widening the end
    values by e / min(forward) on each side covers every gated bearing with
    nine orders to spare. By the same monotonicity, each entry's bearing-bin
    column floor(bb) then lies in [floor(pbb(lo)), floor(pbb(hi))]. Any
    other segment keeps every column. With echo cells, the segment is
    skipped when its range-bin rows times bearing-bin columns hold no echo
    cell, counted from the summed-area table.

    A segment is kept when its denominators differ in sign or are NaN, when
    anything lifted is non-finite, or when its points are too small to scale
    exactly (subnormal): the filter keeps every segment it is unsure of.
    """
    tan_wide = np.tan(spec.elevation_fov / 2) * (1 + WEDGE_MARGIN)
    with np.errstate(all="ignore"):
        z = numers / denom[ends]  # (2, K)
        points = z * rays[:, ends]
        points -= extrinsics.translation[:, None, None]
        points = (extrinsics.rotation.T @ points.reshape(3, -1)).reshape(points.shape)
        scale = np.max(np.abs(points), axis=(0, 1))  # (K,)
        scaled = points / scale
        start, stop = scaled[:, 0], scaled[:, 1]
        step = stop - start

        def extremes(weights):
            """Least and end-most values over s in [0, 1] of sum(weights * P(s)^2)."""
            weights = np.array(weights)[:, None]
            c, q1 = np.sum(weights * start**2, axis=0), np.sum(weights * stop**2, axis=0)
            b, a = np.sum(weights * start * step, axis=0), np.sum(weights * step**2, axis=0)
            # c + 2 b s + a s^2 has its vertex inside (0, 1) when 0 < -b < a.
            vertex = np.where((a > 0) & (-b > 0) & (-b < a), c - b * b / a, np.inf)
            return np.minimum(np.minimum(c, q1), vertex), np.maximum(c, q1)

        outside = extremes([-tan_wide**2, -tan_wide**2, 1.0])[0] > WEDGE_MARGIN * (1 + tan_wide**2)
        least, most = extremes([1.0, 1.0, 0.0])
        widen = WEDGE_MARGIN * (1 + np.linalg.norm(extrinsics.translation) / scale)
        low = (np.sqrt(np.maximum(least, 0.0)) - widen) * scale
        high = (np.sqrt(most) + widen) * scale
        nearest = scaled[1].min(axis=0)  # the least forward of the two ends
        turns = np.arctan2(scaled[0], scaled[1])  # the two ends' bearings
        west = turns.min(axis=0) - widen / nearest
        east = turns.max(axis=0) + widen / nearest
    same_side = np.sign(denom[ends[0]]) == np.sign(denom[ends[1]])  # NaN: False
    exact = np.isfinite(points).all(axis=(0, 1)) & (scale >= np.finfo(float).tiny)
    ahead = same_side & exact & (z > 0).all(axis=0)
    # An unsure segment's range spans everything, so its bins span every row.
    low, high = np.where(ahead, low, -np.inf), np.where(ahead, high, np.inf)
    missed = (high < spec.range_min) | (low > spec.range_max)
    if held is not None:
        facing = ahead & (nearest > widen)  # else every column
        west, east = np.where(facing, west, -np.inf), np.where(facing, east, np.inf)
        top, left = (coords.astype(int) for coords in spec.polar_to_bin(low, west))
        bottom, right = (coords.astype(int) for coords in spec.polar_to_bin(high, east))
        box = (held[bottom + 1, right + 1] - held[top, right + 1] - held[bottom + 1, left]
               + held[top, left])
        missed |= box == 0
    behind = same_side & exact & (z <= 0).all(axis=0)
    return ~(behind | (ahead & (outside | missed)))
