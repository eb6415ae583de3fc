"""Shared fixtures and independent oracles for the test suite."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import ndimage

from oasweep.config import CalibrationBundle, camera_rotation, default_rig
from oasweep.formats import SSCV_INVALID_COST, SSCV_MAGIC
from oasweep.geometry import (
    CameraIntrinsics,
    PlaneHypothesisSet,
    RigidTransform,
    SonarSpec,
    WarpGrid,
    build_warp_grid,
)
from oasweep.preprocess import prepare_camera, preprocess_sonar_frames
from oasweep.simulator import (
    PlanePrimitive,
    PolarSonarImage,
    add_sonar_noise,
    default_scene,
    render_camera,
    render_sonar,
)
from oasweep.sweep import (
    CostVolume,
    build_cost_volume,
    extract_features,
    regress_depth_map,
    regularize_cost_volume,
    scale_costs,
    soft_argmin,
)


@pytest.fixture
def rig() -> CalibrationBundle:
    return default_rig()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20250810)


def random_calibration(rng: np.random.Generator, far: bool = False,
                       aimed: bool = True) -> CalibrationBundle:
    """A random but valid desk-scale calibration for randomized geometry checks.

    With ``far``, the camera center sits 50 to 500 m from the sonar
    (|t| >= 50 m, near-parallel rays). Aimed, the sonar origin lies on the
    optical axis at that distance and the focal lengths grow with it (times
    distance / 4 m), so the sector fills much of the image: seeds 0-11 admit
    9,699 to 1,012,316 entries over the full frame. Not aimed, the camera
    sits behind the sonar on its acoustic axis, still looking forward, with
    desk-scale focal lengths: the sector covers a few pixels or none.
    """
    width, height = 320, 240
    fx = rng.uniform(200.0, 600.0)
    fy = fx * rng.uniform(0.95, 1.05)
    cx, cy = width / 2 + rng.uniform(-10, 10), height / 2 + rng.uniform(-10, 10)
    base = camera_rotation(rng.uniform(math.radians(-5), math.radians(25)))
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0, math.radians(10))
    k_mat = np.array([
        [0, -axis[2], axis[1]],
        [axis[2], 0, -axis[0]],
        [-axis[1], axis[0], 0],
    ])
    wiggle = np.eye(3) + math.sin(angle) * k_mat + (1 - math.cos(angle)) * (k_mat @ k_mat)
    rotation = wiggle @ base
    translation = rng.uniform(-0.3, 0.3, size=3)
    if far:
        distance = rng.uniform(50.0, 500.0)
        if aimed:
            translation = translation + [0.0, 0.0, distance]
            fx, fy = fx * distance / 4.0, fy * distance / 4.0
        else:
            translation = rotation @ np.array([0.0, distance, 0.0]) + translation
    intrinsics = CameraIntrinsics(fx=fx, fy=fy, cx=cx, cy=cy, width=width, height=height)
    extrinsics = RigidTransform(rotation, translation)
    sonar = SonarSpec(
        range_min=0.1, range_max=rng.uniform(4.0, 8.0),
        bearing_fov=rng.uniform(math.radians(40), math.radians(100)),
        elevation_fov=math.radians(12.0),
        range_bins=128, bearing_bins=64,
    )
    planes = PlaneHypothesisSet(
        alpha=rng.uniform(math.radians(15), math.radians(75)),
        d0=rng.uniform(0.3, 0.8), k=rng.uniform(1.02, 1.08), n=int(rng.integers(8, 49)),
    )
    return CalibrationBundle(intrinsics, extrinsics, sonar, planes)


def stock_inputs(rig, frame: int = 0):
    """The stock scene on a rig: its prepared camera crop, the crop window and
    the benchmark's pool frame ``frame``, background-subtracted (noise seed
    1000 + frame, speckle 0.15, background 0.03, 8 background frames)."""
    scene = default_scene()
    camera, _ = render_camera(scene, rig.intrinsics, rig.extrinsics)
    prepared, window = prepare_camera(camera, rig.intrinsics, rig.sonar, rig.extrinsics)
    clean = render_sonar(scene, rig.sonar)
    empty = PolarSonarImage(values=np.zeros_like(clean.values), spec=rig.sonar)
    frame, = preprocess_sonar_frames(
        [add_sonar_noise(clean, 0.15, 0.03, seed=1000 + frame)],
        [add_sonar_noise(empty, 0.15, 0.03, seed=500 + i) for i in range(8)])
    return prepared, window, frame


def identity_transform() -> RigidTransform:
    """The identity rigid motion, P_out = P_in."""
    return RigidTransform(np.eye(3), np.zeros(3))


def plane_normal(planes: PlaneHypothesisSet) -> np.ndarray:
    """Unit normal [0, cos(alpha), sin(alpha)] shared by every plane of the set (sonar frame)."""
    return np.array([0.0, np.cos(planes.alpha), np.sin(planes.alpha)])


def plane_distance(planes: PlaneHypothesisSet, i: int) -> float:
    """Distance parameter d_i = d0 * k**(i-1) of plane i (1-based)."""
    return planes.d0 * planes.k ** (i - 1)


def turned_camera(rig: CalibrationBundle) -> CalibrationBundle:
    """The rig with its camera turned 180 degrees about its own vertical axis.

    The camera then faces away from the sonar, so no (pixel, plane) entry is
    admissible and the sonar frustum lies behind the camera.
    """
    turn = np.diag([-1.0, 1.0, -1.0])
    extrinsics = RigidTransform(turn @ rig.extrinsics.rotation, turn @ rig.extrinsics.translation)
    return dataclasses.replace(rig, extrinsics=extrinsics)


def plane_residual(points, planes: PlaneHypothesisSet, i: int) -> np.ndarray:
    """Signed distance (meters) of sonar-frame points from hypothesis plane i."""
    points = np.asarray(points, dtype=float)
    return points @ plane_normal(planes) - plane_distance(planes, i) * np.sin(planes.alpha)


def hypothesis_plane_primitive(planes: PlaneHypothesisSet, i: int,
                               reflectance: float = 0.8) -> PlanePrimitive:
    """Scene plane that coincides exactly with hypothesis plane i of a sweep set."""
    normal = plane_normal(planes)
    return PlanePrimitive(point=normal * (plane_distance(planes, i) * np.sin(planes.alpha)),
                          normal=normal, reflectance=reflectance)


def backproject_sonar_to_plane(d, theta, planes: PlaneHypothesisSet, i: int) -> np.ndarray:
    """Lift a polar sonar measurement onto candidate sheet i.

    The horizontal position comes directly from the measurement; the
    unobserved elevation is fixed by the sheet geometry:

        lateral  = d sin(theta)
        forward  = d cos(theta)
        up       = (d_i - d cos(theta)) * tan(alpha)

    The lifted sheet crosses the acoustic axis at range d_i and coincides
    with hypothesis plane i of the sweep at alpha = 45 degrees (the default
    configuration).

    Returns:
        Sonar-frame point(s), shape (..., 3).
    """
    d_i = plane_distance(planes, i)
    d = np.asarray(d, dtype=float)
    theta = np.asarray(theta, dtype=float)
    x = d * np.sin(theta)
    y = d * np.cos(theta)
    z = (d_i - y) * np.tan(planes.alpha)
    return np.stack(np.broadcast_arrays(x, y, z), axis=-1)


def grazing_rig() -> CalibrationBundle:
    """The stock rig with plane inclination 75 degrees and an integer principal row.

    The camera's 15 degree pitch then maps the plane-family normal to the
    camera's -y axis, so every ray of pixel row v = cy = 120 runs parallel to
    the planes (its denominator is zero up to the rounding of R n).
    """
    rig = default_rig()
    intrinsics = dataclasses.replace(rig.intrinsics, cy=120.0)
    planes = dataclasses.replace(rig.planes, alpha=math.radians(75.0))
    return dataclasses.replace(rig, intrinsics=intrinsics, planes=planes)


def sonar_polar(points):
    """Orthographic sonar projection of sonar-frame points (..., 3): range and
    bearing from the horizontal components alone, so every point of a
    vertical arc maps to the same polar cell."""
    points = np.asarray(points, dtype=float)
    return np.hypot(points[..., 0], points[..., 1]), np.arctan2(points[..., 0], points[..., 1])


def solve_ray_plane(us, vs, intrinsics: CameraIntrinsics, extrinsics: RigidTransform,
                    planes: PlaneHypothesisSet, indices):
    """Intersect pixel viewing rays with hypothesis planes.

    Substituting the ray P_c = Z_c K^-1 [u, v, 1]^T into the plane constraint
    gives the closed-form camera depth

        Z_c = (d_i sin(alpha) + (R n)^T t) / ((R n)^T K^-1 [u, v, 1]^T),

    lifted back to the sonar frame, P_s = R^T (Z_c K^-1 [u, v, 1]^T - t), so
    each returned point lies on its plane and projects back to its pixel.
    Rays with |denominator| < 1e-12 count as parallel to the planes.

    Args:
        us, vs: Pixel coordinates.
        intrinsics: Camera model.
        extrinsics: Sonar-to-camera transform.
        planes: Hypothesis set.
        indices: 1-based plane indices; broadcast against us and vs.

    Returns:
        (points, ok): sonar-frame intersections (..., 3) and the mask
        Z_c > 0 (the ray meets the plane in front of the camera), both at the
        broadcast shape. Masked entries hold the camera center, so every
        returned coordinate stays finite.
    """
    indices = np.asarray(indices)
    if np.any((indices < 1) | (indices > planes.n)):
        raise IndexError(f"plane indices out of range 1..{planes.n}")
    n_cam = extrinsics.rotation @ plane_normal(planes)
    rays = intrinsics.ray_directions(us, vs)
    denom = rays @ n_cam
    numer = planes.distances()[indices - 1] * np.sin(planes.alpha) + n_cam @ extrinsics.translation
    z = numer / np.where(np.abs(denom) >= 1e-12, denom, np.nan)
    ok = z > 0
    points = np.where(ok, z, 0.0)[..., None] * rays
    points -= extrinsics.translation
    return points @ extrinsics.rotation, ok


def dense_warp_grid(intrinsics, extrinsics, planes, spec, shape=None, origin=(0, 0),
                    echo=None, step=1):
    """Oracle for the warp grid: solve and gate every (pixel, plane) entry at once.

    With ``echo``, a (range_bins, bearing_bins) mask, an entry also needs its
    cell, row :func:`range_bin_rows` and column :func:`bearing_bin_cols`,
    marked there.
    With ``step``, only every step-th row and column of the window is solved.

    Returns:
        (ranges, bearings, valid), each (H, W, N) (or the lattice's size);
        lookups are kept at invalid entries too; the builder's WarpGrid holds
        the valid entries' :func:`bin_coords`.
    """
    if shape is None:
        shape = (intrinsics.height, intrinsics.width)
    h, w = shape
    u0, v0 = origin
    vs, us = np.meshgrid(np.arange(0, h, step, dtype=float) + v0,
                         np.arange(0, w, step, dtype=float) + u0, indexing="ij")
    points, ok = solve_ray_plane(us[:, :, None], vs[:, :, None], intrinsics, extrinsics, planes,
                                 np.arange(1, planes.n + 1))
    ranges, bearings = sonar_polar(points)
    elevation = np.arctan2(points[..., 2], ranges)
    valid = (ok & (ranges >= spec.range_min) & (ranges <= spec.range_max)
             & (np.abs(bearings) <= spec.bearing_fov / 2)
             & (np.abs(elevation) <= spec.elevation_fov / 2))
    if echo is not None:
        valid &= np.asarray(echo)[range_bin_rows(np.where(valid, ranges, spec.range_min), spec),
                                  bearing_bin_cols(np.where(valid, bearings, 0.0), spec)]
    return ranges, bearings, valid


def bin_coords(ranges, bearings, spec):
    """Oracle for SonarSpec.polar_to_bin: the continuous range-bin coordinate
    (range - range_min) / ((range_max - range_min) / range_bins) - 0.5 and the
    bearing-bin coordinate (bearing + bearing_fov / 2) / (bearing_fov / bearing_bins) - 0.5,
    each clamped to [0, bins - 1]."""
    size = (spec.range_max - spec.range_min) / spec.range_bins
    rb = (np.asarray(ranges, dtype=float) - spec.range_min) / size - 0.5
    size = spec.bearing_fov / spec.bearing_bins
    bb = (np.asarray(bearings, dtype=float) + spec.bearing_fov / 2) / size - 0.5
    return np.clip(rb, 0.0, spec.range_bins - 1.0), np.clip(bb, 0.0, spec.bearing_bins - 1.0)


def range_bin_rows(ranges, spec) -> np.ndarray:
    """The range-bin row each range looks up: the floor of its :func:`bin_coords` coordinate."""
    return np.floor(bin_coords(ranges, 0.0, spec)[0]).astype(int)


def bearing_bin_cols(bearings, spec) -> np.ndarray:
    """The bearing-bin column each bearing looks up: the floor of its :func:`bin_coords`
    coordinate."""
    return np.floor(bin_coords(spec.range_min, bearings, spec)[1]).astype(int)


def dense_zncc_patches(image, r) -> np.ndarray:
    """Oracle for the zncc-patch extractor: every patch of the image at once."""
    padded = np.pad(np.asarray(image, dtype=np.float64), r, mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(padded, (2 * r + 1, 2 * r + 1))
    patches = windows.reshape(np.shape(image) + (-1,)).astype(np.float64)
    centered = patches - patches.mean(axis=-1, keepdims=True)
    var = np.mean(centered**2, axis=-1)
    norm = np.sqrt(np.maximum(var * patches.shape[-1], 0.0))
    ok = var >= 1e-12
    out = np.where(ok[:, :, None], centered / np.where(ok, norm, 1.0)[:, :, None], 0.0)
    return out.astype(np.float32)


def compact(values, valid) -> np.ndarray:
    """Adapter from a dense (H, W, N) array to its values at the valid entries,
    plane-major, in np.nonzero order within each plane: the order of the
    WarpGrid lookups and the CostVolume costs."""
    return np.moveaxis(np.asarray(values), 2, 0)[np.moveaxis(np.asarray(valid, dtype=bool), 2, 0)]


def densify(entries, valid, fill=np.nan) -> np.ndarray:
    """Inverse adapter of :func:`compact`: an (H, W, N) array of the entries'
    dtype holding the entries where valid and ``fill`` elsewhere."""
    entries = np.asarray(entries)
    valid = np.asarray(valid, dtype=bool)
    dense = np.full(valid.shape, fill, dtype=entries.dtype)
    np.moveaxis(dense, 2, 0)[np.moveaxis(valid, 2, 0)] = entries
    return dense


def dense_encode_cost_volume(volume) -> bytearray:
    """Oracle for the SSCV1 encoder: the whole file in one buffer, the cost and flag
    blocks filled through their (i, v, u) views of it."""
    h, w, n = volume.shape
    header = SSCV_MAGIC + np.array([h, w, n], dtype="<u4").tobytes()
    out = bytearray(len(header) + 5 * h * w * n)  # zero flags
    out[:len(header)] = header
    dense = np.frombuffer(out, dtype="<f4", count=h * w * n, offset=len(header))
    flags = np.frombuffer(out, dtype=np.uint8, offset=len(header) + dense.nbytes)
    dense[:] = SSCV_INVALID_COST
    entries = np.moveaxis(volume.valid, 2, 0)
    dense.reshape(w, h, n).transpose(2, 1, 0)[entries] = volume.costs
    flags.reshape(w, h, n).transpose(2, 1, 0)[entries] = 1
    return out


def entry_lists(valid):
    """Adapter from a dense (H, W, N) mask to the sweep's entry layout: its
    (pixels, ends, shape), each plane's flat pixels in np.flatnonzero order."""
    valid = np.asarray(valid, dtype=bool)
    h, w, n = valid.shape
    planes = [np.flatnonzero(valid[:, :, i]) for i in range(n)]
    pixels = np.concatenate([np.empty(0, np.int32)] + planes).astype(np.int32)
    return pixels, np.cumsum([0] + [plane.size for plane in planes]), valid.shape


def compact_volume(costs, valid) -> CostVolume:
    """A CostVolume from dense (H, W, N) costs; costs at invalid entries are dropped."""
    pixels, ends, shape = entry_lists(valid)
    return CostVolume(pixels=pixels, ends=ends, shape=shape, costs=compact(costs, valid))


def compact_grid(rb, bb, valid) -> WarpGrid:
    """Adapter from dense (H, W, N) bin coordinates to a WarpGrid that keeps the
    valid entries' lookups."""
    pixels, ends, shape = entry_lists(valid)
    return WarpGrid(pixels=pixels, ends=ends, shape=shape,
                    rb=compact(np.asarray(rb, dtype=float), valid),
                    bb=compact(np.asarray(bb, dtype=float), valid))


def dense_lookups(grid: WarpGrid):
    """Adapter from a WarpGrid to dense (H, W, N) range-bin and bearing-bin coordinates,
    NaN at invalid entries."""
    return densify(grid.rb, grid.valid), densify(grid.bb, grid.valid)


def oracle_bilinear(values, rows, cols) -> np.ndarray:
    """Bilinear lookup of an (R, C, F) map at bin coordinates in [0, R - 1] x [0, C - 1]:
    the map is padded by one copy of its last row and column, so a corner past the edge
    reads the edge; the two column blends are then blended along the rows."""
    padded = np.pad(values, ((0, 1), (0, 1), (0, 0)), mode="edge")
    r, c = np.floor(rows).astype(int), np.floor(cols).astype(int)
    fr, fc = (rows - r)[:, None], (cols - c)[:, None]

    def lerp(a, b, t):
        return a * (1 - t) + b * t
    return lerp(lerp(padded[r, c], padded[r, c + 1], fc),
                lerp(padded[r + 1, c], padded[r + 1, c + 1], fc), fr)


def oracle_pair_cost(cam, son, metric):
    """Cost and definedness of (K, F) camera/sonar feature pairs, scoring every pair:
    sad sums |cam - son|, neg-dot negates cam . son, and neg-zncc negates the cosine of
    the mean-centred vectors, defined only where both centred norms reach 1e-9."""
    if metric == "sad":
        return np.abs(cam - son).sum(axis=-1), np.ones(len(cam), dtype=bool)
    if metric == "neg-dot":
        return -(cam * son).sum(axis=-1), np.ones(len(cam), dtype=bool)
    assert metric == "neg-zncc"
    cam_c = cam - cam.mean(axis=-1)[:, None]
    son_c = son - son.mean(axis=-1)[:, None]
    cam_n, son_n = np.sqrt((cam_c * cam_c).sum(axis=-1)), np.sqrt((son_c * son_c).sum(axis=-1))
    defined = (cam_n >= 1e-9) & (son_n >= 1e-9)
    cost = -(cam_c * son_c).sum(axis=-1) / np.where(defined, cam_n * son_n, 1.0)
    return np.where(defined, cost, 0.0), defined


def dense_cost_volume(camera_features, sonar_features, grid, metric) -> CostVolume:
    """Oracle for the cost-volume builder: gather and score every admissible
    lookup, whether or not its bilinear cell touches a non-zero sonar bin."""
    rb, bb = dense_lookups(grid)
    costs = np.zeros(grid.shape, dtype=np.float32)
    valid = np.zeros(grid.shape, dtype=bool)
    for i in range(grid.shape[2]):
        v, u = np.nonzero(grid.valid[:, :, i])
        cost, defined = oracle_pair_cost(camera_features[v, u].astype(np.float64),
                                         oracle_bilinear(sonar_features, rb[v, u, i],
                                                         bb[v, u, i]), metric)
        costs[v[defined], u[defined], i] = cost[defined]
        valid[v, u, i] = defined
    return compact_volume(costs, valid)


def dense_regularize(volume: CostVolume, radius: int, passes: int) -> CostVolume:
    """Oracle for the regularizer: box-filter every whole plane slice over its valid mask."""
    if radius == 0 or passes == 0:
        return volume
    size = (2 * radius + 1, 2 * radius + 1, 1)
    area = size[0] * size[1]
    valid = volume.valid
    cnts = ndimage.uniform_filter(valid.astype(np.float64), size=size,
                                  mode="constant", cval=0.0) * area
    filtered = np.where(valid, densify(volume.costs, valid).astype(np.float64), 0.0)
    for _ in range(passes):
        sums = ndimage.uniform_filter(filtered, size=size, mode="constant", cval=0.0) * area
        filtered = np.where(valid, sums / np.maximum(cnts, 1.0), 0.0)
    return compact_volume(filtered, valid)


def dense_soft_argmin(volume: CostVolume, distances):
    """Oracle for soft_argmin: the softmax over a dense float64 (H, W, N) buffer.

    Per pixel, valid hypotheses are converted to a probability distribution
    P(d_i) = softmax(-cost_i) (with max subtraction for stability, softmax
    restricted to the valid set) and the regressed distance is the
    expectation sum_i d_i P(d_i). Pixels with no valid hypothesis are masked.

    Returns:
        (d_hat, probs, valid): (H, W) regression, (H, W, N) probabilities
        (zero rows on masked pixels), and the per-pixel mask.
    """
    distances = np.asarray(distances, dtype=np.float64)
    if distances.shape != (volume.shape[2],):
        raise ValueError(f"distances shape {distances.shape} does not match N={volume.shape[2]}")

    any_valid = volume.valid.any(axis=2)
    # One float64 buffer carries -cost, the weights and then the probabilities.
    probs = np.negative(densify(volume.costs, volume.valid), dtype=np.float64)
    probs[~volume.valid] = -np.inf
    peak = np.max(probs, axis=2, keepdims=True)
    peak = np.where(np.isfinite(peak), peak, 0.0)
    np.subtract(probs, peak, out=probs)
    np.exp(probs, out=probs)  # exp(-inf) = 0 on invalid entries
    total = probs.sum(axis=2)
    np.divide(probs, np.where(any_valid, total, 1.0)[:, :, None], out=probs)
    d_hat = probs @ distances
    d_hat[~any_valid] = 0.0
    probs[~any_valid] = 0.0
    return d_hat, probs, any_valid


def flat_soft_argmin(volume: CostVolume, distances):
    """Byte oracle for soft_argmin: one pass over the flat plane-major entries, with
    each entry's pixel index held, np.maximum.at for the peaks and np.bincount for
    the sums (which add each pixel's entries in entry order, from 0.0).

    Returns the same (d_hat, probs, valid) as soft_argmin.
    """
    distances = np.asarray(distances, dtype=np.float64)
    h, w, n = volume.shape
    if distances.shape != (n,):
        raise ValueError(f"distances shape {distances.shape} does not match N={n}")

    masks = np.moveaxis(volume.valid, 2, 0)
    pixel = np.flatnonzero(masks)
    pixel %= h * w
    probs = np.negative(volume.costs, dtype=np.float64)
    peak = np.full(h * w, -np.inf)
    np.maximum.at(peak, pixel, probs)
    np.subtract(probs, peak[pixel], out=probs)
    np.exp(probs, out=probs)
    np.divide(probs, np.bincount(pixel, probs, minlength=h * w)[pixel], out=probs)
    # Each entry's plane distance, then its product with the entry's probability.
    weighted = np.repeat(distances, [np.count_nonzero(mask) for mask in masks])
    d_hat = np.bincount(pixel, np.multiply(probs, weighted, out=weighted),
                        minlength=h * w).reshape(h, w)
    return d_hat, probs, volume.valid.any(axis=2)


def geometry_prior_chain(camera, sonar_values, rig, config, origin):
    """Oracle for run_pipeline's closed-form geometry prior: the general chain on
    zero sonar features. The camera's features are scored under neg-dot against
    the zero vector on the full warp grid, regularized, scaled and soft-argmined,
    and the regressed distances are turned into depth.

    Returns:
        (depth, volume): the DepthMap and the regularized CostVolume.
    """
    camera = np.asarray(camera)
    if camera.dtype == np.uint8:
        camera = camera.astype(np.float64) / 255.0
    grid = build_warp_grid(rig.intrinsics, rig.extrinsics, rig.planes, rig.sonar,
                           shape=camera.shape, origin=origin, echo=None)
    cam = extract_features(camera, config.extractor, config.patch_radius)
    son = np.zeros(np.shape(sonar_values) + cam.shape[-1:], np.float32)
    volume = build_cost_volume(cam, son, grid, "neg-dot")
    volume = regularize_cost_volume(volume, config.box_radius, config.box_passes)
    d_hat, _, ok = soft_argmin(scale_costs(volume, config.cost_scale), rig.planes.distances())
    depth = regress_depth_map(d_hat, ok, rig.intrinsics, rig.extrinsics, rig.planes.alpha,
                              origin=origin)
    return depth, volume


def argmin_planes(volume):
    """Per-pixel index (0-based) of the lowest-cost valid plane; ties take the lowest index."""
    costs = densify(volume.costs, volume.valid, np.inf)
    return np.argmin(costs, axis=2), volume.valid.any(axis=2)


def ray_plane_bisection_oracle(us, vs, intrinsics, extrinsics, planes, indices,
                               span: float = 64.0, iterations: int = 120):
    """Independent ray-plane intersections by marching/bisection, no linear solve.

    Walks the pixel ray P(s) = c + s * dir (sonar frame) and bisects the sign
    change of the plane equation over s in [-span, span]. The plane equation
    is linear along the ray, so the bracket always contains exactly one root
    when the ray is not parallel to the family.

    Returns:
        (points, ok) where ok is False when no sign change exists in the span.
    """
    us = np.asarray(us, dtype=float)
    vs = np.asarray(vs, dtype=float)
    indices = np.asarray(indices)

    center = -extrinsics.rotation.T @ extrinsics.translation
    dirs = intrinsics.ray_directions(us, vs) @ extrinsics.rotation  # R^T applied per row
    normal = plane_normal(planes)
    offsets = planes.d0 * planes.k ** (indices - 1) * np.sin(planes.alpha)

    def f(s):
        pts = center + s[..., None] * dirs
        return pts @ normal - offsets

    lo = np.full(us.shape, -span)
    hi = np.full(us.shape, span)
    f_lo = f(lo)
    ok = np.sign(f_lo) != np.sign(f(hi))
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        same = np.sign(f(mid)) == np.sign(f_lo)
        lo = np.where(same, mid, lo)
        f_lo = np.where(same, f(lo), f_lo)
        hi = np.where(same, hi, mid)
    s_root = 0.5 * (lo + hi)
    return center + s_root[..., None] * dirs, ok


def consecutive_projection_displacements(grid_pixels, intrinsics, extrinsics, planes, spec):
    """Per-pixel camera-space displacements of sonar content between consecutive planes.

    For each pixel and plane i: take the sweep's sampling point on plane i,
    read off its polar measurement, lift that same measurement onto plane
    i+1, and project the lifted point into the camera. The displacement from
    the original pixel measures the per-step warp flow of the sweep.

    Returns:
        (disp, ok): arrays of shape (P, N-1, 2) and (P, N-1).
    """
    us, vs = grid_pixels
    n = planes.n
    disp = np.zeros(us.shape + (n - 1, 2))
    ok = np.zeros(us.shape + (n - 1,), dtype=bool)
    for i in range(1, n):
        pts, solvable = solve_ray_plane(us, vs, intrinsics, extrinsics, planes, i)
        d, theta = sonar_polar(pts)
        lifted = backproject_sonar_to_plane(d, theta, planes, i + 1)
        cam = extrinsics.apply(lifted)
        proj = intrinsics.project(cam)
        disp[..., i - 1, :] = proj - np.stack([us, vs], axis=-1)
        ok[..., i - 1] = solvable & (cam[..., 2] > 0)
    return disp, ok
