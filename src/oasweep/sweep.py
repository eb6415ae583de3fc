"""Cost-volume matching and depth regression over the plane sweep.

Handcrafted feature extractors and explicit similarity metrics stand in for
the learned encoder/regularizer stack; the raw cost volume is exportable so
an external learned regularizer can be attached instead. Costs are "lower is
better" throughout and enter the regression as exp(-cost).
"""

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .geometry import (
    CameraIntrinsics,
    RigidTransform,
    SonarSpec,
    WarpGrid,
    build_warp_grid,
    map_in_order,
    ray_plane_terms,
)

EXTRACTORS = ("intensity", "gradient", "zncc-patch")
METRICS = ("sad", "neg-dot", "neg-zncc")

_NORM_EPS = 1e-9
_VAR_EPS = 1e-12


@dataclass(frozen=True)
class CostVolume:
    """Matching costs of an (H, W, N) volume: ``costs`` holds one finite float32
    per ``valid`` entry, in the order of the WarpGrid lookups (plane-major).
    ``valid`` from build_cost_volume is stored plane-major like the WarpGrid's."""

    costs: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        costs = np.asarray(self.costs, dtype=np.float32)
        valid = np.asarray(self.valid, dtype=bool)
        if valid.ndim != 3 or costs.shape != (np.count_nonzero(valid),):
            raise ValueError(f"need an (H, W, N) mask and one cost per valid entry, got mask "
                             f"{valid.shape} and costs {costs.shape}")
        if not np.all(np.isfinite(costs)):
            raise ValueError("costs must be finite")
        object.__setattr__(self, "costs", costs)
        object.__setattr__(self, "valid", valid)

    @property
    def shape(self):
        return self.valid.shape


@dataclass(frozen=True)
class DepthMap:
    """Dense per-pixel Euclidean distance in the camera frame.

    Attributes:
        depth: Meters, shape (H, W); zero on masked pixels, never NaN.
        valid: Pixel validity mask.
    """

    depth: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        depth = np.asarray(self.depth, dtype=float)
        valid = np.asarray(self.valid, dtype=bool)
        if depth.shape != valid.shape:
            raise ValueError(f"depth/valid shape mismatch: {depth.shape} vs {valid.shape}")
        if not np.all(np.isfinite(depth)):
            raise ValueError("depth must be finite everywhere (masked pixels hold 0)")
        if np.any(depth[valid] <= 0):
            raise ValueError("valid depths must be positive")
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "valid", valid)


@dataclass(frozen=True)
class SweepConfig:
    """Matching configuration of the sweep pipeline.

    cost_scale is the matcher gain applied to the regularized costs before
    the softmax; larger values sharpen the regression toward the best
    hypothesis (the learned regularizer plays this role in a trained stack).
    zero_sonar_features replaces the sonar feature map with zeros, the
    geometry-prior ablation used by the turbidity robustness experiment
    (under neg-dot every cost is 0, so it never reads the camera).
    """

    extractor: str = "zncc-patch"
    patch_radius: int = 2
    metric: str = "neg-zncc"
    box_radius: int = 3
    box_passes: int = 2
    cost_scale: float = 20.0
    zero_sonar_features: bool = False

    def __post_init__(self):
        if self.extractor not in EXTRACTORS:
            raise ValueError(f"unknown extractor {self.extractor!r}, want one of {EXTRACTORS}")
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}, want one of {METRICS}")
        if self.patch_radius < 0 or self.box_radius < 0 or self.box_passes < 0:
            raise ValueError("radii and passes must be >= 0")
        if not 0 < self.cost_scale < np.inf:
            raise ValueError(f"cost_scale must be positive and finite, got {self.cost_scale}")


def extract_features(image: np.ndarray, kind: str, patch_radius: int) -> np.ndarray:
    """Per-pixel feature vectors of a grayscale image or polar sonar scan.

    Kinds:
        intensity: F = 1 passthrough.
        gradient: F = 2 central-difference gradients (horizontal, vertical).
        zncc-patch: F = (2r+1)^2 zero-mean unit-norm patch vector, with the
            zero vector where the patch variance falls below 1e-12.

    Returns:
        float32 array of shape (H, W, F).
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2 or image.size == 0:
        raise ValueError(f"expected a nonempty 2-D image, got shape {image.shape}")
    if kind == "intensity":
        return image[:, :, None].astype(np.float32)
    if kind == "gradient":
        dv, du = np.gradient(image)
        return np.stack([du, dv], axis=-1).astype(np.float32)
    if kind == "zncc-patch":
        r = patch_radius
        padded = np.pad(image, r, mode="edge")
        windows = np.lib.stride_tricks.sliding_window_view(padded, (2 * r + 1, 2 * r + 1))
        out = np.zeros(image.shape + ((2 * r + 1) ** 2,), dtype=np.float32)
        # Row by row, so that the float64 patch buffers stay one image row long. A
        # row whose band of 2r + 1 input rows holds only +-0.0 has flat patches: +0.0.
        held = np.pad(np.any(image != 0, axis=1), r)
        band = np.lib.stride_tricks.sliding_window_view(held, 2 * r + 1).any(axis=1)
        for i in np.flatnonzero(band):
            patches = windows[i].reshape(image.shape[1], -1)
            centered = patches - patches.mean(axis=-1, keepdims=True)
            var = np.mean(centered**2, axis=-1)
            norm = np.sqrt(np.maximum(var * patches.shape[-1], 0.0))
            ok = var >= _VAR_EPS
            out[i] = np.where(ok[:, None], centered / np.where(ok, norm, 1.0)[:, None], 0.0)
        return out
    raise ValueError(f"unknown extractor {kind!r}, want one of {EXTRACTORS}")


def _bilinear_sample(values: np.ndarray, rows, cols) -> np.ndarray:
    """Bilinear lookup of an (R, C, F) map at coordinates in [0, R - 1] x [0, C - 1]
    (as SonarSpec.polar_to_bin returns them); returns (..., F)."""
    r0 = np.floor(rows).astype(int)
    c0 = np.floor(cols).astype(int)
    r1 = np.minimum(r0 + 1, values.shape[0] - 1)
    c1 = np.minimum(c0 + 1, values.shape[1] - 1)
    fr = (rows - r0)[..., None]
    fc = (cols - c0)[..., None]
    top = values[r0, c0] * (1 - fc) + values[r0, c1] * fc
    bot = values[r1, c0] * (1 - fc) + values[r1, c1] * fc
    return top * (1 - fr) + bot * fr


def _pair_cost(cam: np.ndarray, son: np.ndarray, metric: str):
    """Cost and definedness of camera/sonar feature pairs along the last axis."""
    if metric == "sad":
        return np.sum(np.abs(cam - son), axis=-1), np.ones(cam.shape[:-1], dtype=bool)
    if metric == "neg-dot":
        return -np.sum(cam * son, axis=-1), np.ones(cam.shape[:-1], dtype=bool)
    if metric == "neg-zncc":
        son_c = son - son.mean(axis=-1, keepdims=True)
        son_n = np.linalg.norm(son_c, axis=-1)
        if not np.any(son_n >= _NORM_EPS):  # a sonar side without norm: nothing is defined
            shape = np.broadcast_shapes(cam.shape[:-1], son_n.shape)
            return np.zeros(shape), np.zeros(shape, dtype=bool)
        cam_c = cam - cam.mean(axis=-1, keepdims=True)
        cam_n = np.linalg.norm(cam_c, axis=-1)
        defined = (cam_n >= _NORM_EPS) & (son_n >= _NORM_EPS)
        denom = np.where(defined, cam_n * son_n, 1.0)
        cost = -np.sum(cam_c * son_c, axis=-1) / denom
        return np.where(defined, cost, 0.0), defined
    raise ValueError(f"unknown metric {metric!r}, want one of {METRICS}")


def build_cost_volume(camera_features: np.ndarray, sonar_features: np.ndarray,
                      grid: WarpGrid, spec: SonarSpec, metric: str) -> CostVolume:
    """Warp sonar features through the grid and score them against the camera.

    Only the entries the warp grid admits are touched: plane by plane, each
    admissible (pixel, plane) lookup, sliced out of the grid's compact
    lookups, samples the sonar feature map bilinearly in (range-bin,
    bearing-bin) space and is scored, in float64, against that pixel's
    camera feature; the defined costs are kept, in the grid's order. The
    planes are shared between threads by :func:`map_in_order`, one task
    per plane, each writing its own row of the mask, so the volume is the
    same bit for bit whatever the thread count.

    A lookup whose bilinear cell has four +0.0 corners samples exactly the
    zero vector, so it takes its pixel's zero-sample cost, scored once per
    pixel before the plane loop; only lookups whose cell touches a bin
    holding anything else are gathered and scored. The result is the same
    bit for bit as scoring every lookup.

    Args:
        camera_features: (H, W, F).
        sonar_features: (range_bins, bearing_bins, F) feature map.
        grid: Warp grid of shape (H, W, N).
        spec: Sonar geometry the feature map is binned by.
        metric: One of sad, neg-dot, neg-zncc. Entries where the metric is
            undefined (degenerate vectors under neg-zncc) go invalid rather
            than fake a score.

    Returns:
        CostVolume valid where the grid admits the entry and the metric is
        defined.
    """
    camera_features = np.asarray(camera_features)
    sonar_features = np.asarray(sonar_features)
    if sonar_features.shape[:2] != (spec.range_bins, spec.bearing_bins):
        raise ValueError(
            f"sonar feature dims {sonar_features.shape[:2]} do not match spec bins "
            f"({spec.range_bins}, {spec.bearing_bins})"
        )
    if camera_features.shape[-1] != sonar_features.shape[-1]:
        raise ValueError(
            f"feature channel mismatch: camera F={camera_features.shape[-1]}, "
            f"sonar F={sonar_features.shape[-1]}"
        )
    if camera_features.shape[:2] != grid.shape[:2]:
        raise ValueError(f"grid mismatch: {camera_features.shape[:2]} vs {grid.shape[:2]}")
    h, w, n = grid.shape
    zero = np.zeros(sonar_features.shape[-1])
    # Row by row, so that the float64 feature buffers stay one image row long.
    cost0, defined0 = np.empty((h, w)), np.empty((h, w), dtype=bool)
    for r, row in enumerate(camera_features):
        cost0[r], defined0[r] = _pair_cost(row.astype(np.float64), zero, metric)
    # A -0.0 bin counts as held: only +0.0 corners surely blend to a +0.0 sample.
    held = np.any((sonar_features != 0) | np.signbit(sonar_features), axis=-1)
    # Cell (r, c) blends corners [r, r+1] x [c, c+1], edge-clamped as in _bilinear_sample.
    held = np.pad(held, ((0, 1), (0, 1)), mode="edge")
    live = held[:-1, :-1] | held[1:, :-1] | held[:-1, 1:] | held[1:, 1:]
    camera_features = camera_features.reshape(h * w, camera_features.shape[-1])
    masks = np.moveaxis(grid.valid, 2, 0).reshape(n, h * w)
    # Plane i's lookups are the grid's entries ends[i - 1]:ends[i].
    ends = np.cumsum([np.count_nonzero(mask) for mask in masks])
    valid = np.zeros((n, h * w), dtype=bool)  # plane-major, returned as an (H, W, N) view

    def score(i):
        pixels = np.flatnonzero(masks[i])
        lookups = slice(ends[i] - pixels.size, ends[i])
        rb, bb = spec.polar_to_bin(grid.ranges[lookups], grid.bearings[lookups])
        hit = live[np.floor(rb).astype(int), np.floor(bb).astype(int)]
        cost, defined = cost0.ravel()[pixels], defined0.ravel()[pixels]
        cost[hit], defined[hit] = _pair_cost(camera_features[pixels[hit]].astype(np.float64),
                                             _bilinear_sample(sonar_features, rb[hit], bb[hit]),
                                             metric)
        valid[i, pixels] = defined
        return cost[defined].astype(np.float32)

    costs = np.concatenate(map_in_order(score, range(n)))
    return CostVolume(costs=costs, valid=valid.reshape(n, h, w).transpose(1, 2, 0))


def regularize_cost_volume(volume: CostVolume, radius: int, passes: int) -> CostVolume:
    """Spatial box filtering of each plane slice over its valid mask.

    A deterministic stand-in for a learned cost regularizer: each valid entry
    becomes the mean of the valid entries in its (2r+1)^2 neighborhood
    (truncated at slice borders); the validity mask is preserved. Radius 0 or
    zero passes returns the volume unchanged.

    Each plane's mask is cut to the rows and columns its entries occupy; its
    costs, in C order, are scattered through that boolean box, filtered and
    gathered back. The filter input is exactly zero outside the valid entries,
    and the filter's constant-zero boundary gives every line of the box the
    same zero lead-in that the slice's empty cells around the box would, so
    its running sums, hence the result, match the slice's bit for bit.
    """
    if radius == 0 or passes == 0:
        return volume
    size = 2 * radius + 1
    area = size * size
    costs = np.empty_like(volume.costs)
    end = 0
    for plane in np.moveaxis(volume.valid, 2, 0):
        rows, cols = np.flatnonzero(plane.any(axis=1)), np.flatnonzero(plane.any(axis=0))
        if rows.size == 0:
            continue
        box_valid = plane[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]
        entries = slice(end, end + np.count_nonzero(box_valid))
        end = entries.stop
        cnts = ndimage.uniform_filter(box_valid.astype(np.float64), size=size,
                                      mode="constant", cval=0.0) * area
        filtered = np.zeros(box_valid.shape)
        filtered[box_valid] = volume.costs[entries]
        for _ in range(passes):
            sums = ndimage.uniform_filter(filtered, size=size, mode="constant", cval=0.0)
            filtered = np.where(box_valid, sums * area / np.maximum(cnts, 1.0), 0.0)
        costs[entries] = filtered[box_valid]
    return CostVolume(costs=costs, valid=volume.valid)


def scale_costs(volume: CostVolume, gain: float) -> CostVolume:
    """Multiply the costs by a positive gain (softmax sharpening); float32 overflow raises."""
    with np.errstate(over="raise"):
        return CostVolume(costs=volume.costs * np.float32(gain), valid=volume.valid)


def soft_argmin(volume: CostVolume, distances):
    """Expected plane distance under the softmax of negated costs.

    Per pixel, a softmax over its own valid entries only gives P(d_i) =
    softmax(-cost_i) (with max subtraction for stability), and the regressed
    distance is the expectation sum_i d_i P(d_i). Pixels with no valid
    hypothesis are masked.

    Args:
        volume: Cost volume (H, W, N).
        distances: (N,) plane distances.

    Returns:
        (d_hat, probs, valid): (H, W) regression (zero on masked pixels),
        float64 probabilities, one per valid entry in the order of
        ``volume.costs``, and the per-pixel mask.
    """
    distances = np.asarray(distances, dtype=np.float64)
    h, w, n = volume.shape
    if distances.shape != (n,):
        raise ValueError(f"distances shape {distances.shape} does not match N={n}")

    # Plane i's entries are the costs' next run, one per pixel of its mask, so
    # each plane's probabilities are a view of probs. Per pixel, each sum
    # starts at 0.0 and adds its entries in plane order.
    pixels = [np.flatnonzero(mask) for mask in np.moveaxis(volume.valid, 2, 0)]
    probs = np.negative(volume.costs, dtype=np.float64)
    planes = np.split(probs, np.cumsum([px.size for px in pixels])[:-1])
    peak = np.full(h * w, -np.inf)
    for px, own in zip(pixels, planes):
        peak[px] = np.maximum(peak[px], own)
    total = np.zeros(h * w)
    for px, own in zip(pixels, planes):
        np.exp(np.subtract(own, peak[px], out=own), out=own)
        total[px] += own
    d_hat = np.zeros(h * w)
    for px, own, d_i in zip(pixels, planes, distances):
        d_hat[px] += np.divide(own, total[px], out=own) * d_i
    return d_hat.reshape(h, w), probs, volume.valid.any(axis=2)


def regress_depth_map(d_hat: np.ndarray, valid: np.ndarray, intrinsics: CameraIntrinsics,
                      extrinsics: RigidTransform, alpha: float, origin: tuple) -> DepthMap:
    """Turn a regressed plane-distance field into metric Euclidean depth.

    Per pixel, the closed-form camera depth Z_c of :func:`ray_plane_terms`
    becomes the distance along the ray, Z_c ||K^-1 [u, v, 1]^T||_2. Pixels
    whose ray runs parallel to the planes or meets its plane behind the
    camera (Z_c <= 0) are masked with depth 0.

    Args:
        d_hat: (H, W) plane distances.
        valid: (H, W) mask of usable regressions.
        origin: Absolute pixel coordinate of d_hat[0, 0] (for crop windows).
    """
    d_hat = np.asarray(d_hat, dtype=float)
    h, w = d_hat.shape
    vs, us = np.meshgrid(np.arange(h, dtype=float) + origin[1],
                         np.arange(w, dtype=float) + origin[0], indexing="ij")
    rays, denom, numer = ray_plane_terms(us, vs, d_hat, intrinsics, extrinsics, alpha)
    z = numer / denom
    good = np.asarray(valid, dtype=bool) & (z > 0)
    depth = np.where(good, z * np.linalg.norm(rays, axis=-1), 0.0)
    return DepthMap(depth=depth, valid=good)


def to_full_frame(depth: DepthMap, window, shape: tuple) -> DepthMap:
    """Paste a crop-sized depth map back into a zero (H, W) frame through the
    CropWindow's slice, the one the crop was cut with."""
    full_depth = np.zeros(shape)
    full_valid = np.zeros(shape, dtype=bool)
    full_depth[window.slice()] = depth.depth
    full_valid[window.slice()] = depth.valid
    return DepthMap(depth=full_depth, valid=full_valid)


def run_pipeline(camera_image: np.ndarray, sonar_image, calibration, config: SweepConfig,
                 origin: tuple):
    """The full sweep: features, warp, cost volume, regression, metric depth.

    A pure function of its inputs: the same images and configuration produce
    bit-identical outputs. Camera input is expected preprocessed (cropped to
    the shared field of view and equalized); ``origin`` locates the crop in
    the full image.

    Args:
        camera_image: Grayscale image, uint8 or float in [0, 1], shape (H, W).
        sonar_image: PolarSonarImage (preprocessed polar scan).
        calibration: CalibrationBundle for the rig.
        config: SweepConfig.
        origin: (u0, v0) of the camera crop.

    Returns:
        (depth, volume): crop-sized DepthMap and the regularized (unscaled)
        CostVolume, one cost per valid entry, exportable as SSCV1.
    """
    camera_image = np.asarray(camera_image)
    if camera_image.dtype == np.uint8:
        camera_image = camera_image.astype(np.float64) / 255.0

    cam_features = extract_features(camera_image, config.extractor, config.patch_radius)
    if config.zero_sonar_features:
        son_features = np.zeros(sonar_image.values.shape + cam_features.shape[-1:], np.float32)
    else:
        son_features = extract_features(sonar_image.values, config.extractor, config.patch_radius)

    grid = build_warp_grid(calibration.intrinsics, calibration.extrinsics, calibration.planes,
                           calibration.sonar, shape=camera_image.shape, origin=origin)
    volume = build_cost_volume(cam_features, son_features, grid, calibration.sonar,
                               config.metric)
    del camera_image, cam_features, son_features, grid  # the later stages read only the volume
    volume = regularize_cost_volume(volume, config.box_radius, config.box_passes)

    d_hat, _, reg_valid = soft_argmin(scale_costs(volume, config.cost_scale),
                                      calibration.planes.distances())
    depth = regress_depth_map(d_hat, reg_valid, calibration.intrinsics, calibration.extrinsics,
                              calibration.planes.alpha, origin=origin)
    return depth, volume
