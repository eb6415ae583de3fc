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
    PlaneHypothesisSet,
    RigidTransform,
    SonarSpec,
    WarpGrid,
    build_warp_grid,
    camera_depth_field,
    ray_depth_to_euclidean,
)

EXTRACTORS = ("intensity", "gradient", "zncc-patch")
METRICS = ("sad", "neg-dot", "neg-zncc")

# Sentinel carried by invalid cost entries; never NaN.
INVALID_COST = np.float32(1e9)

_NORM_EPS = 1e-9
_VAR_EPS = 1e-12


@dataclass(frozen=True)
class CostVolume:
    """H x W x N matching costs; invalid entries hold the INVALID_COST sentinel."""

    costs: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        costs = np.asarray(self.costs, dtype=np.float32)
        valid = np.asarray(self.valid, dtype=bool)
        if costs.ndim != 3 or costs.shape != valid.shape:
            raise ValueError(f"costs/valid must share an (H, W, N) shape, got {costs.shape} vs {valid.shape}")
        if not np.all(np.isfinite(costs)):
            raise ValueError("cost volume must be finite (invalid entries use the sentinel)")
        object.__setattr__(self, "costs", costs)
        object.__setattr__(self, "valid", valid)

    @property
    def shape(self):
        return self.costs.shape


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
    camera-only ablation used by the turbidity robustness experiment.
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


def extract_features(image: np.ndarray, kind: str = "zncc-patch", patch_radius: int = 2) -> np.ndarray:
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
        patches = windows.reshape(image.shape + (-1,)).astype(np.float64)
        centered = patches - patches.mean(axis=-1, keepdims=True)
        var = np.mean(centered**2, axis=-1)
        norm = np.sqrt(np.maximum(var * patches.shape[-1], 0.0))
        ok = var >= _VAR_EPS
        out = np.where(ok[:, :, None], centered / np.where(ok, norm, 1.0)[:, :, None], 0.0)
        return out.astype(np.float32)
    raise ValueError(f"unknown extractor {kind!r}, want one of {EXTRACTORS}")


def _bilinear_sample(values: np.ndarray, rows, cols) -> np.ndarray:
    """Bilinear lookup with edge clamping of an (R, C, F) map; returns (..., F)."""
    rows = np.clip(rows, 0.0, values.shape[0] - 1.0)
    cols = np.clip(cols, 0.0, values.shape[1] - 1.0)
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
        cam_c = cam - cam.mean(axis=-1, keepdims=True)
        son_c = son - son.mean(axis=-1, keepdims=True)
        cam_n = np.linalg.norm(cam_c, axis=-1)
        son_n = np.linalg.norm(son_c, axis=-1)
        defined = (cam_n >= _NORM_EPS) & (son_n >= _NORM_EPS)
        denom = np.where(defined, cam_n * son_n, 1.0)
        cost = -np.sum(cam_c * son_c, axis=-1) / denom
        return np.where(defined, cost, 0.0), defined
    raise ValueError(f"unknown metric {metric!r}, want one of {METRICS}")


def build_cost_volume(camera_features: np.ndarray, sonar_features: np.ndarray,
                      grid: WarpGrid, spec: SonarSpec, metric: str) -> CostVolume:
    """Warp sonar features through the grid and score them against the camera.

    Only the entries the warp grid admits are touched: plane by plane, each
    admissible (pixel, plane) lookup samples the sonar feature map bilinearly
    in (range-bin, bearing-bin) space and is scored, in float64, against that
    pixel's camera feature. Every other entry keeps the sentinel, and the
    grid's ranges and bearings there are never read.

    Args:
        camera_features: (H, W, F).
        sonar_features: (range_bins, bearing_bins, F) feature map.
        grid: Warp grid of shape (H, W, N).
        spec: Sonar geometry the feature map is binned by.
        metric: One of sad, neg-dot, neg-zncc. Entries where the metric is
            undefined (degenerate vectors under neg-zncc) go invalid rather
            than fake a score.

    Returns:
        CostVolume with invalid entries carrying the sentinel cost.
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
    costs = np.full(grid.shape, INVALID_COST, dtype=np.float32)
    valid = np.zeros(grid.shape, dtype=bool)
    for i in range(grid.shape[2]):
        v, u = np.nonzero(grid.valid[:, :, i])
        rb, bb = spec.polar_to_bin(grid.ranges[v, u, i], grid.bearings[v, u, i])
        cost, defined = _pair_cost(camera_features[v, u].astype(np.float64),
                                   _bilinear_sample(sonar_features, rb, bb), metric)
        costs[v[defined], u[defined], i] = cost[defined]
        valid[v, u, i] = defined
    return CostVolume(costs=costs, valid=valid)


def regularize_cost_volume(volume: CostVolume, radius: int = 1, passes: int = 1) -> CostVolume:
    """Spatial box filtering of each plane slice over its valid mask.

    A deterministic stand-in for a learned cost regularizer: each valid entry
    becomes the mean of the valid entries in its (2r+1)^2 neighborhood
    (truncated at slice borders); the validity mask is preserved. Radius 0 or
    zero passes returns the volume unchanged.
    """
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    if radius == 0 or passes == 0:
        return volume
    size = (2 * radius + 1, 2 * radius + 1, 1)
    area = size[0] * size[1]
    valid = volume.valid
    cnts = ndimage.uniform_filter(valid.astype(np.float64), size=size,
                                  mode="constant", cval=0.0) * area
    filtered = np.where(valid, volume.costs.astype(np.float64), 0.0)
    for _ in range(passes):
        sums = ndimage.uniform_filter(filtered, size=size, mode="constant", cval=0.0) * area
        filtered = np.where(valid, sums / np.maximum(cnts, 1.0), 0.0)
    costs_out = np.where(valid, filtered, INVALID_COST).astype(np.float32)
    return CostVolume(costs=costs_out, valid=valid.copy())


def scale_costs(volume: CostVolume, gain: float) -> CostVolume:
    """Multiply valid costs by a positive gain (softmax sharpening)."""
    if not 0 < gain < np.inf:
        raise ValueError(f"gain must be positive and finite, got {gain}")
    costs = np.where(volume.valid, volume.costs * np.float32(gain), INVALID_COST)
    return CostVolume(costs=costs.astype(np.float32), valid=volume.valid.copy())


def soft_argmin(volume: CostVolume, distances):
    """Expected plane distance under the softmax of negated costs.

    Per pixel, valid hypotheses are converted to a probability distribution
    P(d_i) = softmax(-cost_i) (with max subtraction for stability, softmax
    restricted to the valid set) and the regressed distance is the
    expectation sum_i d_i P(d_i). Pixels with no valid hypothesis are masked.

    Args:
        volume: Cost volume (H, W, N).
        distances: Plane distances, either an (N,) array or a
            PlaneHypothesisSet.

    Returns:
        (d_hat, probs, valid): (H, W) regression, (H, W, N) probabilities
        (zero rows on masked pixels), and the per-pixel mask.
    """
    if isinstance(distances, PlaneHypothesisSet):
        distances = distances.distances()
    distances = np.asarray(distances, dtype=np.float64)
    if distances.shape != (volume.shape[2],):
        raise ValueError(f"distances shape {distances.shape} does not match N={volume.shape[2]}")

    costs = volume.costs.astype(np.float64)
    valid = volume.valid
    any_valid = valid.any(axis=2)

    neg = np.where(valid, -costs, -np.inf)
    peak = np.max(neg, axis=2, keepdims=True)
    peak = np.where(np.isfinite(peak), peak, 0.0)
    weights = np.exp(neg - peak)
    weights[~valid] = 0.0
    total = weights.sum(axis=2)
    probs = weights / np.where(any_valid, total, 1.0)[:, :, None]
    d_hat = probs @ distances
    d_hat[~any_valid] = 0.0
    probs[~any_valid] = 0.0
    return d_hat, probs, any_valid


def regress_depth_map(d_hat: np.ndarray, valid: np.ndarray, intrinsics: CameraIntrinsics,
                      extrinsics: RigidTransform, alpha: float,
                      origin: tuple = (0, 0)) -> DepthMap:
    """Turn a regressed plane-distance field into metric Euclidean depth.

    Applies the closed-form camera depth followed by the ray-norm conversion
    per pixel; pixels the camera depth field rejects (parallel rays,
    behind-camera solutions) are masked.

    Args:
        d_hat: (H, W) plane distances.
        valid: (H, W) mask of usable regressions.
        origin: Absolute pixel coordinate of d_hat[0, 0] (for crop windows).
    """
    d_hat = np.asarray(d_hat, dtype=float)
    h, w = d_hat.shape
    vs, us = np.meshgrid(np.arange(h, dtype=float) + origin[1],
                         np.arange(w, dtype=float) + origin[0], indexing="ij")
    z, ok = camera_depth_field(us, vs, d_hat, intrinsics, extrinsics, alpha)
    good = np.asarray(valid, dtype=bool) & ok
    depth = np.where(good, ray_depth_to_euclidean(us, vs, np.where(good, z, 1.0), intrinsics), 0.0)
    return DepthMap(depth=depth, valid=good)


def to_full_frame(depth: DepthMap, origin: tuple, shape: tuple) -> DepthMap:
    """Paste a crop-sized depth map at origin (u0, v0) into a zero (H, W) frame."""
    (u0, v0), (h, w) = origin, depth.depth.shape
    full_depth = np.zeros(shape)
    full_valid = np.zeros(shape, dtype=bool)
    full_depth[v0:v0 + h, u0:u0 + w] = depth.depth
    full_valid[v0:v0 + h, u0:u0 + w] = depth.valid
    return DepthMap(depth=full_depth, valid=full_valid)


def run_pipeline(camera_image: np.ndarray, sonar_image, calibration,
                 config: SweepConfig | None = None, origin: tuple = (0, 0)):
    """The full sweep: features, warp, cost volume, regression, metric depth.

    A pure function of its inputs: the same images and configuration produce
    bit-identical outputs. Camera input is expected preprocessed (cropped to
    the shared field of view and equalized); ``origin`` locates the crop in
    the full image.

    Args:
        camera_image: Grayscale image, uint8 or float in [0, 1], shape (H, W).
        sonar_image: PolarSonarImage (preprocessed polar scan).
        calibration: CalibrationBundle for the rig.
        config: SweepConfig; defaults apply when omitted.
        origin: (u0, v0) of the camera crop.

    Returns:
        (depth, volume): crop-sized DepthMap and the regularized (unscaled)
        CostVolume, exportable as SSCV1.
    """
    if config is None:
        config = SweepConfig()
    camera_image = np.asarray(camera_image)
    if camera_image.dtype == np.uint8:
        camera_image = camera_image.astype(np.float64) / 255.0

    cam_features = extract_features(camera_image, config.extractor, config.patch_radius)
    son_features = extract_features(sonar_image.values, config.extractor, config.patch_radius)
    if config.zero_sonar_features:
        son_features = np.zeros_like(son_features)

    grid = build_warp_grid(calibration.intrinsics, calibration.extrinsics, calibration.planes,
                           calibration.sonar, shape=camera_image.shape, origin=origin)
    volume = build_cost_volume(cam_features, son_features, grid, calibration.sonar,
                               config.metric)
    volume = regularize_cost_volume(volume, config.box_radius, config.box_passes)

    d_hat, _, reg_valid = soft_argmin(scale_costs(volume, config.cost_scale), calibration.planes)
    depth = regress_depth_map(d_hat, reg_valid, calibration.intrinsics, calibration.extrinsics,
                              calibration.planes.alpha, origin=origin)
    return depth, volume
