"""Cost-volume matching and depth regression over the plane sweep.

Handcrafted feature extractors and explicit similarity metrics stand in for
the learned encoder/regularizer stack; the raw cost volume is exportable so
an external learned regularizer can be attached instead. Costs are "lower is
better" throughout and enter the regression as exp(-cost).
"""

import dataclasses
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .geometry import (
    CameraIntrinsics,
    PlaneEntries,
    RigidTransform,
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
class CostVolume(PlaneEntries):
    """Matching costs of an (H, W, N) volume: ``costs`` holds one finite float32
    per entry of the :class:`PlaneEntries` lists, in their order (plane-major,
    increasing pixel within a plane)."""

    costs: np.ndarray

    def __post_init__(self):
        costs = np.asarray(self.costs, dtype=np.float32)
        self._check(costs)
        if not np.all(np.isfinite(costs)):
            raise ValueError("costs must be finite")
        object.__setattr__(self, "costs", costs)


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
    geometry-prior ablation used by the turbidity robustness experiment. It
    needs the neg-dot metric, under which every cost is 0 whatever the
    camera, so :func:`run_pipeline` computes it in closed form from the warp
    grid's per-plane pixel lists alone: each pixel's depth averages its
    admissible planes (see :func:`_geometry_prior`), and neither image's
    values are read. The input checks are those of the fused sweep:
    :func:`run_pipeline` requires a nonempty 2-D camera crop and a sonar frame
    of the rig's sonar on both paths. Matchings that can score nothing are
    refused: neg-zncc on the one-channel intensity extractor, and zncc-patch
    with patch radius 0.
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
        if not 2.0**-150 < self.cost_scale < np.inf:  # float32 rounds 2**-150 down to 0
            raise ValueError(f"cost_scale must be finite and above 2**-150, got {self.cost_scale}")
        if self.zero_sonar_features and self.metric != "neg-dot":
            raise ValueError(f"zero_sonar_features needs the neg-dot metric, got {self.metric!r}")
        # Each leaves the sweep nothing to match: one channel has no centred norm,
        # and a one-pixel patch is always the zero vector.
        if self.metric == "neg-zncc" and self.extractor == "intensity":
            raise ValueError("neg-zncc cannot score the intensity extractor's one channel")
        if self.extractor == "zncc-patch" and self.patch_radius == 0:
            raise ValueError("the zncc-patch extractor needs a patch radius >= 1")


def extract_features(image: np.ndarray, kind: str, patch_radius: int,
                     rows=None) -> np.ndarray:
    """Per-pixel feature vectors of a grayscale image or polar sonar scan.

    Kinds:
        intensity: F = 1 passthrough.
        gradient: F = 2 central-difference gradients (horizontal, vertical).
        zncc-patch: F = (2r+1)^2 zero-mean unit-norm patch vector, with the
            zero vector where the patch variance falls below 1e-12.

    ``rows``, an (H,) boolean mask, asks for the features of its rows only:
    they are the whole image's, bit for bit, and every other row is +0.0.
    zncc-patch, the costly kind, windows only those rows of the padded image.

    Returns:
        float32 array of shape (H, W, F).
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2 or image.size == 0:
        raise ValueError(f"expected a nonempty 2-D image, got shape {image.shape}")
    if kind == "intensity":
        return _only(rows, image[:, :, None].astype(np.float32))
    if kind == "gradient":
        dv, du = np.gradient(image)
        return _only(rows, np.stack([du, dv], axis=-1).astype(np.float32))
    if kind == "zncc-patch":
        r = patch_radius
        padded = np.pad(image, r, mode="edge")
        windows = np.lib.stride_tricks.sliding_window_view(padded, (2 * r + 1, 2 * r + 1))
        out = np.zeros(image.shape + ((2 * r + 1) ** 2,), dtype=np.float32)
        # Row by row, so that the float64 patch buffers stay one image row long. A
        # row whose band of 2r + 1 input rows holds only +-0.0 has flat patches: +0.0.
        held = np.pad(np.any(image != 0, axis=1), r)
        band = np.lib.stride_tricks.sliding_window_view(held, 2 * r + 1).any(axis=1)
        for i in np.flatnonzero(band if rows is None else band & rows):
            patches = windows[i].reshape(image.shape[1], -1)
            centered = patches - patches.mean(axis=-1, keepdims=True)
            var = np.mean(centered**2, axis=-1)
            norm = np.sqrt(np.maximum(var * patches.shape[-1], 0.0))
            ok = var >= _VAR_EPS
            out[i] = np.where(ok[:, None], centered / np.where(ok, norm, 1.0)[:, None], 0.0)
        return out
    raise ValueError(f"unknown extractor {kind!r}, want one of {EXTRACTORS}")


def _only(rows, features: np.ndarray) -> np.ndarray:
    """The features with every row outside the ``rows`` mask set to +0.0 (None: all kept)."""
    if rows is not None:
        features[~rows] = 0.0
    return features


def live_cells(sonar_features: np.ndarray) -> np.ndarray:
    """(R, C) mask of the bilinear cells of a feature map that may sample more than +0.0.

    Cell (r, c) blends the corners [r, r + 1] x [c, c + 1], edge-clamped as
    in :func:`_bilinear_sample`; a lookup into any other cell, whose four
    corners hold only +0.0, samples exactly the zero vector. A corner is
    held when any bit of any of its channels is set: +0.0 is the only value
    whose bits are all zero, so -0.0 and NaN are held, and only +0.0 corners
    surely blend to a +0.0 sample.
    """
    held = np.any(sonar_features.view(f"u{sonar_features.itemsize}") != 0, axis=-1)
    held = np.pad(held, ((0, 1), (0, 1)), mode="edge")
    return held[:-1, :-1] | held[1:, :-1] | held[:-1, 1:] | held[1:, 1:]


def _bilinear_sample(values: np.ndarray, rows, cols) -> np.ndarray:
    """Bilinear lookup of an (R, C, F) map at 1-D coordinates in [0, R - 1] x [0, C - 1]
    (a WarpGrid's rb and bb); returns (K, F) float64.

    The coordinates are >= 0, so the integer cast is their floor. Each corner
    is gathered from the (R*C, F) view and upcast once; the products and sums
    are those of the float64 blend top (1 - fr) + bottom fr, done in place.
    """
    n_rows, n_cols, depth = values.shape
    flat = values.reshape(n_rows * n_cols, depth)
    r0, c0 = rows.astype(int), cols.astype(int)
    fr, fc = (rows - r0)[:, None], (cols - c0)[:, None]
    top, bottom = r0 * n_cols, np.minimum(r0 + 1, n_rows - 1) * n_cols
    right = np.minimum(c0 + 1, n_cols - 1)

    def blend(base):
        near = np.take(flat, base + c0, axis=0).astype(np.float64)
        near *= 1 - fc
        far = np.take(flat, base + right, axis=0).astype(np.float64)
        far *= fc
        near += far
        return near
    out = blend(top)
    out *= 1 - fr
    below = blend(bottom)
    below *= fr
    out += below
    return out


def _pair_cost(cam: np.ndarray, son: np.ndarray, metric: str):
    """Cost and definedness of camera/sonar feature pairs along the last axis."""
    if metric == "sad":
        return np.sum(np.abs(cam - son), axis=-1), np.ones(cam.shape[:-1], dtype=bool)
    if metric == "neg-dot":
        return -np.sum(cam * son, axis=-1), np.ones(cam.shape[:-1], dtype=bool)
    if metric == "neg-zncc":
        son_c = son - son.mean(axis=-1, keepdims=True)
        son_n = np.linalg.norm(son_c, axis=-1)
        cam_c = cam - cam.mean(axis=-1, keepdims=True)
        cam_n = np.linalg.norm(cam_c, axis=-1)
        defined = (cam_n >= _NORM_EPS) & (son_n >= _NORM_EPS)
        denom = np.where(defined, cam_n * son_n, 1.0)
        cost = -np.sum(cam_c * son_c, axis=-1) / denom
        return np.where(defined, cost, 0.0), defined
    raise ValueError(f"unknown metric {metric!r}, want one of {METRICS}")


def _zero_scores(metric: str) -> bool:
    """Whether a lookup that samples the zero sonar vector can score a defined cost.

    The zero vector has no centred norm, so neg-zncc leaves it undefined
    against every camera vector, while sad and neg-dot define every pair, so
    one probe pair tells them apart.
    """
    return bool(_pair_cost(np.array([[0.0, 1.0]]), np.zeros(2), metric)[1].all())


def build_cost_volume(camera_features: np.ndarray, sonar_features: np.ndarray,
                      grid: WarpGrid, metric: str) -> CostVolume:
    """Warp sonar features through the grid and score them against the camera.

    Only the entries the warp grid admits are touched: plane by plane, each
    of the plane's grid pixels samples the sonar feature map bilinearly at
    its bin coordinates and is scored, in float64, against that pixel's
    camera feature; the pixels with a defined cost and their costs are kept,
    in the grid's order. The planes are shared between threads by
    :func:`map_in_order`, one task per plane, whose lists are joined in plane
    order, so the volume is the same bit for bit whatever the thread count.

    A lookup into a dead cell, one whose four bilinear corners hold only +0.0
    (see :func:`live_cells`), samples exactly the zero vector. Under sad and
    neg-dot, where the zero vector scores, the live cells are found once and
    a dead lookup takes its pixel's zero-sample cost, scored once per pixel
    of the rows any plane admits, before the plane loop; only lookups into a
    live cell are gathered and scored. Under neg-zncc the zero vector never
    scores, so every lookup is scored and a dead one comes out undefined. The
    result is the same bit for bit as scoring every lookup. Only the camera
    features of the admitted rows are read.

    Args:
        camera_features: (H, W, F).
        sonar_features: (range_bins, bearing_bins, F) feature map.
        grid: Warp grid of shape (H, W, N); its bin coordinates must lie on
            the feature map (NaN does not), else ValueError, before any lookup.
        metric: One of sad, neg-dot, neg-zncc. Entries where the metric is
            undefined (degenerate vectors under neg-zncc) go invalid rather
            than fake a score.

    Returns:
        CostVolume of the grid's entries where the metric is defined.
    """
    camera_features = np.asarray(camera_features)
    sonar_features = np.asarray(sonar_features)
    bins = sonar_features.shape[:2]
    if not all(0 <= coords.min(initial=0) and coords.max(initial=0) <= size - 1
               for coords, size in zip((grid.rb, grid.bb), bins)):
        raise ValueError(f"warp grid lookups fall outside the {bins[0]}x{bins[1]} sonar map")
    if camera_features.shape[-1] != sonar_features.shape[-1]:
        raise ValueError(f"feature channel mismatch: camera F={camera_features.shape[-1]}, "
                         f"sonar F={sonar_features.shape[-1]}")
    if camera_features.shape[:2] != grid.shape[:2]:
        raise ValueError(f"grid mismatch: {camera_features.shape[:2]} vs {grid.shape[:2]}")
    h, w, n = grid.shape
    cost0, live = np.zeros((h, w)), np.ones(bins, dtype=bool)  # neg-zncc scores every lookup
    if _zero_scores(metric):
        # Only live cells are sampled: a dead lookup takes its pixel's cost
        # against the zero vector (0.0, broadcast), scored row by row so that
        # the float64 feature buffers stay one image row long.
        live = live_cells(sonar_features)
        for r in np.flatnonzero(grid.rows):
            cost0[r] = _pair_cost(camera_features[r].astype(np.float64), 0.0, metric)[0]
    camera_features = camera_features.reshape(h * w, camera_features.shape[-1])

    def score(i):
        lookups = slice(grid.ends[i], grid.ends[i + 1])
        pixels, rb, bb = grid.pixels[lookups], grid.rb[lookups], grid.bb[lookups]
        hit = live[rb.astype(int), bb.astype(int)]  # >= 0: the cast is the floor
        cost, defined = cost0.ravel()[pixels], np.ones(pixels.size, dtype=bool)
        cost[hit], defined[hit] = _pair_cost(camera_features[pixels[hit]].astype(np.float64),
                                             _bilinear_sample(sonar_features, rb[hit], bb[hit]),
                                             metric)
        return pixels[defined], cost[defined].astype(np.float32)

    # The empty leading pieces define an empty join.
    pixels, costs = zip((np.empty(0, np.int32), np.empty(0, np.float32)),
                        *map_in_order(score, range(n)))
    return CostVolume(pixels=np.concatenate(pixels),
                      ends=np.cumsum([0] + [kept.size for kept in pixels[1:]]),
                      shape=grid.shape, costs=np.concatenate(costs))


def regularize_cost_volume(volume: CostVolume, radius: int, passes: int) -> CostVolume:
    """Spatial box filtering of each plane slice over its entries.

    A deterministic stand-in for a learned cost regularizer: each entry
    becomes the mean of the plane's entries in its (2r+1)^2 neighborhood
    (truncated at slice borders); the entries are kept. Radius 0 or zero
    passes returns the volume unchanged.

    Each plane is cut to the box of rows and columns its pixels occupy; its
    costs are scattered into that box at their pixels, filtered and gathered
    back. The filter input is exactly zero outside the entries, and the
    filter's constant-zero boundary gives every line of the box the same zero
    lead-in that the slice's empty cells around the box would, so its running
    sums, hence the result, match the slice's bit for bit.
    """
    if radius == 0 or passes == 0:
        return volume
    size = 2 * radius + 1
    area = size * size
    w = volume.shape[1]
    costs = np.empty_like(volume.costs)
    for entries in map(slice, volume.ends[:-1], volume.ends[1:]):
        if entries.start == entries.stop:
            continue
        rows, cols = np.divmod(volume.pixels[entries], w)
        top, left = rows[0], cols.min()  # increasing pixels: the first row is the least
        box = np.zeros((rows[-1] - top + 1, cols.max() - left + 1))
        at = (rows - top, cols - left)
        box[at] = 1.0
        cnts = ndimage.uniform_filter(box, size=size, mode="constant", cval=0.0) * area
        filtered = np.zeros(box.shape)
        filtered[at] = volume.costs[entries]
        for _ in range(passes):
            sums = ndimage.uniform_filter(filtered, size=size, mode="constant", cval=0.0)
            filtered = np.where(box > 0, sums * area / np.maximum(cnts, 1.0), 0.0)
        costs[entries] = filtered[at]
    return dataclasses.replace(volume, costs=costs)


def scale_costs(volume: CostVolume, gain: float) -> CostVolume:
    """Multiply the costs by a positive gain (softmax sharpening); float32 overflow raises."""
    with np.errstate(over="raise"):
        return dataclasses.replace(volume, costs=volume.costs * np.float32(gain))


def soft_argmin(volume: CostVolume, distances):
    """Expected plane distance under the softmax of negated costs.

    Per pixel, a softmax over its own entries only gives P(d_i) =
    softmax(-cost_i) (with max subtraction for stability), and the regressed
    distance is the expectation sum_i d_i P(d_i). Pixels with no entry are
    masked.

    Args:
        volume: Cost volume (H, W, N).
        distances: (N,) plane distances.

    Returns:
        (d_hat, probs, valid): (H, W) regression (zero on masked pixels),
        float64 probabilities, one per entry in the order of
        ``volume.costs``, and the per-pixel mask.
    """
    distances = np.asarray(distances, dtype=np.float64)
    h, w, n = volume.shape
    if distances.shape != (n,):
        raise ValueError(f"distances shape {distances.shape} does not match N={n}")

    # Each plane's pixels and probabilities are views of the lists, split at
    # the plane ends. Per pixel, each sum starts at 0.0 and adds its entries
    # in plane order.
    probs = np.negative(volume.costs, dtype=np.float64)
    pixels, planes = (np.split(entries, volume.ends[1:-1]) for entries in (volume.pixels, probs))
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
    # The costs are finite, so a pixel's peak is finite where it has an entry.
    return d_hat.reshape(h, w), probs, np.isfinite(peak).reshape(h, w)


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


def _geometry_prior(shape: tuple, calibration, origin: tuple):
    """The sonar-zeroed neg-dot pass of :func:`run_pipeline`, in closed form.

    Why it is exact: against the zero sonar vector every neg-dot cost is the
    negated sum of +-0.0 products, +-0.0 whatever the camera, and defined, so
    the volume holds every entry of the full grid (no echo term) and only
    +-0.0; the regularizer's box means and the gain keep every cost +-0.0. In
    :func:`soft_argmin` each term is then exp(+-0.0 - +-0.0) == 1.0, each
    pixel's total is the count c of its admissible planes (exact in float64)
    and each probability is 1.0 / c. So d_hat adds (1.0 / c) * d_i over the
    pixel's planes in plane order from 0.0, masked where c == 0: the chain's
    d_hat bit for bit, hence its depth through :func:`regress_depth_map`. The
    weighted sum is one ``np.bincount`` over the grid's plane-major pixels,
    which adds each pixel's weights in that order from 0.0.

    No features, cost volume, regularizer or softmax are computed, and only
    the shape of the camera crop is read. Returns (d_hat, valid, volume): the
    (H, W) plane distances, the mask c > 0 and a volume that holds the grid's
    entries and a +0.0 cost per entry: the chain's regularized volume byte for
    byte whenever the box filter runs, whose running sums start from its +0.0
    border; with radius or passes 0 the chain keeps the raw costs, equal to
    these but signed like the camera's features.
    """
    grid = build_warp_grid(calibration.intrinsics, calibration.extrinsics, calibration.planes,
                           calibration.sonar, shape=shape, origin=origin, echo=None)
    volume = CostVolume(pixels=grid.pixels, ends=grid.ends, shape=grid.shape,
                        costs=np.zeros(grid.pixels.size, np.float32))
    del grid  # frees its lookups, which the prior does not read
    h, w, _ = volume.shape
    pixels = volume.pixels.astype(np.intp)  # once: np.bincount copies int32 on every call
    count = np.bincount(pixels, minlength=h * w).astype(np.float64)
    weights = (1.0 / np.maximum(count, 1.0))[pixels]
    for entries, d_i in zip(map(slice, volume.ends[:-1], volume.ends[1:]),
                            calibration.planes.distances()):
        weights[entries] *= d_i
    d_hat = np.bincount(pixels, weights, minlength=h * w)
    return d_hat.reshape(h, w), (count > 0).reshape(h, w), volume


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
    shape, spec = np.shape(camera_image), calibration.sonar
    if len(shape) != 2 or 0 in shape:
        raise ValueError(f"expected a nonempty 2-D image, got shape {shape}")
    if sonar_image.spec != spec:
        raise ValueError(f"sonar frame {sonar_image.spec} does not match the rig's {spec}")
    if config.zero_sonar_features:
        d_hat, valid, volume = _geometry_prior(shape, calibration, origin)
    else:
        camera_image = np.asarray(camera_image)
        if camera_image.dtype == np.uint8:
            camera_image = camera_image.astype(np.float64) / 255.0

        son_features = extract_features(sonar_image.values, config.extractor,
                                        config.patch_radius)
        # A lookup into a dead cell samples the zero vector. Where that never
        # scores, the grid keeps only the entries that look up a live cell.
        grid = build_warp_grid(calibration.intrinsics, calibration.extrinsics,
                               calibration.planes, spec, shape=shape, origin=origin,
                               echo=None if _zero_scores(config.metric)
                               else live_cells(son_features))
        cam_features = extract_features(camera_image, config.extractor, config.patch_radius,
                                        rows=grid.rows)
        volume = build_cost_volume(cam_features, son_features, grid, config.metric)
        del camera_image, cam_features, son_features, grid  # later stages read only the volume
        volume = regularize_cost_volume(volume, config.box_radius, config.box_passes)
        d_hat, _, valid = soft_argmin(scale_costs(volume, config.cost_scale),
                                      calibration.planes.distances())
    depth = regress_depth_map(d_hat, valid, calibration.intrinsics, calibration.extrinsics,
                              calibration.planes.alpha, origin=origin)
    return depth, volume
