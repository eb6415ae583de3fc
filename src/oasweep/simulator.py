"""Synthetic opti-acoustic scenes: camera renders, polar sonar scans, ground truth.

Scenes are defined in the sonar frame (X lateral, Y forward, Z up) and are
deliberately simple: a few analytic primitives with scalar reflectance.
The same reflectance drives both modalities so that handcrafted cross-modal
similarity is informative at desk scale; real sonar reflectivity differs
from optical albedo.

Scene file schema (JSON)::

    {"primitives": [
        {"type": "plane",  "point": [x,y,z], "normal": [x,y,z], "reflectance": r},
        {"type": "sphere", "center": [x,y,z], "radius": R, "reflectance": r},
        {"type": "box",    "min": [x,y,z], "max": [x,y,z], "reflectance": r}
    ]}
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import RigidTransform, SonarSpec, spherical_to_cartesian
from .sweep import DepthMap

_EPS = 1e-9

# Spectral transmission rates per Jerlov coastal water type, (red, green, blue).
JERLOV_TRANSMISSION = {
    "1C": (0.75, 0.87, 0.88),
    "3C": (0.71, 0.80, 0.82),
    "5C": (0.67, 0.67, 0.73),
}

# Elevation strata per bearing for the sonar render; doubling this changes
# no bin of the default scene by more than 1%.
DEFAULT_ELEVATION_RAYS = 128


class SceneError(ValueError):
    """Malformed scene description."""


@dataclass(frozen=True)
class PlanePrimitive:
    point: np.ndarray
    normal: np.ndarray
    reflectance: float

    def __post_init__(self):
        object.__setattr__(self, "point", _finite_point(self.point, "plane point"))
        n = _finite_point(self.normal, "plane normal")
        if abs(np.linalg.norm(n) - 1.0) > 1e-9:
            raise SceneError(f"plane normal must be unit length, got |n|={np.linalg.norm(n)}")
        object.__setattr__(self, "normal", n)
        _check_reflectance(self.reflectance)


@dataclass(frozen=True)
class SpherePrimitive:
    center: np.ndarray
    radius: float
    reflectance: float

    def __post_init__(self):
        object.__setattr__(self, "center", _finite_point(self.center, "sphere center"))
        if not 0 < self.radius < np.inf:
            raise SceneError(f"sphere radius must be positive and finite, got {self.radius}")
        _check_reflectance(self.reflectance)


@dataclass(frozen=True)
class BoxPrimitive:
    lo: np.ndarray
    hi: np.ndarray
    reflectance: float

    def __post_init__(self):
        lo = _finite_point(self.lo, "box min")
        hi = _finite_point(self.hi, "box max")
        if not np.all(lo < hi):
            raise SceneError("box min must be strictly below box max on every axis")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        _check_reflectance(self.reflectance)


def _finite_point(value, what: str) -> np.ndarray:
    v = np.asarray(value, dtype=float).reshape(3)
    if not np.all(np.isfinite(v)):
        raise SceneError(f"{what} must be finite, got {v.tolist()}")
    return v


def _check_reflectance(r):
    if not (0.0 <= r <= 1.0):
        raise SceneError(f"reflectance must be in [0, 1], got {r}")


@dataclass(frozen=True)
class Scene:
    """A list of primitives; empty space is background (no hit)."""

    primitives: tuple

    def __post_init__(self):
        object.__setattr__(self, "primitives", tuple(self.primitives))
        if len(self.primitives) == 0:
            raise SceneError("scene needs at least one primitive")

    def to_dict(self) -> dict:
        out = []
        for p in self.primitives:
            if isinstance(p, PlanePrimitive):
                out.append({"type": "plane", "point": p.point.tolist(),
                            "normal": p.normal.tolist(), "reflectance": p.reflectance})
            elif isinstance(p, SpherePrimitive):
                out.append({"type": "sphere", "center": p.center.tolist(),
                            "radius": p.radius, "reflectance": p.reflectance})
            elif isinstance(p, BoxPrimitive):
                out.append({"type": "box", "min": p.lo.tolist(),
                            "max": p.hi.tolist(), "reflectance": p.reflectance})
            else:
                raise SceneError(f"unknown primitive {type(p).__name__}")
        return {"primitives": out}

    @staticmethod
    def from_dict(data: dict) -> "Scene":
        prims = []
        try:
            for entry in data["primitives"]:
                kind = entry["type"]
                if kind == "plane":
                    prims.append(PlanePrimitive(entry["point"], entry["normal"], float(entry["reflectance"])))
                elif kind == "sphere":
                    prims.append(SpherePrimitive(entry["center"], float(entry["radius"]), float(entry["reflectance"])))
                elif kind == "box":
                    prims.append(BoxPrimitive(entry["min"], entry["max"], float(entry["reflectance"])))
                else:
                    raise SceneError(f"unknown primitive type {kind!r}")
        except (KeyError, TypeError) as exc:
            raise SceneError(f"invalid scene data: {exc}") from exc
        return Scene(tuple(prims))

    @staticmethod
    def load(path) -> "Scene":
        path = Path(path)
        if not path.exists():
            raise SceneError(f"scene file not found: {path}")
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise SceneError(f"scene file {path} is not valid JSON: {exc}") from exc
        return Scene.from_dict(data)


@dataclass(frozen=True)
class PolarSonarImage:
    """Range-bin x bearing-bin intensity grid in [0, 1] plus its geometry."""

    values: np.ndarray
    spec: SonarSpec

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.spec.range_bins, self.spec.bearing_bins):
            raise ValueError(
                f"image shape {v.shape} does not match spec bins "
                f"({self.spec.range_bins}, {self.spec.bearing_bins})"
            )
        if not np.all(np.isfinite(v)) or v.min() < 0 or v.max() > 1:
            raise ValueError("sonar intensities must be finite and in [0, 1]")
        object.__setattr__(self, "values", v)


def intersect_rays(origin: np.ndarray, dirs: np.ndarray, scene: Scene):
    """Nearest ray-primitive intersections.

    Args:
        origin: Common ray origin, shape (3,).
        dirs: Unit ray directions, shape (..., 3).

    Returns:
        (t, normals, reflectance, hit): distance along the ray (inf on miss),
        outward surface normals, per-hit reflectance, and the hit mask.
    """
    dirs = np.asarray(dirs, dtype=float)
    shape = dirs.shape[:-1]
    best_t = np.full(shape, np.inf)
    normals = np.zeros(shape + (3,))
    refl = np.zeros(shape)

    for prim in scene.primitives:
        if isinstance(prim, PlanePrimitive):
            t, n = _plane_hit(origin, dirs, prim)
        elif isinstance(prim, SpherePrimitive):
            t, n = _sphere_hit(origin, dirs, prim)
        else:
            t, n = _box_hit(origin, dirs, prim)
        closer = t < best_t
        best_t = np.where(closer, t, best_t)
        normals = np.where(closer[..., None], n, normals)
        refl = np.where(closer, prim.reflectance, refl)

    hit = np.isfinite(best_t)
    return best_t, normals, refl, hit


def _plane_hit(origin, dirs, prim: PlanePrimitive):
    denom = dirs @ prim.normal
    with np.errstate(divide="ignore", invalid="ignore"):
        t = ((prim.point - origin) @ prim.normal) / denom
    t = np.where((np.abs(denom) > _EPS) & (t > _EPS), t, np.inf)
    n = np.broadcast_to(prim.normal, dirs.shape)
    return t, n


def _sphere_hit(origin, dirs, prim: SpherePrimitive):
    oc = origin - prim.center
    b = dirs @ oc
    c = oc @ oc - prim.radius**2
    disc = b * b - c
    sqrt_disc = np.sqrt(np.maximum(disc, 0.0))
    t_near = -b - sqrt_disc
    t_far = -b + sqrt_disc
    t = np.where(t_near > _EPS, t_near, t_far)
    t = np.where((disc > 0) & (t > _EPS), t, np.inf)
    safe_t = np.where(np.isfinite(t), t, 0.0)  # inf * dir would emit NaN warnings
    points = origin + safe_t[..., None] * dirs
    n = (points - prim.center) / prim.radius
    return t, n


def _box_hit(origin, dirs, prim: BoxPrimitive):
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / dirs
    t_lo = (prim.lo - origin) * inv
    t_hi = (prim.hi - origin) * inv
    t_small = np.minimum(t_lo, t_hi)
    t_big = np.maximum(t_lo, t_hi)
    t_near = np.max(t_small, axis=-1)
    t_far = np.min(t_big, axis=-1)
    hit = (t_near <= t_far) & (t_far > _EPS)
    t = np.where(t_near > _EPS, t_near, t_far)
    t = np.where(hit & (t > _EPS), t, np.inf)
    # Face normal: axis where the entry slab was tightest, signed by ray direction.
    axis = np.argmax(t_small, axis=-1)
    n = np.zeros(dirs.shape)
    idx = np.indices(axis.shape)
    n[(*idx, axis)] = -np.sign(dirs[(*idx, axis)])
    return t, n


def render_camera(scene: Scene, intrinsics, pose: RigidTransform):
    """Ray-cast the scene into a grayscale image plus ground-truth depth.

    Shading is headlight Lambert: reflectance times the cosine of the angle
    between the surface normal and the reversed ray. Depth is the Euclidean
    distance from the camera center (the same quantity the sweep regresses),
    with misses masked rather than zeroed.

    Args:
        scene: Scene in the sonar frame.
        intrinsics: Camera model.
        pose: Sonar-to-camera transform (same object as the calibration
            extrinsics).

    Returns:
        (image, depth): float image (H, W) in [0, 1] and a DepthMap.
    """
    h, w = intrinsics.height, intrinsics.width
    vs, us = np.meshgrid(np.arange(h, dtype=float), np.arange(w, dtype=float), indexing="ij")
    rays_cam = intrinsics.ray_directions(us, vs)
    dirs = rays_cam @ pose.rotation  # rows: R^T @ ray
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    center = -pose.rotation.T @ pose.translation

    t, normals, refl, hit = intersect_rays(center, dirs, scene)

    cos = np.einsum("...k,...k->...", normals, -dirs)
    image = np.where(hit, refl * np.maximum(np.abs(cos), 0.0), 0.0)
    depth = np.where(hit, t, 0.0)
    return image, DepthMap(depth=depth, valid=hit)


def render_sonar_energy(scene: Scene, spec: SonarSpec,
                        elevation_rays: int = DEFAULT_ELEVATION_RAYS) -> np.ndarray:
    """Raw (unnormalized) deposited sonar energy per (range, bearing) bin.

    The scene is expressed in the sonar frame, so every ray starts at the
    origin.

    For every bearing bin, ``elevation_rays`` stratified rays fan across the
    vertical aperture; each hit deposits its primitive's reflectance into the
    range bin of its slant range. Deposits accumulate in fixed elevation
    order so the output is bit-identical regardless of the caller's
    parallelism.
    """
    bearings = spec.bearing_bin_centers()
    half = spec.elevation_fov / 2
    elevations = -half + (np.arange(elevation_rays) + 0.5) * (spec.elevation_fov / elevation_rays)

    bins = np.zeros((spec.range_bins, spec.bearing_bins))
    for phi in elevations:
        dirs = spherical_to_cartesian(1.0, bearings, phi)
        t, _, refl, hit = intersect_rays(np.zeros(3), dirs, scene)
        in_range = hit & (t >= spec.range_min) & (t <= spec.range_max)
        _deposit_range_energy(bins, t[in_range], refl[in_range],
                              np.nonzero(in_range)[0], spec)
    return bins


def _deposit_range_energy(bins, slant, weight, bearing_idx, spec: SonarSpec) -> None:
    """Split each deposit linearly between the two nearest range-bin centers.

    Preserves total energy exactly (the two shares sum to the weight) while
    converging much faster in the elevation stratification count than
    nearest-bin binning.
    """
    rc = np.clip((slant - spec.range_min) / spec.range_bin_size - 0.5,
                 0.0, spec.range_bins - 1.0)
    r0 = np.floor(rc).astype(int)
    r1 = np.minimum(r0 + 1, spec.range_bins - 1)
    frac = rc - r0
    np.add.at(bins, (r0, bearing_idx), weight * (1.0 - frac))
    np.add.at(bins, (r1, bearing_idx), weight * frac)


def render_sonar(scene: Scene, spec: SonarSpec,
                 elevation_rays: int = DEFAULT_ELEVATION_RAYS) -> PolarSonarImage:
    """Render the polar sonar scan of a scene, normalized to [0, 1].

    Deposited energy (see :func:`render_sonar_energy`) is divided by the
    image maximum; an all-zero scan stays zero.

    Args:
        scene: Scene geometry, in the sonar frame.
        spec: Sonar geometry and bin counts.
        elevation_rays: Vertical stratification count.
    """
    bins = render_sonar_energy(scene, spec, elevation_rays)
    peak = bins.max()
    if peak > 0:
        bins = bins / peak
    return PolarSonarImage(values=bins, spec=spec)


def add_sonar_noise(image: PolarSonarImage, speckle_sigma: float, background: float,
                    seed: int) -> PolarSonarImage:
    """Multiplicative speckle plus an additive background level, clamped to [0, 1].

    Deterministic for a fixed seed. speckle_sigma = 0 and background = 0 is
    the identity.
    """
    if not 0 <= speckle_sigma < np.inf:
        raise ValueError(f"speckle sigma must be >= 0 and finite, got {speckle_sigma}")
    values = image.values
    if speckle_sigma > 0:
        rng = np.random.default_rng(seed)
        values = values * (1.0 + speckle_sigma * rng.standard_normal(values.shape))
        values = np.maximum(values, 0.0)  # speckle cannot flip intensity negative
    values = np.clip(values + background, 0.0, 1.0)
    return PolarSonarImage(values=values, spec=image.spec)


def apply_turbidity(image: np.ndarray, transmission, ambient, distance) -> np.ndarray:
    """Attenuate a clear image through turbid water.

    Implements the image formation model I = J * T^d + (1 - T^d) * B per
    channel: the direct signal decays exponentially with path length while
    ambient backscatter fills in.

    Args:
        image: Clear image J, (H, W) or (H, W, 3), values in [0, 1].
        transmission: Per-channel transmission rate(s) T in (0, 1]; scalar
            or length-3.
        ambient: Ambient background light B in [0, 1]; scalar or length-3.
        distance: Path length d in meters; a scalar (the standard mode) or a
            per-pixel (H, W) map.

    Returns:
        Turbid image, same shape as the input.
    """
    image = np.asarray(image, dtype=float)
    t1 = np.asarray(transmission, dtype=float)
    b = np.asarray(ambient, dtype=float)
    d = np.asarray(distance, dtype=float)
    if not np.all((t1 > 0) & (t1 <= 1)):
        raise ValueError(f"transmission must be in (0, 1], got {transmission}")
    if not np.all((b >= 0) & (b <= 1)):
        raise ValueError(f"ambient light must be in [0, 1], got {ambient}")
    if not np.all((d >= 0) & (d < np.inf)):
        raise ValueError("distance must be >= 0 and finite")

    if image.ndim == 3 and t1.ndim == 1:
        t1 = t1.reshape(1, 1, -1)
        b = np.broadcast_to(np.asarray(ambient, dtype=float).reshape(1, 1, -1), (1, 1, t1.shape[-1]))
    if d.ndim == 2 and image.ndim == 3:
        d = d[:, :, None]
    decay = t1**d
    return image * decay + (1.0 - decay) * b


def default_scene() -> Scene:
    """Stock verification scene: an inclined wall plus a sphere in front of it.

    The wall is vertical and yawed 25 degrees, so its range varies across
    bearing (structure for the sweep to lock onto) while staying compact in
    range at each bearing. The sphere is centered on the sonar's vertical
    beam so both its own echoes and its acoustic shadow are clean.
    """
    wall_normal = np.array([-np.sin(np.radians(25.0)), -np.cos(np.radians(25.0)), 0.0])
    wall_normal /= np.linalg.norm(wall_normal)
    return Scene(
        primitives=(
            PlanePrimitive(point=[0.0, 2.6, 0.0], normal=wall_normal, reflectance=0.85),
            SpherePrimitive(center=[-0.4, 1.65, 0.0], radius=0.32, reflectance=0.45),
        )
    )
