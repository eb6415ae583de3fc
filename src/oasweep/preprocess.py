"""Sonar scan cleanup and camera preparation ahead of the sweep.

Sonar path, in order: average object-free frames into a background model,
median-denoise both the model and each target frame, then subtract the
denoised background (clamped at zero). The median filter is a deterministic
stand-in for a learned denoiser.

Camera path: crop to the sonar's field of view, convert to grayscale, and
histogram-equalize over the crop.
"""

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .geometry import CameraIntrinsics, RigidTransform, SonarSpec, spherical_to_cartesian
from .simulator import PolarSonarImage

# ITU-R BT.601 luma weights; fixed so golden tests are bit-exact.
LUMA_WEIGHTS = (0.299, 0.587, 0.114)


class SensorOverlapError(ValueError):
    """The sonar frustum does not project into the camera image."""


@dataclass(frozen=True)
class CropWindow:
    """Axis-aligned camera crop; u0/v0 are the top-left pixel."""

    u0: int
    v0: int
    width: int
    height: int

    def to_dict(self) -> dict:
        return {"u0": self.u0, "v0": self.v0, "w": self.width, "h": self.height}

    def slice(self) -> tuple:
        return slice(self.v0, self.v0 + self.height), slice(self.u0, self.u0 + self.width)


def average_background(frames) -> PolarSonarImage:
    """Per-bin arithmetic mean of object-free polar scans, all of one sonar spec."""
    frames = list(frames)
    if not frames:
        raise ValueError("need at least one background frame")
    spec = frames[0].spec
    for f in frames[1:]:
        if f.spec != spec:
            raise ValueError(f"background frame {f.spec} does not match the first's {spec}")
    mean = np.mean([f.values for f in frames], axis=0)
    return PolarSonarImage(values=mean, spec=spec)


def denoise(image: PolarSonarImage, radius: int) -> PolarSonarImage:
    """Median filter over a (2r+1)^2 window with edge clamping; radius 0 is identity."""
    if radius == 0:
        return image
    filtered = ndimage.median_filter(image.values, size=2 * radius + 1, mode="nearest")
    return PolarSonarImage(values=filtered, spec=image.spec)


def subtract_background(frame: PolarSonarImage, background: PolarSonarImage) -> PolarSonarImage:
    """Remove the static background, which must share the frame's sonar spec; negative
    residuals clamp to zero."""
    if frame.spec != background.spec:
        raise ValueError(f"frame {frame.spec} does not match the background's {background.spec}")
    return PolarSonarImage(values=np.maximum(frame.values - background.values, 0.0), spec=frame.spec)


def preprocess_sonar_frames(frames, background_frames, radius: int = 1):
    """The full sonar cleanup: model, denoise both sides, subtract."""
    clean_background = denoise(average_background(background_frames), radius)
    return [subtract_background(denoise(f, radius), clean_background) for f in frames]


def to_grayscale(image: np.ndarray) -> np.ndarray:
    """Float grayscale in [0, 1] from uint8/float, single- or three-channel input."""
    image = np.asarray(image)
    if image.dtype == np.uint8:
        image = image.astype(np.float64) / 255.0
    else:
        image = image.astype(np.float64)
    if image.ndim == 2:
        return image
    if image.ndim == 3 and image.shape[2] == 3:
        return image @ np.asarray(LUMA_WEIGHTS)
    raise ValueError(f"expected (H, W) or (H, W, 3) image, got shape {image.shape}")


def equalize_histogram(gray_uint8: np.ndarray) -> np.ndarray:
    """256-bin histogram equalization with the floor(255 * cdf) transfer function.

    A single-level image maps to its CDF value (255). Applying the transfer
    twice equals applying it once up to 8-bit rounding.
    """
    gray_uint8 = np.asarray(gray_uint8)
    if gray_uint8.dtype != np.uint8:
        raise ValueError("equalization operates on uint8 images")
    hist = np.bincount(gray_uint8.reshape(-1), minlength=256)
    cdf = np.cumsum(hist) / gray_uint8.size
    lut = np.floor(255.0 * cdf).astype(np.uint8)
    return lut[gray_uint8]


def sonar_frustum_crop(intrinsics: CameraIntrinsics, spec: SonarSpec,
                       extrinsics: RigidTransform) -> CropWindow:
    """Camera crop window covering the sonar frustum's image-plane projection.

    Samples the frustum volume on a 15 x 31 x 15 (range x bearing x elevation)
    grid, projects the points that land in front of the camera, and intersects
    the axis-aligned bounding box with the image.

    Raises:
        SensorOverlapError: The projection misses the image entirely.
    """
    r = np.linspace(spec.range_min, spec.range_max, 15)
    th = np.linspace(-spec.bearing_fov / 2, spec.bearing_fov / 2, 31)
    ph = np.linspace(-spec.elevation_fov / 2, spec.elevation_fov / 2, 15)
    rr, tt, pp = np.meshgrid(r, th, ph, indexing="ij")
    points = spherical_to_cartesian(rr, tt, pp).reshape(-1, 3)
    cam = extrinsics.apply(points)
    front = cam[:, 2] > 1e-9
    if not front.any():
        raise SensorOverlapError("sonar frustum lies entirely behind the camera")
    proj = intrinsics.project(cam[front])
    u0 = max(int(np.floor(proj[:, 0].min())), 0)
    v0 = max(int(np.floor(proj[:, 1].min())), 0)
    u1 = min(int(np.ceil(proj[:, 0].max())) + 1, intrinsics.width)
    v1 = min(int(np.ceil(proj[:, 1].max())) + 1, intrinsics.height)
    if u1 <= u0 or v1 <= v0:
        raise SensorOverlapError("sonar frustum projects outside the camera image")
    return CropWindow(u0=u0, v0=v0, width=u1 - u0, height=v1 - v0)


def prepare_camera(image: np.ndarray, intrinsics: CameraIntrinsics, spec: SonarSpec,
                   extrinsics: RigidTransform):
    """Crop to the shared field of view, convert to grayscale, equalize.

    Args:
        image: Camera image, uint8 or float, gray or 3-channel.

    Returns:
        (prepared, window): equalized uint8 crop and its CropWindow.
    """
    gray = to_grayscale(image)
    if gray.shape != (intrinsics.height, intrinsics.width):
        raise ValueError(
            f"image shape {gray.shape} does not match intrinsics "
            f"({intrinsics.height}, {intrinsics.width})"
        )
    window = sonar_frustum_crop(intrinsics, spec, extrinsics)
    crop = gray[window.slice()]
    quantized = (np.clip(crop, 0.0, 1.0) * 255.0).round().astype(np.uint8)
    return equalize_histogram(quantized), window
