"""Calibration bundles, default rig, and JSON (de)serialization.

Each section of a calibration file holds one dataclass's fields (see
formats.to_record). Angle fields carry a ``_deg`` suffix and are converted to
radians once at load; everything downstream works in radians and meters.

Calibration file schema (JSON)::

    {
      "intrinsics": {"fx", "fy", "cx", "cy", "width", "height"},
      "extrinsics": {"rotation": [[...3x3 row-major...]], "translation": [x, y, z]},
      "sonar": {"range_min", "range_max", "bearing_fov_deg", "elevation_fov_deg",
                "range_bins", "bearing_bins"},
      "planes": {"alpha_deg", "d0", "k", "n"}
    }

Counts (width, height, range_bins, bearing_bins, n) are JSON integers; other
numbers are any JSON number. A string or a boolean in a numeric field, a
fractional count or a ragged matrix raises ConfigError.

A calibration may ask for at most MAX_SWEEP_ENTRIES (pixel, plane) entries,
width * height * n, and MAX_SONAR_BINS sonar bins, range_bins * bearing_bins.
Its translation components are meters, at most SCENE_EXTENT_M (1e6) in
magnitude, the bound every scene coordinate obeys.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .formats import atomic_write, encode_json, from_record, to_record
from .geometry import CameraIntrinsics, PlaneHypothesisSet, RigidTransform, SonarSpec
from .simulator import SCENE_EXTENT_M


# The most work a calibration may ask for, checked before anything is
# allocated. A sweep holds a few tens of bytes per (pixel, plane) entry: the
# 640x480 camera with N = 96 planes asks for 29.5 M entries, under a third of this.
MAX_SWEEP_ENTRIES = 100_000_000
# A sonar bin's 25-channel patch feature goes through float64 buffers of 200
# bytes each: the stock 384x224 sonar has 86,016 bins, a twenty-fourth of this.
MAX_SONAR_BINS = 2_097_152
# The radian fields, written in degrees under "<name>_deg".
ANGLES = ("bearing_fov", "elevation_fov", "alpha")


class ConfigError(ValueError):
    """Malformed or inconsistent configuration/calibration data."""


@dataclass(frozen=True)
class CalibrationBundle:
    """Everything the sweep needs to relate the two sensors."""

    intrinsics: CameraIntrinsics
    extrinsics: RigidTransform
    sonar: SonarSpec
    planes: PlaneHypothesisSet

    def to_dict(self) -> dict:
        return {f.name: to_record(getattr(self, f.name), ANGLES) for f in fields(self)}

    @staticmethod
    def from_dict(data: dict) -> "CalibrationBundle":
        try:
            bundle = CalibrationBundle(**{f.name: from_record(f.type, data[f.name], ANGLES)
                                          for f in fields(CalibrationBundle)})
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"invalid calibration data: {exc}") from exc
        translation = bundle.extrinsics.translation
        if np.max(np.abs(translation)) > SCENE_EXTENT_M:
            raise ConfigError(f"extrinsics.translation {translation.tolist()} has a "
                              f"component above the scene extent of {SCENE_EXTENT_M:g} m")
        entries = bundle.intrinsics.width * bundle.intrinsics.height * bundle.planes.n
        if entries > MAX_SWEEP_ENTRIES:
            raise ConfigError(f"intrinsics.width x intrinsics.height x planes.n = {entries} "
                              f"sweep entries, above the limit of {MAX_SWEEP_ENTRIES}")
        bins = bundle.sonar.range_bins * bundle.sonar.bearing_bins
        if bins > MAX_SONAR_BINS:
            raise ConfigError(f"sonar.range_bins x sonar.bearing_bins = {bins} bins, "
                              f"above the limit of {MAX_SONAR_BINS}")
        return bundle

    def save(self, path) -> None:
        atomic_write(path, encode_json(self.to_dict()))


def camera_rotation(pitch_down: float) -> np.ndarray:
    """Sonar-to-camera rotation for a camera pitched down by ``pitch_down`` radians.

    At zero pitch the camera looks along the acoustic axis: camera X = sonar
    lateral, camera Y = sonar -up, camera Z = sonar forward.
    """
    cp, sp = math.cos(pitch_down), math.sin(pitch_down)
    right = np.array([1.0, 0.0, 0.0])
    forward = np.array([0.0, cp, -sp])
    down = np.cross(forward, right)
    return np.stack([right, down, forward])


def default_rig(width: int = 320, height: int = 240) -> CalibrationBundle:
    """The stock desk-scale rig used by the CLI and the test suite.

    Sonar: 60 x 12 degree FOV, 0.1..5 m range. Camera: 55 degree horizontal
    FOV (inside the sonar's bearing coverage), pitched 15 degrees down,
    mounted 15 cm above the sonar origin. Plane set: alpha 45 degrees (so
    tan(alpha) = 1), d0 = 0.5 m, k = 1.05, N = 48, spanning roughly 0.5 m
    to 5 m.
    """
    fx = (width / 2) / math.tan(math.radians(27.5))
    intrinsics = CameraIntrinsics(
        fx=fx, fy=fx, cx=(width - 1) / 2, cy=(height - 1) / 2,
        width=width, height=height,
    )
    rotation = camera_rotation(math.radians(15.0))
    camera_center = np.array([0.0, 0.0, 0.15])  # 15 cm above the sonar, sonar frame
    extrinsics = RigidTransform(rotation, -rotation @ camera_center)
    sonar = SonarSpec(
        range_min=0.1, range_max=5.0,
        bearing_fov=math.radians(60.0), elevation_fov=math.radians(12.0),
        range_bins=384, bearing_bins=224,
    )
    planes = PlaneHypothesisSet(alpha=math.radians(45.0), d0=0.5, k=1.05, n=48)
    return CalibrationBundle(intrinsics, extrinsics, sonar, planes)
