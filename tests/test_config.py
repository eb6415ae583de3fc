import math

import pytest

from oasweep.config import (
    MAX_SONAR_BINS,
    MAX_SWEEP_ENTRIES,
    CalibrationBundle,
    ConfigError,
    default_rig,
)
from oasweep.simulator import SCENE_EXTENT_M

NAN, INF = float("nan"), float("inf")


class TestCalibrationFromDict:
    @pytest.mark.parametrize("section, key, value", [
        ("intrinsics", "fx", INF),
        ("intrinsics", "fy", NAN),
        ("intrinsics", "cx", NAN),
        ("extrinsics", "translation", [NAN, 0.0, 0.0]),
        ("extrinsics", "translation", [0.0, INF, 0.0]),
        ("extrinsics", "rotation", [[1.0, 0.0, 0.0], [0.0, NAN, 0.0], [0.0, 0.0, 1.0]]),
        ("sonar", "range_max", INF),
        ("sonar", "range_min", NAN),
        ("sonar", "bearing_fov_deg", NAN),
        ("planes", "alpha_deg", NAN),
        ("planes", "d0", INF),
        ("planes", "d0", NAN),
        ("planes", "k", INF),
        ("planes", "k", NAN),
    ])
    def test_non_finite_values_rejected(self, section, key, value):
        data = default_rig().to_dict()
        data[section][key] = value
        with pytest.raises(ConfigError):
            CalibrationBundle.from_dict(data)

    def test_overflowing_plane_distances_rejected(self):
        # Finite d0 and k whose last distance d0 * k**(n-1) overflows to inf.
        data = default_rig().to_dict()
        data["planes"]["k"] = 1e10
        with pytest.raises(ConfigError):
            CalibrationBundle.from_dict(data)

    @pytest.mark.parametrize("extra", [0, 1], ids=["at-limit", "past-limit"])
    def test_sweep_entries_bounded(self, extra):
        # A 1-row camera with 2 planes: width * 1 * 2 entries, no sweep run.
        data = default_rig(MAX_SWEEP_ENTRIES // 2 + extra, 1).to_dict()
        data["planes"]["n"] = 2
        if extra:
            with pytest.raises(ConfigError, match=r"intrinsics\.width x intrinsics\.height x "
                                                  r"planes\.n = 100000002 sweep entries"):
                CalibrationBundle.from_dict(data)
        else:
            assert CalibrationBundle.from_dict(data).intrinsics.width == MAX_SWEEP_ENTRIES // 2

    @pytest.mark.parametrize("extra", [0, 1], ids=["at-limit", "past-limit"])
    def test_sonar_bins_bounded(self, extra):
        data = default_rig().to_dict()
        data["sonar"]["bearing_bins"] = 1024
        data["sonar"]["range_bins"] = MAX_SONAR_BINS // 1024 + extra
        if extra:
            with pytest.raises(ConfigError, match=r"sonar\.range_bins x sonar\.bearing_bins"):
                CalibrationBundle.from_dict(data)
        else:
            assert CalibrationBundle.from_dict(data).sonar.range_bins * 1024 == MAX_SONAR_BINS

    @pytest.mark.parametrize("component", [
        SCENE_EXTENT_M, -SCENE_EXTENT_M, math.nextafter(SCENE_EXTENT_M, INF),
        -math.nextafter(SCENE_EXTENT_M, INF), 3.9e38,
    ], ids=["at-limit", "at-negative-limit", "past-limit", "past-negative-limit",
            "near-float32-max"])
    def test_translation_bounded_by_scene_extent(self, component):
        data = default_rig().to_dict()
        data["extrinsics"]["translation"] = [0.0, component, 0.0]
        if abs(component) > SCENE_EXTENT_M:
            with pytest.raises(ConfigError, match=r"extrinsics\.translation"):
                CalibrationBundle.from_dict(data)
        else:
            assert CalibrationBundle.from_dict(data).extrinsics.translation[1] == component

    def test_large_rig_within_limits(self):
        data = default_rig(640, 480).to_dict()
        data["planes"]["n"] = 96
        CalibrationBundle.from_dict(data)
