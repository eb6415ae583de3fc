import pytest

from oasweep.config import CalibrationBundle, ConfigError, default_rig

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
