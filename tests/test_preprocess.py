import dataclasses
import json

import numpy as np
import pytest

from oasweep.formats import encode_json
from oasweep.preprocess import (
    CropWindow,
    SensorOverlapError,
    average_background,
    denoise,
    equalize_histogram,
    prepare_camera,
    preprocess_sonar_frames,
    sonar_frustum_crop,
    subtract_background,
    to_grayscale,
)
from oasweep.simulator import PolarSonarImage, add_sonar_noise, default_scene, render_sonar


def make_frame(spec, values):
    return PolarSonarImage(values=values, spec=spec)


def wide_sonar(rig):
    """The rig's sonar with the same bins over a 90 degree bearing aperture."""
    spec = dataclasses.replace(rig.sonar, bearing_fov=np.deg2rad(90.0))
    assert spec.bearing_fov != rig.sonar.bearing_fov
    return spec


class TestAverageBackground:
    def test_identical_frames(self, rig, rng):
        v = rng.random((rig.sonar.range_bins, rig.sonar.bearing_bins))
        model = average_background([make_frame(rig.sonar, v)] * 4)
        np.testing.assert_array_equal(model.values, v)

    def test_two_level_midpoint(self, rig):
        shape = (rig.sonar.range_bins, rig.sonar.bearing_bins)
        a = make_frame(rig.sonar, np.zeros(shape))
        b = make_frame(rig.sonar, np.ones(shape))
        model = average_background([a, b])
        np.testing.assert_array_equal(model.values, np.full(shape, 0.5))

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            average_background([])

    def test_frame_of_another_sonar_refused(self, rig):
        # Same bins, wider aperture: each bin would be averaged with one at another bearing.
        shape = (rig.sonar.range_bins, rig.sonar.bearing_bins)
        other = make_frame(wide_sonar(rig), np.zeros(shape))
        with pytest.raises(ValueError, match="does not match the first's"):
            average_background([make_frame(rig.sonar, np.zeros(shape)), other])
        with pytest.raises(ValueError, match="does not match the first's"):
            preprocess_sonar_frames([make_frame(rig.sonar, np.zeros(shape))],
                                    [other, make_frame(rig.sonar, np.zeros(shape))])

    def test_noise_reduction_scales_with_frame_count(self, rig):
        # Monte Carlo: averaging M i.i.d.-noise frames shrinks the per-bin
        # noise standard deviation like 1/sqrt(M), checked in a 3-sigma band.
        spec = rig.sonar
        shape = (spec.range_bins, spec.bearing_bins)
        base = make_frame(spec, np.full(shape, 0.5))
        m = 16
        frames = [add_sonar_noise(base, speckle_sigma=0.2, background=0.0, seed=100 + i)
                  for i in range(m)]
        model = average_background(frames)
        residual = model.values - 0.5
        n_bins = residual.size
        sigma_single = 0.5 * 0.2  # multiplicative sigma on a 0.5 signal
        expected = sigma_single / np.sqrt(m)
        observed = residual.std()
        # std-of-std over n bins ~ expected / sqrt(2 n)
        band = 3 * expected / np.sqrt(2 * n_bins)
        assert abs(observed - expected) < band


class TestDenoise:
    def test_radius_zero_identity(self, rig, rng):
        frame = make_frame(rig.sonar, rng.random((rig.sonar.range_bins, rig.sonar.bearing_bins)))
        assert denoise(frame, 0) is frame

    def test_impulse_removed(self, rig):
        shape = (rig.sonar.range_bins, rig.sonar.bearing_bins)
        values = np.zeros(shape)
        values[50, 40] = 1.0
        out = denoise(make_frame(rig.sonar, values), 1)
        assert out.values[50, 40] == 0.0
        assert out.values.sum() == 0.0

    def test_constant_fixed_point(self, rig):
        shape = (rig.sonar.range_bins, rig.sonar.bearing_bins)
        out = denoise(make_frame(rig.sonar, np.full(shape, 0.42)), 2)
        np.testing.assert_array_equal(out.values, np.full(shape, 0.42))


class TestSubtractBackground:
    def test_self_subtraction_zero(self, rig, rng):
        frame = make_frame(rig.sonar, rng.random((rig.sonar.range_bins, rig.sonar.bearing_bins)))
        out = subtract_background(frame, frame)
        np.testing.assert_array_equal(out.values, 0.0)

    def test_zero_background_identity(self, rig, rng):
        shape = (rig.sonar.range_bins, rig.sonar.bearing_bins)
        frame = make_frame(rig.sonar, rng.random(shape))
        out = subtract_background(frame, make_frame(rig.sonar, np.zeros(shape)))
        np.testing.assert_array_equal(out.values, frame.values)

    def test_clamped_non_negative(self, rig, rng):
        shape = (rig.sonar.range_bins, rig.sonar.bearing_bins)
        frame = make_frame(rig.sonar, rng.random(shape))
        bg = make_frame(rig.sonar, rng.random(shape))
        out = subtract_background(frame, bg)
        assert out.values.min() >= 0.0

    def test_background_of_another_sonar_refused(self, rig):
        # Same bins, wider aperture: each background bin would be subtracted
        # from a frame bin at another bearing.
        shape = (rig.sonar.range_bins, rig.sonar.bearing_bins)
        frame = make_frame(rig.sonar, np.full(shape, 0.5))
        other = make_frame(wide_sonar(rig), np.full(shape, 0.2))
        for a, b in ((frame, other), (other, frame)):
            with pytest.raises(ValueError, match="does not match the background's"):
                subtract_background(a, b)

    def test_accepts_background_model(self, rig):
        shape = (rig.sonar.range_bins, rig.sonar.bearing_bins)
        frame = make_frame(rig.sonar, np.full(shape, 0.6))
        model = average_background([make_frame(rig.sonar, np.full(shape, 0.2))] * 3)
        out = subtract_background(frame, model)
        np.testing.assert_allclose(out.values, 0.4)

    def test_composite_recovers_object(self, rig):
        # Object + known speckled background; the pipeline isolates the
        # (median-filtered) object to within the speckle floor. The oracle
        # is the denoised object: a 3x3 median legitimately thins bands
        # narrower than its window.
        spec = rig.sonar
        object_img = render_sonar(default_scene(), spec)
        level = make_frame(spec, np.full_like(object_img.values, 0.06))
        backgrounds = [add_sonar_noise(level, speckle_sigma=0.4, background=0.0, seed=i)
                       for i in range(8)]
        composite = make_frame(
            spec, np.clip(object_img.values + backgrounds[0].values, 0.0, 1.0))
        recovered = preprocess_sonar_frames([composite], backgrounds, radius=1)[0]
        expected = denoise(object_img, 1)
        assert np.abs(recovered.values - expected.values).mean() < 0.01
        # Residual speckle after median + subtraction stays near the
        # background level (0.06 with sigma 0.4 excursions).
        empty = expected.values == 0.0
        assert recovered.values[empty].max() <= 0.08


class TestGrayscale:
    def test_bt601_weights(self):
        rgb = np.zeros((1, 3, 3))
        rgb[0, 0] = [1.0, 0.0, 0.0]
        rgb[0, 1] = [0.0, 1.0, 0.0]
        rgb[0, 2] = [0.0, 0.0, 1.0]
        gray = to_grayscale(rgb)
        np.testing.assert_allclose(gray[0], [0.299, 0.587, 0.114], atol=1e-12)

    def test_uint8_scaled(self):
        gray = to_grayscale(np.array([[255, 0]], dtype=np.uint8))
        np.testing.assert_allclose(gray, [[1.0, 0.0]])


class TestEqualizeHistogram:
    def test_two_level_image(self):
        # 25% at one level, 75% at another: floor(255 * cdf) puts them at 63
        # and 255.
        img = np.full((4, 4), 200, dtype=np.uint8)
        img[0, :] = 10  # 4 of 16 pixels = 25%
        out = equalize_histogram(img)
        assert set(np.unique(out)) == {63, 255}
        assert out[0, 0] == 63

    def test_uniform_image_maps_to_cdf_value(self):
        out = equalize_histogram(np.full((5, 5), 77, dtype=np.uint8))
        np.testing.assert_array_equal(out, np.full((5, 5), 255, dtype=np.uint8))

    def test_idempotent_after_first_pass(self, rng):
        img = rng.integers(0, 256, size=(32, 32), dtype=np.uint8)
        once = equalize_histogram(img)
        twice = equalize_histogram(once)
        # Exact on an already-equalized histogram up to 8-bit rounding.
        assert np.abs(twice.astype(int) - once.astype(int)).max() <= 1

    def test_rejects_non_uint8(self):
        with pytest.raises(ValueError):
            equalize_histogram(np.zeros((3, 3)))


class TestPrepareCamera:
    def test_crop_within_image_and_band_like(self, rig, rng):
        img = rng.random((rig.intrinsics.height, rig.intrinsics.width))
        prepared, window = prepare_camera(img, rig.intrinsics, rig.sonar, rig.extrinsics)
        assert prepared.dtype == np.uint8
        assert prepared.shape == (window.height, window.width)
        assert 0 <= window.u0 and window.u0 + window.width <= rig.intrinsics.width
        assert 0 <= window.v0 and window.v0 + window.height <= rig.intrinsics.height

    def test_gray_uniform_maps_to_constant(self, rig):
        img = np.full((rig.intrinsics.height, rig.intrinsics.width), 0.5)
        prepared, _ = prepare_camera(img, rig.intrinsics, rig.sonar, rig.extrinsics)
        assert np.unique(prepared).size == 1

    def test_color_input_accepted(self, rig, rng):
        img = rng.random((rig.intrinsics.height, rig.intrinsics.width, 3))
        prepared, _ = prepare_camera(img, rig.intrinsics, rig.sonar, rig.extrinsics)
        assert prepared.ndim == 2

    def test_no_overlap_raises(self, rig):
        # Camera turned fully away from the sonar volume.
        from oasweep.config import camera_rotation
        from oasweep.geometry import RigidTransform

        backwards = camera_rotation(np.pi)  # pitched 180 degrees
        extr = RigidTransform(backwards, np.zeros(3))
        with pytest.raises(SensorOverlapError):
            sonar_frustum_crop(rig.intrinsics, rig.sonar, extr)

    def test_window_round_trip(self):
        w = CropWindow(u0=3, v0=7, width=20, height=10)
        data = json.loads(encode_json(w.to_dict()))
        assert CropWindow(u0=data["u0"], v0=data["v0"], width=data["w"], height=data["h"]) == w
