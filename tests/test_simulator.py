import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oasweep.formats import encode_json
from oasweep.simulator import (
    JERLOV_TRANSMISSION,
    BoxPrimitive,
    PlanePrimitive,
    PolarSonarImage,
    Scene,
    SCENE_EXTENT_M,
    SceneError,
    SpherePrimitive,
    _deposit_range_energy,
    add_sonar_noise,
    apply_turbidity,
    default_scene,
    intersect_rays,
    render_camera,
    render_sonar,
    render_sonar_energy,
)

from conftest import (hypothesis_plane_primitive, identity_transform, plane_normal, plane_residual,
                      sonar_polar)


def frontal_plane(distance: float, reflectance: float = 0.8) -> PlanePrimitive:
    """Plane perpendicular to the acoustic axis at the given forward distance."""
    return PlanePrimitive(point=[0.0, distance, 0.0], normal=[0.0, -1.0, 0.0],
                          reflectance=reflectance)


class TestScene:
    def test_needs_primitives(self):
        with pytest.raises(SceneError):
            Scene(primitives=())

    def test_rejects_bad_reflectance(self):
        with pytest.raises(SceneError):
            SpherePrimitive(center=[0, 2, 0], radius=0.3, reflectance=1.5)

    def test_rejects_non_unit_normal(self):
        with pytest.raises(SceneError):
            PlanePrimitive(point=[0, 2, 0], normal=[0, -2, 0], reflectance=0.5)

    @pytest.mark.parametrize("make", [
        lambda: SpherePrimitive(center=[0, 2, 0], radius=np.nan, reflectance=0.5),
        lambda: SpherePrimitive(center=[0, 2, 0], radius=np.inf, reflectance=0.5),
        lambda: SpherePrimitive(center=[np.nan, 2, 0], radius=0.3, reflectance=0.5),
        lambda: PlanePrimitive(point=[np.nan, 2, 0], normal=[0, -1, 0], reflectance=0.5),
        lambda: PlanePrimitive(point=[0, 2, 0], normal=[np.nan, -1, 0], reflectance=0.5),
        lambda: BoxPrimitive(min=[-np.inf, 0, 0], max=[1, 1, 1], reflectance=0.5),
    ])
    def test_rejects_non_finite_geometry(self, make):
        with pytest.raises(SceneError):
            make()

    @pytest.mark.parametrize("scale", [1.0, -1.0])
    def test_geometry_bounded_by_scene_extent(self, scale):
        far = scale * SCENE_EXTENT_M
        past = np.nextafter(far, 2 * far)
        SpherePrimitive(center=[far, 2, 0], radius=SCENE_EXTENT_M, reflectance=0.5)
        PlanePrimitive(point=[0, far, 0], normal=[0, -1, 0], reflectance=0.5)
        BoxPrimitive(min=[-SCENE_EXTENT_M] * 3, max=[SCENE_EXTENT_M] * 3, reflectance=0.5)
        for make in (lambda: SpherePrimitive(center=[past, 2, 0], radius=0.3, reflectance=0.5),
                     lambda: SpherePrimitive(center=[0, 2, 0], radius=abs(past), reflectance=0.5),
                     lambda: PlanePrimitive(point=[0, past, 0], normal=[0, -1, 0],
                                            reflectance=0.5),
                     lambda: BoxPrimitive(min=[past, 0, 0], max=[2 * far, 1, 1], reflectance=0.5)):
            with pytest.raises(SceneError, match="1e\\+06"):
                make()

    def test_json_round_trip(self):
        scene = Scene(primitives=(
            frontal_plane(2.5),
            SpherePrimitive(center=[0.1, 1.5, -0.1], radius=0.25, reflectance=0.4),
            BoxPrimitive(min=[-1, 1, -1], max=[1, 2, 1], reflectance=0.6),
        ))
        encoded = encode_json(scene.to_dict())
        loaded = Scene.from_dict(json.loads(encoded))
        assert [type(p) for p in loaded.primitives] == [PlanePrimitive, SpherePrimitive,
                                                        BoxPrimitive]
        assert encode_json(loaded.to_dict()) == encoded
        # The file's keys are the schema's: "type" plus the dataclass fields.
        assert [sorted(p) for p in json.loads(encoded)["primitives"]] == [
            ["normal", "point", "reflectance", "type"], ["center", "radius", "reflectance", "type"],
            ["max", "min", "reflectance", "type"]]
        default = encode_json(default_scene().to_dict())
        assert encode_json(Scene.from_dict(json.loads(default)).to_dict()) == default
        np.testing.assert_allclose(loaded.primitives[0].point, [0, 2.5, 0])
        np.testing.assert_array_equal(loaded.primitives[2].max, [1, 2, 1])
        assert loaded.primitives[2].reflectance == 0.6


class TestRenderCamera:
    def test_frontal_plane_axis_depth(self):
        # Identity pose and an integer principal point: pixel (cy, cx) rides
        # the optical axis exactly, so a plane two meters out is depth 2.0.
        from oasweep.geometry import CameraIntrinsics

        intr = CameraIntrinsics(fx=100.0, fy=100.0, cx=32.0, cy=24.0, width=64, height=48)
        scene = Scene(primitives=(
            PlanePrimitive(point=[0, 0, 2.0], normal=[0, 0, -1.0], reflectance=0.9),
        ))
        image, depth = render_camera(scene, intr, identity_transform())
        assert depth.valid.all()
        assert depth.depth[24, 32] == pytest.approx(2.0, abs=1e-12)
        assert image[24, 32] == pytest.approx(0.9, abs=1e-9)

    def test_sphere_on_axis(self):
        from oasweep.geometry import CameraIntrinsics

        intr = CameraIntrinsics(fx=100.0, fy=100.0, cx=32.0, cy=24.0, width=64, height=48)
        scene = Scene(primitives=(
            SpherePrimitive(center=[0, 0, 3.0], radius=0.5, reflectance=1.0),
        ))
        _, depth = render_camera(scene, intr, identity_transform())
        assert depth.valid[24, 32]
        assert depth.depth[24, 32] == pytest.approx(2.5, abs=1e-12)

    def test_box_on_axis(self):
        # The principal ray meets the box's near face (z = 2) head on.
        from oasweep.geometry import CameraIntrinsics

        intr = CameraIntrinsics(fx=100.0, fy=100.0, cx=32.0, cy=24.0, width=64, height=48)
        scene = Scene(primitives=(
            BoxPrimitive(min=[-0.3, -0.2, 2.0], max=[0.4, 0.3, 2.6], reflectance=0.7),
        ))
        image, depth = render_camera(scene, intr, identity_transform())
        assert depth.valid[24, 32] and not depth.valid[0, 0]
        assert depth.depth[24, 32] == pytest.approx(2.0, abs=1e-12)
        assert image[24, 32] == pytest.approx(0.7, abs=1e-12)

    def test_misses_masked_not_zero_depth(self, rig):
        scene = Scene(primitives=(
            SpherePrimitive(center=[0, 0, 3.0], radius=0.2, reflectance=1.0),
        ))
        _, depth = render_camera(scene, rig.intrinsics, identity_transform())
        assert not depth.valid[0, 0]
        assert depth.depth[0, 0] == 0.0
        assert depth.valid.any()

    def test_default_scene_on_default_rig(self, rig):
        image, depth = render_camera(default_scene(), rig.intrinsics, rig.extrinsics)
        assert depth.valid.mean() > 0.5
        assert image.max() <= 1.0 and image.min() >= 0.0
        assert np.all(depth.depth[depth.valid] > 0)


class TestRenderSonar:
    def test_frontal_plane_matches_analytic_binning(self, rig):
        # Independent oracle: slant range of a frontal plane is
        # R / (cos(theta) cos(phi)) per ray; rebin analytically and compare.
        spec = rig.sonar
        distance, refl = 2.0, 0.7
        scene = Scene(primitives=(frontal_plane(distance, refl),))
        raw = render_sonar_energy(scene, spec, elevation_rays=16)

        expected = np.zeros((spec.range_bins, spec.bearing_bins))
        half = spec.elevation_fov / 2
        phis = -half + (np.arange(16) + 0.5) * (spec.elevation_fov / 16)
        for phi in phis:
            for b, theta in enumerate(spec.bearing_bin_centers()):
                slant = distance / (math.cos(theta) * math.cos(phi))
                if spec.range_min <= slant <= spec.range_max:
                    rc = min(max((slant - spec.range_min) / spec.range_bin_size - 0.5, 0.0),
                             spec.range_bins - 1.0)
                    r0 = int(rc)
                    r1 = min(r0 + 1, spec.range_bins - 1)
                    expected[r0, b] += refl * (1.0 - (rc - r0))
                    expected[r1, b] += refl * (rc - r0)
        np.testing.assert_allclose(raw, expected, atol=1e-9)

    def test_box_echo_peaks_at_near_face(self, rig):
        # Only the box's near face (y = 2) is seen: its slant ranges run from
        # 2 m to 2 / (cos(14 deg) cos(6 deg)), densest at 2 m.
        spec = rig.sonar
        near = 2.0
        scene = Scene(primitives=(
            BoxPrimitive(min=[-0.5, near, -0.5], max=[0.5, 2.5, 0.5], reflectance=0.9),
        ))
        profile = render_sonar_energy(scene, spec, elevation_rays=16).sum(axis=1)
        rb, _ = spec.polar_to_bin(near, 0.0)
        assert abs(np.argmax(profile) - rb) <= 1
        assert not profile[:int(rb)].any()
        farthest = near / (math.cos(math.atan(0.25)) * math.cos(spec.elevation_fov / 2))
        far, _ = spec.polar_to_bin(farthest, 0.0)
        assert not profile[int(far) + 2:].any()

    @pytest.mark.parametrize("slant", [0.1, 0.104, 0.7321, 2.5, 4.996, 4.9999, 5.0])
    def test_deposit_centroid_on_sweep_bin_map(self, rig, slant):
        # The simulator writes an echo where the sweep reads it: one deposit's
        # range-bin centroid is the coordinate SonarSpec.polar_to_bin gives its
        # range, also within half a bin (6.4 mm) of range_min and range_max.
        spec = rig.sonar
        bins = np.zeros((spec.range_bins, spec.bearing_bins))
        _deposit_range_energy(bins, np.array([slant]), np.array([1.0]), np.array([3]), spec)
        column = bins[:, 3]
        assert column.sum() == pytest.approx(1.0, abs=1e-15)
        centroid = np.arange(spec.range_bins) @ column
        assert centroid == pytest.approx(spec.polar_to_bin(slant, 0.0)[0], abs=1e-9)

    def test_out_of_range_scene_is_all_zero(self, rig):
        scene = Scene(primitives=(frontal_plane(50.0),))
        img = render_sonar(scene, rig.sonar)
        assert np.all(img.values == 0.0)

    def test_point_like_sphere_single_cell(self, rig):
        # Radius below the range-bin size, so the echo stays point-like.
        spec = rig.sonar
        center = np.array([0.35, 2.2, 0.0])
        scene = Scene(primitives=(SpherePrimitive(center=center, radius=0.006, reflectance=1.0),))
        img = render_sonar(scene, spec)
        d, theta = sonar_polar(center)
        rb = int((d - spec.range_min) / spec.range_bin_size)
        bb = int((theta + spec.bearing_fov / 2) / spec.bearing_bin_size)
        lit = np.argwhere(img.values > 0)
        assert len(lit) >= 1
        assert np.all(np.abs(lit[:, 0] - rb) <= 1)
        assert np.all(np.abs(lit[:, 1] - bb) <= 1)

    def test_energy_conservation_before_normalization(self, rig):
        spec = rig.sonar
        scene = default_scene()
        raw = render_sonar_energy(scene, spec, elevation_rays=8)

        # Independent accounting: total deposited energy equals the summed
        # reflectance of every ray that hits inside the sensing range.
        from oasweep.geometry import spherical_to_cartesian

        half = spec.elevation_fov / 2
        phis = -half + (np.arange(8) + 0.5) * (spec.elevation_fov / 8)
        total = 0.0
        for phi in phis:
            dirs = spherical_to_cartesian(1.0, spec.bearing_bin_centers(), phi)
            t, _, refl, hit = intersect_rays(np.zeros(3), dirs, scene)
            use = hit & (t >= spec.range_min) & (t <= spec.range_max)
            total += refl[use].sum()
        assert raw.sum() == pytest.approx(total, rel=1e-12)

    def test_elevation_stratification_converged(self, rig):
        # Doubling the default stratification moves no bin by more than 1%.
        from oasweep.simulator import DEFAULT_ELEVATION_RAYS

        scene = default_scene()
        base = render_sonar(scene, rig.sonar).values
        fine = render_sonar_energy(scene, rig.sonar, 2 * DEFAULT_ELEVATION_RAYS)
        assert np.max(np.abs(base - fine / fine.max())) <= 0.01

    def test_normalized_range(self, rig):
        img = render_sonar(default_scene(), rig.sonar)
        assert img.values.max() == pytest.approx(1.0)
        assert img.values.min() >= 0.0


class TestSonarNoise:
    @pytest.mark.parametrize("sigma", [-1.0, np.nan, np.inf])
    def test_speckle_sigma_rejected(self, rig, sigma):
        img = PolarSonarImage(values=np.zeros((rig.sonar.range_bins, rig.sonar.bearing_bins)),
                              spec=rig.sonar)
        with pytest.raises(ValueError):
            add_sonar_noise(img, speckle_sigma=sigma, background=0.0, seed=3)

    @pytest.mark.parametrize("name, value", [
        ("background", -0.1), ("background", 1.5), ("background", np.nan), ("seed", -1),
    ])
    def test_background_and_seed_rejected_by_name(self, rig, name, value):
        img = PolarSonarImage(values=np.zeros((rig.sonar.range_bins, rig.sonar.bearing_bins)),
                              spec=rig.sonar)
        params = {"speckle_sigma": 0.0, "background": 0.0, "seed": 3, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be"):
            add_sonar_noise(img, **params)

    def test_identity_without_noise(self, rig):
        img = render_sonar(default_scene(), rig.sonar)
        out = add_sonar_noise(img, speckle_sigma=0.0, background=0.0, seed=3)
        np.testing.assert_array_equal(out.values, img.values)

    def test_deterministic_per_seed(self, rig):
        img = render_sonar(default_scene(), rig.sonar)
        a = add_sonar_noise(img, 0.2, 0.05, seed=42)
        b = add_sonar_noise(img, 0.2, 0.05, seed=42)
        c = add_sonar_noise(img, 0.2, 0.05, seed=43)
        np.testing.assert_array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_full_background_saturates(self, rig):
        img = render_sonar(default_scene(), rig.sonar)
        out = add_sonar_noise(img, 0.3, 1.0, seed=1)
        np.testing.assert_array_equal(out.values, np.ones_like(img.values))


class TestTurbidity:
    def test_full_transmission_identity(self, rng):
        img = rng.random((6, 8))
        np.testing.assert_array_equal(apply_turbidity(img, 1.0, 0.4, 2.5), img)

    def test_zero_distance_identity(self, rng):
        img = rng.random((6, 8, 3))
        np.testing.assert_array_equal(apply_turbidity(img, (0.7, 0.8, 0.9), 0.3, 0.0), img)

    def test_type_5c_red_golden(self):
        # 0.67**2.5 and the blend with B = 0.5, evaluated independently and frozen.
        out = apply_turbidity(np.array([[1.0]]), 0.67, 0.5, 2.5)
        assert out[0, 0] == pytest.approx(0.6837202429646771, abs=1e-15)

    def test_jerlov_presets(self):
        assert JERLOV_TRANSMISSION["1C"] == (0.75, 0.87, 0.88)
        assert JERLOV_TRANSMISSION["3C"] == (0.71, 0.80, 0.82)
        assert JERLOV_TRANSMISSION["5C"] == (0.67, 0.67, 0.73)

    def test_per_channel_application(self):
        img = np.ones((2, 2, 3))
        out = apply_turbidity(img, JERLOV_TRANSMISSION["5C"], (0.5, 0.5, 0.5), 2.5)
        assert out[0, 0, 0] == pytest.approx(0.6837202429646771, abs=1e-12)
        assert out[0, 0, 1] == pytest.approx(0.6837202429646771, abs=1e-12)
        assert out[0, 0, 2] != pytest.approx(out[0, 0, 0], abs=1e-6)

    def test_per_pixel_distance_mode(self):
        img = np.full((2, 2), 0.9)
        d = np.array([[0.0, 1.0], [2.0, 4.0]])
        out = apply_turbidity(img, 0.7, 0.1, d)
        assert out[0, 0] == pytest.approx(0.9)
        expected = 0.9 * 0.7**4 + (1 - 0.7**4) * 0.1
        assert out[1, 1] == pytest.approx(expected, abs=1e-15)

    @given(d1=st.floats(0.0, 5.0), d2=st.floats(0.0, 5.0))
    @settings(max_examples=60)
    def test_monotone_approach_to_ambient(self, d1, d2):
        lo, hi = sorted((d1, d2))
        j, b = 0.9, 0.2  # signal above ambient
        out_lo = apply_turbidity(np.array([[j]]), 0.7, b, lo)[0, 0]
        out_hi = apply_turbidity(np.array([[j]]), 0.7, b, hi)[0, 0]
        assert out_hi <= out_lo + 1e-12
        assert out_hi >= b - 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            apply_turbidity(np.ones((2, 2)), 0.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            apply_turbidity(np.ones((2, 2)), 0.7, 1.2, 1.0)
        with pytest.raises(ValueError):
            apply_turbidity(np.ones((2, 2)), 0.7, 0.5, -1.0)

    @pytest.mark.parametrize("t1, b, d", [
        (np.nan, 0.5, 1.0), (0.7, np.nan, 1.0), (0.7, 0.5, np.nan), (0.7, 0.5, np.inf),
    ])
    def test_non_finite_rejected(self, t1, b, d):
        with pytest.raises(ValueError):
            apply_turbidity(np.ones((2, 2)), t1, b, d)


class TestCrossModalConsistency:
    def test_camera_hits_have_sonar_energy(self, rig):
        # Any scene point visible to both sensors must land, via the rigid
        # transform, within one sonar bin of deposited energy.
        scene = default_scene()
        _, depth = render_camera(scene, rig.intrinsics, rig.extrinsics)
        sonar = render_sonar(scene, rig.sonar)
        spec = rig.sonar

        h, w = depth.depth.shape
        vs, us = np.meshgrid(np.arange(h, dtype=float), np.arange(w, dtype=float), indexing="ij")
        rays = rig.intrinsics.ray_directions(us, vs) @ rig.extrinsics.rotation
        rays /= np.linalg.norm(rays, axis=-1, keepdims=True)
        center = -rig.extrinsics.rotation.T @ rig.extrinsics.translation
        points = center + depth.depth[:, :, None] * rays

        d, theta = sonar_polar(points)
        in_sector = ((d >= spec.range_min) & (d <= spec.range_max)
                     & (np.abs(theta) <= spec.bearing_fov / 2))
        phi = np.arctan2(points[..., 2], d)
        # Stay clearly inside the vertical beam; boundary points may fall
        # between the discrete elevation strata.
        both = depth.valid & in_sector & (np.abs(phi) <= spec.elevation_fov / 2 * 0.9)
        assert both.sum() > 1000

        rb = np.clip(((d - spec.range_min) / spec.range_bin_size).astype(int), 0, spec.range_bins - 1)
        bb = np.clip(((theta + spec.bearing_fov / 2) / spec.bearing_bin_size).astype(int),
                     0, spec.bearing_bins - 1)
        hits = 0
        samples = np.argwhere(both)[::17]
        for vy, ux in samples:
            r, b = rb[vy, ux], bb[vy, ux]
            window = sonar.values[max(r - 1, 0):r + 2, max(b - 1, 0):b + 2]
            hits += window.max() > 0
        assert hits / len(samples) > 0.99


class TestHypothesisPlanePrimitive:
    def test_lies_on_hypothesis_plane(self, rig):
        prim = hypothesis_plane_primitive(rig.planes, 10)
        assert abs(plane_residual(prim.point, rig.planes, 10)) < 1e-12
        np.testing.assert_allclose(prim.normal, plane_normal(rig.planes))
