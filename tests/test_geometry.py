import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oasweep.config import camera_rotation
from oasweep.geometry import (
    CameraIntrinsics,
    PlaneHypothesisSet,
    RigidTransform,
    SonarSpec,
    build_warp_grid,
    camera_depth_field,
    cartesian_to_sonar_polar,
    ray_depth_to_euclidean,
    solve_ray_plane,
    spherical_to_cartesian,
)

from conftest import backproject_sonar_to_plane, plane_residual, ray_plane_bisection_oracle


DEFAULT_PLANES = PlaneHypothesisSet(alpha=math.pi / 4, d0=0.5, k=1.05, n=48)


class TestSphericalToCartesian:
    def test_on_axis(self):
        np.testing.assert_allclose(spherical_to_cartesian(2.0, 0.0, 0.0), [0.0, 2.0, 0.0], atol=1e-15)

    def test_zero_range_is_origin(self):
        np.testing.assert_array_equal(spherical_to_cartesian(0.0, 1.2, -0.7), [0.0, 0.0, 0.0])

    def test_bearing_only(self):
        p = spherical_to_cartesian(1.0, math.pi / 6, 0.0)
        np.testing.assert_allclose(p, [0.5, 0.8660254037844387, 0.0], atol=1e-15)

    @given(
        d=st.floats(1e-9, 100.0),
        theta=st.floats(-1.5, 1.5),
        phi=st.floats(-1.5, 1.5),
    )
    def test_norm_equals_range(self, d, theta, phi):
        p = spherical_to_cartesian(d, theta, phi)
        assert np.linalg.norm(p) == pytest.approx(d, rel=1e-12)


class TestPlaneHypothesisSet:
    def test_first_distance(self):
        assert DEFAULT_PLANES.distance(1) == 0.5

    def test_last_distance_spans_sensing_range(self):
        # 0.5 * 1.05**47, frozen by direct evaluation
        assert DEFAULT_PLANES.distance(48) == pytest.approx(4.952985546162919, abs=1e-12)

    def test_consecutive_ratio_is_k(self):
        assert DEFAULT_PLANES.distance(2) / DEFAULT_PLANES.distance(1) == pytest.approx(1.05, rel=1e-15)

    def test_distances_strictly_increasing(self):
        d = DEFAULT_PLANES.distances()
        assert d.shape == (48,)
        assert np.all(np.diff(d) > 0)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            DEFAULT_PLANES.distance(0)
        with pytest.raises(IndexError):
            DEFAULT_PLANES.distance(49)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(alpha=0.0, d0=0.5, k=1.05, n=48),
            dict(alpha=math.pi / 2, d0=0.5, k=1.05, n=48),
            dict(alpha=0.7, d0=-1.0, k=1.05, n=48),
            dict(alpha=0.7, d0=0.5, k=1.0, n=48),
            dict(alpha=0.7, d0=0.5, k=1.05, n=1),
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PlaneHypothesisSet(**kwargs)


class TestBackprojection:
    def test_zero_elevation_when_on_plane_crossing(self):
        p = backproject_sonar_to_plane(1.0, 0.0, PlaneHypothesisSet(math.pi / 4, 1.0, 1.05, 4), 1)
        np.testing.assert_allclose(p, [0.0, 1.0, 0.0], atol=1e-15)

    def test_unit_tan_alpha(self):
        p = backproject_sonar_to_plane(1.0, 0.0, PlaneHypothesisSet(math.pi / 4, 2.0, 1.05, 4), 1)
        np.testing.assert_allclose(p, [0.0, 1.0, 1.0], atol=1e-15)

    def test_broadside(self):
        p = backproject_sonar_to_plane(2.0, math.pi / 2, PlaneHypothesisSet(math.pi / 4, 1.0, 1.05, 4), 1)
        np.testing.assert_allclose(p, [2.0, 0.0, 1.0], atol=1e-12)

    def test_on_plane_at_default_alpha(self):
        # At alpha = 45 deg the lifted sheet and the hypothesis plane coincide.
        rng = np.random.default_rng(7)
        d = rng.uniform(0.2, 5.0, size=64)
        theta = rng.uniform(-0.5, 0.5, size=64)
        for i in (1, 20, 48):
            pts = backproject_sonar_to_plane(d, theta, DEFAULT_PLANES, i)
            np.testing.assert_allclose(plane_residual(pts, DEFAULT_PLANES, i), 0.0, atol=1e-12)

    @given(
        d=st.floats(0.01, 50.0),
        theta=st.floats(-1.5, 1.5),
        alpha=st.floats(0.1, 1.4),
        i=st.integers(1, 16),
    )
    @settings(max_examples=200)
    def test_polar_round_trip(self, d, theta, alpha, i):
        planes = PlaneHypothesisSet(alpha=alpha, d0=0.4, k=1.06, n=16)
        p = backproject_sonar_to_plane(d, theta, planes, i)
        d_back, theta_back, _ = cartesian_to_sonar_polar(p)
        assert d_back == pytest.approx(d, rel=1e-12)
        assert theta_back == pytest.approx(theta, abs=1e-12)


class TestCartesianToSonarPolar:
    def test_on_axis(self):
        d, theta, _ = cartesian_to_sonar_polar([0.0, 1.0, 0.0])
        assert d == 1.0 and theta == 0.0

    def test_elevation_ignored(self):
        d, theta, _ = cartesian_to_sonar_polar([1.0, 1.0, 5.0])
        assert d == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert theta == pytest.approx(math.pi / 4, rel=1e-15)

    def test_fov_flag(self, rig):
        spec = rig.sonar
        _, _, ok = cartesian_to_sonar_polar([0.0, 2.0, 0.0], spec)
        assert ok
        _, _, far = cartesian_to_sonar_polar([0.0, 9.0, 0.0], spec)
        assert not far
        _, _, wide = cartesian_to_sonar_polar([2.0, 0.1, 0.0], spec)
        assert not wide
        _, _, near = cartesian_to_sonar_polar([0.0, 0.05, 0.0], spec)
        assert not near


class TestRigidTransform:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            RigidTransform(np.eye(3) * 1.001, np.zeros(3))

    def test_rejects_reflection(self):
        r = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            RigidTransform(r, np.zeros(3))


class TestSolveRayPlane:
    def test_axis_ray_identity_extrinsics(self, rig):
        intr = rig.intrinsics
        ident = RigidTransform.identity()
        for i in (1, 24, 48):
            p, ok = solve_ray_plane(intr.cx, intr.cy, intr, ident, DEFAULT_PLANES, i)
            assert ok
            # On the optical axis: no lateral component, and on the plane.
            assert abs(p[0]) < 1e-9 and abs(p[1]) < 1e-9
            assert abs(plane_residual(p, DEFAULT_PLANES, i)) < 1e-9
            cam = ident.apply(p)
            np.testing.assert_allclose(intr.project(cam), [intr.cx, intr.cy], atol=1e-6)

    def test_matches_bisection_oracle(self, rig, rng):
        intr, extr, planes = rig.intrinsics, rig.extrinsics, rig.planes
        us = rng.uniform(0, intr.width - 1, size=2000)
        vs = rng.uniform(0, intr.height - 1, size=2000)
        idx = rng.integers(1, planes.n + 1, size=2000)
        pts, ok = solve_ray_plane(us, vs, intr, extr, planes, idx)
        ref, ref_ok = ray_plane_bisection_oracle(us, vs, intr, extr, planes, idx)
        use = ok & ref_ok
        assert use.mean() > 0.99
        np.testing.assert_allclose(pts[use], ref[use], atol=1e-9)

    def test_plane_membership_and_reprojection(self, rig, rng):
        intr, extr, planes = rig.intrinsics, rig.extrinsics, rig.planes
        us = rng.uniform(0, intr.width - 1, size=500)
        vs = rng.uniform(0, intr.height - 1, size=500)
        idx = rng.integers(1, planes.n + 1, size=500)
        pts, ok = solve_ray_plane(us, vs, intr, extr, planes, idx)
        res = pts @ planes.normal() - planes.distances()[idx - 1] * math.sin(planes.alpha)
        assert np.max(np.abs(res[ok])) < 1e-9
        cam = extr.apply(pts[ok])
        assert np.all(cam[:, 2] > 0)  # ok means in front of the camera
        proj = intr.project(cam)
        err = np.hypot(proj[:, 0] - us[ok], proj[:, 1] - vs[ok])
        assert np.max(err) < 1e-6

    def test_indices_broadcast_against_pixels(self, rig, rng):
        # A (P, 1) pixel column against (N,) plane indices gives every
        # (pixel, plane) pair, matching the elementwise solve pair by pair.
        intr, extr, planes = rig.intrinsics, rig.extrinsics, rig.planes
        us = rng.uniform(0, intr.width - 1, size=(7, 1))
        vs = rng.uniform(0, intr.height - 1, size=(7, 1))
        idx = np.arange(1, planes.n + 1)
        pts, ok = solve_ray_plane(us, vs, intr, extr, planes, idx)
        assert pts.shape == (7, planes.n, 3) and ok.shape == (7, planes.n)
        uu, vv, ii = np.broadcast_arrays(us, vs, idx)
        ref, ref_ok = solve_ray_plane(uu, vv, intr, extr, planes, ii)
        np.testing.assert_array_equal(pts, ref)
        np.testing.assert_array_equal(ok, ref_ok)

    def test_index_out_of_range(self, rig):
        with pytest.raises(IndexError):
            solve_ray_plane(0.0, 0.0, rig.intrinsics, rig.extrinsics, rig.planes, rig.planes.n + 1)

    def test_camera_depth_matches_closed_form(self, rig, rng):
        intr, extr, planes = rig.intrinsics, rig.extrinsics, rig.planes
        us = rng.uniform(0, intr.width - 1, size=500)
        vs = rng.uniform(0, intr.height - 1, size=500)
        idx = rng.integers(1, planes.n + 1, size=500)
        pts, ok = solve_ray_plane(us, vs, intr, extr, planes, idx)
        z_solve = extr.apply(pts)[..., 2]
        d_hat = planes.distances()[idx - 1]
        z_cf, cf_ok = camera_depth_field(us, vs, d_hat, intr, extr, planes.alpha)
        assert np.array_equal(cf_ok, ok)
        np.testing.assert_allclose(z_cf[ok], z_solve[ok], atol=1e-9)

    def test_singular_ray_masked(self, rig):
        # Camera pitched down 45 deg: its axis ray runs parallel to the
        # 45 deg plane family (zero normal component), the ray 40 px above it
        # meets the plane in front of the camera and the ray 40 px below it
        # meets the plane behind the camera.
        intr = rig.intrinsics
        extr = RigidTransform(camera_rotation(math.pi / 4), np.zeros(3))
        us = np.full(3, intr.cx)
        vs = np.array([intr.cy, intr.cy - 40.0, intr.cy + 40.0])
        points, ok = solve_ray_plane(us, vs, intr, extr, DEFAULT_PLANES, 5)
        np.testing.assert_array_equal(ok, [False, True, False])
        assert np.all(np.isfinite(points))


class TestClosedFormDepth:
    def test_axis_pixel_identity_extrinsics(self, rig):
        intr = rig.intrinsics
        z, ok = camera_depth_field(intr.cx, intr.cy, 1.0, intr, RigidTransform.identity(),
                                   math.pi / 4)
        assert ok
        assert z == pytest.approx(1.0, abs=1e-12)

    def test_homogeneous_in_d_hat_with_zero_translation(self, rig):
        intr = rig.intrinsics
        extr = RigidTransform(rig.extrinsics.rotation, np.zeros(3))
        z, ok = camera_depth_field(100.0, 80.0, np.array([1.3, 2.6]), intr, extr, 0.6)
        assert ok.all()
        assert z[1] == pytest.approx(2 * z[0], rel=1e-12)

    def test_ok_broadcast_to_depth_shape(self, rig, rng):
        # A (P, 1) pixel column against (N,) plane distances: the mask has
        # the shape of the depths, not of the pixels.
        intr, extr, planes = rig.intrinsics, rig.extrinsics, rig.planes
        us = rng.uniform(0, intr.width - 1, size=(7, 1))
        vs = rng.uniform(0, intr.height - 1, size=(7, 1))
        z, ok = camera_depth_field(us, vs, planes.distances(), intr, extr, planes.alpha)
        assert z.shape == (7, planes.n)
        assert ok.shape == z.shape

    def test_degenerate_ray_masked(self, rig):
        # Parallel axis ray, a ray meeting the plane in front of the camera and
        # one meeting it behind: only the middle one is ok, the others are NaN.
        intr = rig.intrinsics
        extr = RigidTransform(camera_rotation(math.pi / 4), np.zeros(3))
        us = np.full(3, intr.cx)
        vs = np.array([intr.cy, intr.cy - 40.0, intr.cy + 40.0])
        z, ok = camera_depth_field(us, vs, 1.0, intr, extr, math.pi / 4)
        np.testing.assert_array_equal(ok, [False, True, False])
        assert np.isnan(z[0]) and z[1] > 0 and np.isnan(z[2])


class TestRayDepthToEuclidean:
    def test_principal_point(self, rig):
        intr = rig.intrinsics
        assert ray_depth_to_euclidean(intr.cx, intr.cy, 3.0, intr) == pytest.approx(3.0, rel=1e-15)

    def test_off_center_at_least_depth(self, rig, rng):
        intr = rig.intrinsics
        us = rng.uniform(0, intr.width - 1, size=100)
        vs = rng.uniform(0, intr.height - 1, size=100)
        d = ray_depth_to_euclidean(us, vs, 2.0, intr)
        assert np.all(d >= 2.0 - 1e-12)

    def test_hand_example(self):
        intr = CameraIntrinsics(fx=100.0, fy=100.0, cx=0.0, cy=0.0, width=200, height=200)
        assert ray_depth_to_euclidean(100.0, 0.0, 1.0, intr) == pytest.approx(math.sqrt(2.0), rel=1e-15)


class TestWarpGrid:
    def test_zero_size_image(self, rig):
        grid = build_warp_grid(rig.intrinsics, rig.extrinsics, rig.planes, rig.sonar, shape=(0, 0))
        assert grid.shape == (0, 0, rig.planes.n)
        assert grid.ranges.shape == grid.bearings.shape == grid.shape

    def test_invariants_on_default_rig(self, rig):
        # The grid's lookups are the polar coordinates of the ray-plane
        # solutions, and every valid entry is an admissible candidate: solved,
        # in front of the camera, inside the sector and the vertical aperture.
        grid = build_warp_grid(rig.intrinsics, rig.extrinsics, rig.planes, rig.sonar,
                               shape=(24, 32), origin=(100, 60))
        planes = rig.planes
        valid = grid.valid
        assert valid.any()
        vs, us = np.meshgrid(np.arange(24) + 60.0, np.arange(32) + 100.0, indexing="ij")
        points, ok = solve_ray_plane(us[:, :, None], vs[:, :, None], rig.intrinsics,
                                     rig.extrinsics, planes, np.arange(1, planes.n + 1))
        ranges, bearings, in_fov = cartesian_to_sonar_polar(points, rig.sonar)
        np.testing.assert_array_equal(grid.ranges, ranges)
        np.testing.assert_array_equal(grid.bearings, bearings)
        cam = rig.extrinsics.apply(points)
        assert np.all((ok & in_fov & (cam[..., 2] > 0))[valid])
        elevation = np.arctan2(points[..., 2], ranges)
        assert np.all(np.abs(elevation[valid]) <= rig.sonar.elevation_fov / 2)
        res = points @ planes.normal() - planes.distances() * math.sin(planes.alpha)
        assert np.max(np.abs(res[valid])) < 1e-9
        proj = rig.intrinsics.project(cam)
        err = np.hypot(proj[..., 0] - us[:, :, None], proj[..., 1] - vs[:, :, None])
        assert np.max(err[valid]) < 1e-6

    def test_mid_plane_gated_band(self, rig):
        # The 12 degree vertical beam cuts plane 24 in a slab that crosses
        # each image column once: a quarter of the pixels (0.260 measured;
        # 0.956 before the elevation gate), in one run of rows per column.
        grid = build_warp_grid(rig.intrinsics, rig.extrinsics, rig.planes, rig.sonar)
        mid = grid.valid[:, :, rig.planes.n // 2]
        assert mid.mean() >= 0.25
        for column in mid.T:
            rows = np.flatnonzero(column)
            assert rows.size == 0 or rows[-1] - rows[0] + 1 == rows.size

    def test_validity_monotone_in_bearing_fov(self, rig):
        narrow_spec = SonarSpec(
            range_min=rig.sonar.range_min, range_max=rig.sonar.range_max,
            bearing_fov=rig.sonar.bearing_fov / 2, elevation_fov=rig.sonar.elevation_fov,
            range_bins=rig.sonar.range_bins, bearing_bins=rig.sonar.bearing_bins,
        )
        wide = build_warp_grid(rig.intrinsics, rig.extrinsics, rig.planes, rig.sonar, shape=(40, 60))
        narrow = build_warp_grid(rig.intrinsics, rig.extrinsics, rig.planes, narrow_spec, shape=(40, 60))
        assert not np.any(narrow.valid & ~wide.valid)
