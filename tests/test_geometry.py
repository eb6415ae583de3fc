import dataclasses
import math
import sys
import threading
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oasweep import geometry
from oasweep.config import camera_rotation
from oasweep.geometry import (
    CameraIntrinsics,
    PlaneHypothesisSet,
    RigidTransform,
    SonarSpec,
    WarpGrid,
    build_warp_grid,
    map_in_order,
    ray_plane_terms,
    spherical_to_cartesian,
)
from oasweep.sweep import build_cost_volume, extract_features, live_cells, regress_depth_map

from conftest import (
    backproject_sonar_to_plane,
    bearing_bin_cols,
    compact_grid,
    dense_lookups,
    dense_warp_grid,
    grazing_rig,
    identity_transform,
    plane_normal,
    plane_residual,
    random_calibration,
    ray_plane_bisection_oracle,
    range_bin_rows,
    solve_ray_plane,
    sonar_polar,
    stock_inputs,
)


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
        assert DEFAULT_PLANES.distances()[0] == 0.5

    def test_last_distance_spans_sensing_range(self):
        # 0.5 * 1.05**47, frozen by direct evaluation
        assert DEFAULT_PLANES.distances()[47] == pytest.approx(4.952985546162919, abs=1e-12)

    def test_consecutive_ratio_is_k(self):
        d = DEFAULT_PLANES.distances()
        assert d[1] / d[0] == pytest.approx(1.05, rel=1e-15)

    def test_distances_strictly_increasing(self):
        d = DEFAULT_PLANES.distances()
        assert d.shape == (48,)
        assert np.all(np.diff(d) > 0)

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
        d_back, theta_back = sonar_polar(p)
        assert d_back == pytest.approx(d, rel=1e-12)
        assert theta_back == pytest.approx(theta, abs=1e-12)


class TestSonarPolar:
    def test_on_axis(self):
        d, theta = sonar_polar([0.0, 1.0, 0.0])
        assert d == 1.0 and theta == 0.0

    def test_elevation_ignored(self):
        d, theta = sonar_polar([1.0, 1.0, 5.0])
        assert d == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert theta == pytest.approx(math.pi / 4, rel=1e-15)


class TestSonarSpec:
    def test_polar_to_bin_stays_on_grid(self, rig):
        # In-FOV points up to the sector's edges, where the half bin beyond the
        # edge bins' centers would otherwise map to -0.5 and bins - 0.5.
        spec = rig.sonar
        ranges = np.linspace(spec.range_min, spec.range_max, 1001)
        bearings = np.linspace(-spec.bearing_fov / 2, spec.bearing_fov / 2, 1001)
        rb, bb = spec.polar_to_bin(ranges, bearings)
        assert np.all((ranges >= spec.range_min) & (ranges <= spec.range_max)
                      & (np.abs(bearings) <= spec.bearing_fov / 2))
        assert rb.min() == 0.0 and rb.max() == spec.range_bins - 1
        assert bb.min() == 0.0 and bb.max() == spec.bearing_bins - 1


class TestRigidTransform:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            RigidTransform(np.eye(3) * 1.001, np.zeros(3))

    def test_rejects_reflection(self):
        r = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            RigidTransform(r, np.zeros(3))

    @pytest.mark.parametrize("entry", [1.3407807929942597e154, 1e300, -1e300])
    def test_rejects_huge_entry_without_a_warning(self, entry):
        # R^T R overflows to inf (or inf - inf = NaN): still a ValueError, not
        # a RuntimeWarning, and NaN does not slip past the check.
        r = np.eye(3)
        r[0, 0] = entry
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="orthonormal"):
                RigidTransform(r, np.zeros(3))


class TestSolveRayPlane:
    def test_axis_ray_identity_extrinsics(self, rig):
        intr = rig.intrinsics
        ident = identity_transform()
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
        res = pts @ plane_normal(planes) - planes.distances()[idx - 1] * math.sin(planes.alpha)
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
        _, denom, numer = ray_plane_terms(us, vs, d_hat, intr, extr, planes.alpha)
        z_cf = numer / denom
        assert np.array_equal(z_cf > 0, ok)
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


def regress_at(d_hat, intr, extr, alpha, origin):
    """sweep.regress_depth_map of an (H, W) plane-distance field, every pixel valid."""
    d_hat = np.asarray(d_hat, dtype=float)
    return regress_depth_map(d_hat, np.ones(d_hat.shape, dtype=bool), intr, extr, alpha,
                             origin=origin)


class TestClosedFormDepth:
    """The closed-form camera depth on the pipeline's path, sweep.regress_depth_map."""

    def test_axis_pixel_identity_extrinsics(self, rig):
        intr = rig.intrinsics
        depth = regress_at([[1.0]], intr, identity_transform(), math.pi / 4, (intr.cx, intr.cy))
        assert depth.valid[0, 0]
        assert depth.depth[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_homogeneous_in_d_hat_with_zero_translation(self, rig):
        intr = rig.intrinsics
        extr = RigidTransform(rig.extrinsics.rotation, np.zeros(3))
        near, far = (regress_at([[d]], intr, extr, 0.6, (100, 80)) for d in (1.3, 2.6))
        assert near.valid[0, 0] and far.valid[0, 0]
        assert far.depth[0, 0] == pytest.approx(2 * near.depth[0, 0], rel=1e-12)

    def test_ok_broadcast_to_depth_shape(self, rig, rng):
        # A (P, 1) pixel column against (N,) plane distances, as the warp grid
        # passes them: the terms keep their own shapes and the depth, with its
        # Z_c > 0 mask, broadcasts to (P, N).
        intr, extr, planes = rig.intrinsics, rig.extrinsics, rig.planes
        us = rng.uniform(0, intr.width - 1, size=(7, 1))
        vs = rng.uniform(0, intr.height - 1, size=(7, 1))
        rays, denom, numer = ray_plane_terms(us, vs, planes.distances(), intr, extr, planes.alpha)
        assert rays.shape == (7, 1, 3) and denom.shape == (7, 1) and numer.shape == (planes.n,)
        assert (numer / denom > 0).shape == (7, planes.n)

    def test_degenerate_ray_masked(self, rig):
        # Camera pitched down 45 deg, column u = cx from 40 px above the axis
        # to 40 px below: the axis ray runs parallel to the plane family, the
        # ray above meets the plane in front of the camera and the ray below
        # meets it behind. Only the ray above is valid; the others hold depth
        # 0, and nothing is NaN or warns.
        intr = rig.intrinsics
        extr = RigidTransform(camera_rotation(math.pi / 4), np.zeros(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            depth = regress_at(np.ones((81, 1)), intr, extr, math.pi / 4,
                               (intr.cx, intr.cy - 40.0))
        np.testing.assert_array_equal(depth.valid[[0, 40, 80], 0], [True, False, False])
        assert depth.depth[0, 0] > 0 and depth.depth[40, 0] == 0.0 and depth.depth[80, 0] == 0.0
        assert np.all(np.isfinite(depth.depth))


class TestRayDepthToEuclidean:
    """regress_depth_map's distance along the ray, Z_c ||K^-1 [u, v, 1]^T||_2."""

    def test_principal_point(self, rig):
        intr, extr, planes = rig.intrinsics, rig.extrinsics, rig.planes
        point, ok = solve_ray_plane(intr.cx, intr.cy, intr, extr, planes, 30)
        z = extr.apply(point)[2]
        depth = regress_at([[planes.distances()[29]]], intr, extr, planes.alpha,
                           (intr.cx, intr.cy))
        assert ok and depth.valid[0, 0]
        assert depth.depth[0, 0] == pytest.approx(z, rel=1e-12)

    def test_off_center_at_least_depth(self, rig):
        intr, extr, planes = rig.intrinsics, rig.extrinsics, rig.planes
        vs, us = np.meshgrid(np.arange(40) + 60.0, np.arange(60) + 100.0, indexing="ij")
        points, ok = solve_ray_plane(us, vs, intr, extr, planes, 20)
        z = extr.apply(points)[..., 2]
        depth = regress_at(np.full(us.shape, planes.distances()[19]), intr, extr, planes.alpha,
                           (100, 60))
        np.testing.assert_array_equal(depth.valid, ok)
        assert ok.any()
        assert np.all(depth.depth[ok] >= z[ok] * (1 - 1e-12))

    def test_hand_example(self):
        # Ray [1, 0, 1] of pixel (100, 0) meets the 45 deg plane at distance 1
        # at Z_c = 1, so the point lies sqrt(2) along the ray.
        intr = CameraIntrinsics(fx=100.0, fy=100.0, cx=0.0, cy=0.0, width=200, height=200)
        depth = regress_at([[1.0]], intr, identity_transform(), math.pi / 4, (100, 0))
        assert depth.valid[0, 0]
        assert depth.depth[0, 0] == pytest.approx(math.sqrt(2.0), rel=1e-15)


class TestMapInOrder:
    """The one helper that shares the sweep's tasks between threads."""

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_results_in_item_order(self, monkeypatch, cpus):
        # The items are dealt between the calling thread and one helper per
        # extra CPU; on one CPU the calling thread runs them all.
        monkeypatch.setattr(geometry, "usable_cpus", lambda: cpus)
        threads = set()

        def square(x):
            threads.add(threading.current_thread())
            return x * x
        assert map_in_order(square, range(20)) == [x * x for x in range(20)]
        assert len(threads) == cpus and threading.current_thread() in threads

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_raises_the_first_failing_items_exception(self, monkeypatch, cpus):
        # Items 4 and 5 fail, on different threads when there are helpers; the
        # caller gets item 4's exception, as from the plain loop.
        monkeypatch.setattr(geometry, "usable_cpus", lambda: cpus)

        def fail_from_4(x):
            if x >= 4:
                raise ValueError(f"item {x}")
            return x
        with pytest.raises(ValueError, match="item 4"):
            map_in_order(fail_from_4, range(9))

    def test_lowest_failing_index_wins_whatever_fails_first(self, monkeypatch):
        # On 2 CPUs item 1 runs on the helper and item 2 on the calling thread;
        # item 2 fails first, but the caller gets item 1's exception.
        monkeypatch.setattr(geometry, "usable_cpus", lambda: 2)
        threads = {}

        def fail_from_1(x):
            threads[x] = threading.current_thread()
            if x == 1:
                time.sleep(0.05)
            if x >= 1:
                raise ValueError(f"item {x}")
            return x
        with pytest.raises(ValueError, match="item 1"):
            map_in_order(fail_from_1, range(3))
        assert threads[2] is threading.current_thread() is not threads[1]

    def test_helpers_keyboard_interrupt_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(geometry, "usable_cpus", lambda: 2)

        def interrupt_1(x):
            if x == 1:
                raise KeyboardInterrupt
            return x
        with pytest.raises(KeyboardInterrupt):
            map_in_order(interrupt_1, range(4))

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_empty_input(self, monkeypatch, cpus):
        monkeypatch.setattr(geometry, "usable_cpus", lambda: cpus)
        assert map_in_order(lambda x: 1 / 0, []) == []

    def test_stress_more_threads_than_cores(self, monkeypatch):
        # Eight threads on this host's cores, switching as often as the
        # interpreter allows: each call fills its own slice of a shared buffer,
        # and a lost or misplaced write or result would show.
        monkeypatch.setattr(geometry, "usable_cpus", lambda: 8)
        shared, got = np.zeros((500, 64)), []

        def fill(k):
            shared[k] = k
            return k * np.ones(64)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=lambda: got.append(map_in_order(fill, range(500))))
            runner.start()
            runner.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        np.testing.assert_array_equal(np.array(got[0]), shared)
        np.testing.assert_array_equal(shared[:, 0], np.arange(500))

    def test_usable_cpus_is_positive(self):
        assert geometry.usable_cpus() >= 1



def rolled(rig, degrees):
    """The rig with its camera turned by ``degrees`` about its optical axis, center kept."""
    angle = math.radians(degrees)
    turn = np.array([[math.cos(angle), -math.sin(angle), 0.0],
                     [math.sin(angle), math.cos(angle), 0.0],
                     [0.0, 0.0, 1.0]])
    extrinsics = RigidTransform(turn @ rig.extrinsics.rotation, turn @ rig.extrinsics.translation)
    return dataclasses.replace(rig, extrinsics=extrinsics)


def edge_apertures(rig):
    """Sonar specs whose elevation edge passes exactly through a row end of plane 1.

    A row qualifies when every pixel of it meets plane 1 in front of the
    camera, its least |elevation| falls on its first or last pixel, and that
    pixel passes the range and bearing terms; its spec sets elevation_fov to
    twice that elevation, so the gate keeps the pixel with equality. Ordered
    by the aperture's distance from the rig's own.
    """
    h, w = rig.intrinsics.height, rig.intrinsics.width
    vs, us = np.meshgrid(np.arange(h, dtype=float), np.arange(w, dtype=float), indexing="ij")
    points, ok = solve_ray_plane(us[:, :, None], vs[:, :, None], rig.intrinsics, rig.extrinsics,
                                 rig.planes, [1])
    points, ok = points[:, :, 0], ok[:, :, 0]
    ranges, bearings = sonar_polar(points)
    elevation = np.abs(np.arctan2(points[..., 2], ranges))
    spec = rig.sonar
    admit = ((ranges >= spec.range_min) & (ranges <= spec.range_max)
             & (np.abs(bearings) <= spec.bearing_fov / 2))
    edges = {elevation[v, end] for v in np.flatnonzero(ok.all(axis=1)) for end in (0, w - 1)
             if admit[v, end] and elevation[v, end] == elevation[v].min()
             and 0 < elevation[v, end] < math.pi / 2}
    return [dataclasses.replace(spec, elevation_fov=2 * edge)
            for edge in sorted(edges, key=lambda edge: abs(edge - spec.elevation_fov / 2))]


def range_edges(rig):
    """(spec, echo) pairs that put a range-bin edge through a row end of plane 1.

    A row qualifies when every pixel of it meets plane 1 in front of the
    camera, and its least or its greatest range falls on its first or last
    pixel, which passes the bearing and elevation terms. Its spec stretches
    range_max so that, in exact arithmetic, the edge at the bottom of that
    end's range bin passes through the end's range, and its echo marks only
    the cell the oracle's formulas put the end pixel in: its own row, or the
    one below when rounding leaves the range under the edge, and then the
    end pixel is the row's only entry there. Ordered by how little the spec
    is stretched.
    """
    h, w = rig.intrinsics.height, rig.intrinsics.width
    vs, us = np.meshgrid(np.arange(h, dtype=float), np.arange(w, dtype=float), indexing="ij")
    points, ok = solve_ray_plane(us[:, :, None], vs[:, :, None], rig.intrinsics, rig.extrinsics,
                                 rig.planes, [1])
    points, ok = points[:, :, 0], ok[:, :, 0]
    ranges, bearings = sonar_polar(points)
    elevation = np.arctan2(points[..., 2], ranges)
    spec = rig.sonar
    admit = ((np.abs(bearings) <= spec.bearing_fov / 2)
             & (np.abs(elevation) <= spec.elevation_fov / 2))
    size = (spec.range_max - spec.range_min) / spec.range_bins
    edges = []
    for v in np.flatnonzero(ok.all(axis=1)):
        for end in (0, w - 1):
            r = ranges[v, end]
            k = math.floor((r - spec.range_min) / size - 0.5)
            if not (admit[v, end] and r in (ranges[v].min(), ranges[v].max()) and k >= 1):
                continue
            stretched = dataclasses.replace(
                spec, range_max=spec.range_min + spec.range_bins * (r - spec.range_min) / (k + 0.5))
            if r <= stretched.range_max:
                edges.append((stretched, one_cell(r, bearings[v, end], stretched)))
    return sorted(edges, key=lambda edge: abs(edge[0].range_max - spec.range_max))


def bearing_edges(rig):
    """(spec, echo) pairs that put a bearing-bin edge through a piece end of plane 1.

    The pieces are the PIECE_PIXELS-wide pieces of each row that the warp
    grid's row filter tests when it has echo cells. A piece qualifies when
    every pixel of its row meets plane 1 in front of the camera, and its
    first or last pixel holds its least or greatest bearing and passes the
    range and elevation terms. Its spec sets bearing_fov so that, in exact
    arithmetic, the edge at the bottom of that end's bearing bin passes
    through the end's bearing, and its echo marks only the cell the oracle's
    formulas put the end pixel in. Ordered by how little bearing_fov changes.
    """
    h, w = rig.intrinsics.height, rig.intrinsics.width
    vs, us = np.meshgrid(np.arange(h, dtype=float), np.arange(w, dtype=float), indexing="ij")
    points, ok = solve_ray_plane(us[:, :, None], vs[:, :, None], rig.intrinsics, rig.extrinsics,
                                 rig.planes, [1])
    points, ok = points[:, :, 0], ok[:, :, 0]
    ranges, bearings = sonar_polar(points)
    elevation = np.arctan2(points[..., 2], ranges)
    spec = rig.sonar
    admit = ((ranges >= spec.range_min) & (ranges <= spec.range_max)
             & (np.abs(elevation) <= spec.elevation_fov / 2))
    bins, size = spec.bearing_bins, spec.bearing_fov / spec.bearing_bins
    edges = []
    for v in np.flatnonzero(ok.all(axis=1)):
        for first in range(0, w, geometry.PIECE_PIXELS):
            piece = bearings[v, first:first + geometry.PIECE_PIXELS]
            for end in (first, first + piece.size - 1):
                b = bearings[v, end]
                k = math.floor((b + spec.bearing_fov / 2) / size - 0.5)
                if not (admit[v, end] and b in (piece.min(), piece.max()) and 1 <= k < bins
                        and k + 0.5 != bins / 2):
                    continue
                fov = b * bins / (k + 0.5 - bins / 2)
                if 0 < fov < math.pi and abs(b) <= fov / 2:
                    stretched = dataclasses.replace(spec, bearing_fov=fov)
                    edges.append((stretched, one_cell(ranges[v, end], b, stretched)))
    return sorted(edges, key=lambda edge: abs(edge[0].bearing_fov - spec.bearing_fov))


def one_cell(r, b, spec):
    """An echo mask of the spec's bins holding only the cell that range r and bearing b
    look up."""
    echo = np.zeros((spec.range_bins, spec.bearing_bins), dtype=bool)
    echo[range_bin_rows(r, spec), bearing_bin_cols(b, spec)] = True
    return echo


def whole_rows(echo_rows, spec):
    """An echo mask of the spec's bins holding every cell of the marked range-bin rows."""
    return np.repeat(np.asarray(echo_rows)[:, None], spec.bearing_bins, axis=1)


class TestWarpGrid:
    def test_zero_size_image(self, rig):
        grid = build_warp_grid(rig.intrinsics, rig.extrinsics, rig.planes, rig.sonar, shape=(0, 0),
                               origin=(0, 0), echo=None)
        assert grid.shape == (0, 0, rig.planes.n)
        assert grid.ranges.shape == grid.bearings.shape == (0,)

    def test_invariants_on_default_rig(self, rig):
        # The grid's lookups are the polar coordinates of the ray-plane
        # solutions, and every valid entry is an admissible candidate: solved,
        # in front of the camera, inside the sector and the vertical aperture.
        grid = build_warp_grid(rig.intrinsics, rig.extrinsics, rig.planes, rig.sonar,
                               shape=(24, 32), origin=(100, 60), echo=None)
        planes = rig.planes
        valid = grid.valid
        assert valid.any()
        vs, us = np.meshgrid(np.arange(24) + 60.0, np.arange(32) + 100.0, indexing="ij")
        points, ok = solve_ray_plane(us[:, :, None], vs[:, :, None], rig.intrinsics,
                                     rig.extrinsics, planes, np.arange(1, planes.n + 1))
        ranges, bearings = sonar_polar(points)
        spec = rig.sonar
        in_sector = ((ranges >= spec.range_min) & (ranges <= spec.range_max)
                     & (np.abs(bearings) <= spec.bearing_fov / 2))
        grid_ranges, grid_bearings = dense_lookups(grid)
        np.testing.assert_array_equal(grid_ranges[valid], ranges[valid])
        np.testing.assert_array_equal(grid_bearings[valid], bearings[valid])
        cam = rig.extrinsics.apply(points)
        assert np.all((ok & in_sector & (cam[..., 2] > 0))[valid])
        elevation = np.arctan2(points[..., 2], ranges)
        assert np.all(np.abs(elevation[valid]) <= rig.sonar.elevation_fov / 2)
        res = points @ plane_normal(planes) - planes.distances() * math.sin(planes.alpha)
        assert np.max(np.abs(res[valid])) < 1e-9
        proj = rig.intrinsics.project(cam)
        err = np.hypot(proj[..., 0] - us[:, :, None], proj[..., 1] - vs[:, :, None])
        assert np.max(err[valid]) < 1e-6

    def test_mid_plane_gated_band(self, rig):
        # The 12 degree vertical beam cuts plane 24 in a slab that crosses
        # each image column once: a quarter of the pixels (0.260 measured;
        # 0.956 before the elevation gate), in one run of rows per column.
        grid = build_warp_grid(rig.intrinsics, rig.extrinsics, rig.planes, rig.sonar,
                               shape=(rig.intrinsics.height, rig.intrinsics.width), origin=(0, 0),
                               echo=None)
        mid = grid.valid[:, :, rig.planes.n // 2]
        assert mid.mean() >= 0.25
        for column in mid.T:
            rows = np.flatnonzero(column)
            assert rows.size == 0 or rows[-1] - rows[0] + 1 == rows.size

    def test_gate_terms_on_hand_rig(self):
        # Camera at the sonar origin looking along the acoustic axis, planes at
        # distances 0.05, 2 and 80 m: axis pixel (u, v) = (10, 10) reaches
        # (0, d, 0) on each; on the 2 m plane, pixel (20, 10) reaches
        # (2, 2, 0), pixel (10, 15) reaches (0, 4, -2) and pixel (10, 30) meets
        # it behind the camera, at (0, -2, 4). Entries are indexed [v, u, i].
        intr = CameraIntrinsics(fx=10.0, fy=10.0, cx=10.0, cy=10.0, width=21, height=31)
        extr = RigidTransform(camera_rotation(0.0), np.zeros(3))
        planes = PlaneHypothesisSet(alpha=math.pi / 4, d0=0.05, k=40.0, n=3)
        spec = SonarSpec(range_min=0.1, range_max=5.0, bearing_fov=math.radians(60.0),
                         elevation_fov=math.radians(12.0), range_bins=64, bearing_bins=32)
        grid = build_warp_grid(intr, extr, planes, spec, shape=(31, 21), origin=(0, 0),
                               echo=None)
        cases = {"inside": (10, 10, 1), "near": (10, 10, 0), "far": (10, 10, 2),
                 "wide": (10, 20, 1), "elevation": (15, 10, 1), "behind": (30, 10, 1)}
        assert {name: bool(grid.valid[entry]) for name, entry in cases.items()} == {
            "inside": True, "near": False, "far": False, "wide": False, "elevation": False,
            "behind": False}
        ranges, bearings = dense_lookups(grid)
        assert ranges[10, 10, 1] == pytest.approx(2.0, rel=1e-12)
        assert bearings[10, 10, 1] == pytest.approx(0.0, abs=1e-12)

    def test_validity_monotone_in_bearing_fov(self, rig):
        narrow_spec = SonarSpec(
            range_min=rig.sonar.range_min, range_max=rig.sonar.range_max,
            bearing_fov=rig.sonar.bearing_fov / 2, elevation_fov=rig.sonar.elevation_fov,
            range_bins=rig.sonar.range_bins, bearing_bins=rig.sonar.bearing_bins,
        )
        wide = build_warp_grid(rig.intrinsics, rig.extrinsics, rig.planes, rig.sonar,
                               shape=(40, 60), origin=(0, 0), echo=None)
        narrow = build_warp_grid(rig.intrinsics, rig.extrinsics, rig.planes, narrow_spec,
                                 shape=(40, 60), origin=(0, 0), echo=None)
        assert not np.any(narrow.valid & ~wide.valid)

    @staticmethod
    def assert_matches_oracle(grid, oracle):
        want = compact_grid(*oracle)
        np.testing.assert_array_equal(grid.valid, want.valid)
        assert grid.ranges.tobytes() == want.ranges.tobytes()
        assert grid.bearings.tobytes() == want.bearings.tobytes()

    @pytest.mark.parametrize("n", [48, 95], ids=["stock", "fine-planes"])
    def test_matches_dense_oracle(self, rig, n):
        # The per-plane grid, with its column denominators and its flat lift,
        # holds exactly the stacked dense oracle's mask and valid lookups, bit
        # for bit, on the stock rig and on the benchmark's 95-plane set over
        # the same span.
        planes = dataclasses.replace(rig.planes, k=rig.planes.k ** ((rig.planes.n - 1) / (n - 1)),
                                     n=n)
        args = (rig.intrinsics, rig.extrinsics, planes, rig.sonar)
        grid = build_warp_grid(*args, shape=(rig.intrinsics.height, rig.intrinsics.width),
                               origin=(0, 0), echo=None)
        assert 0.2 < grid.valid.mean() < 0.3
        self.assert_matches_oracle(grid, dense_warp_grid(*args))

    @given(seed=st.integers(0, 2**32 - 1), far=st.booleans(), u0=st.integers(0, 280),
           v0=st.integers(0, 200))
    @settings(max_examples=40, deadline=None)
    def test_matches_dense_oracle_on_random_rigs(self, seed, far, u0, v0):
        # The flat lift rounds like the oracle's stacked one with the camera
        # tens to hundreds of meters from the sonar as well.
        rig = random_calibration(np.random.default_rng(seed), far=far)
        args = (rig.intrinsics, rig.extrinsics, rig.planes, rig.sonar)
        grid = build_warp_grid(*args, shape=(40, 40), origin=(u0, v0), echo=None)
        self.assert_matches_oracle(grid, dense_warp_grid(*args, shape=(40, 40), origin=(u0, v0)))

    @given(seed=st.integers(0, 2**32 - 1), far=st.booleans(), roll=st.floats(-90.0, 90.0))
    @settings(max_examples=10, deadline=None)
    def test_matches_dense_oracle_on_full_frame_random_rigs(self, seed, far, roll):
        # Over a full 240x320 frame each plane's row band skips most rows
        # (40x40 windows rarely skip one); it must skip none that holds an
        # admissible entry. One-row blocks gate exactly the band's rows. A
        # rolled camera's rows cross the wedge, so a row can leave it at both
        # ends and still hold admissible entries inside.
        rig = rolled(random_calibration(np.random.default_rng(seed), far=far), roll)
        args = (rig.intrinsics, rig.extrinsics, rig.planes, rig.sonar)
        with mock.patch.object(geometry, "BLOCK_PIXELS", 320):
            grid = build_warp_grid(*args, shape=(240, 320), origin=(0, 0), echo=None)
        self.assert_matches_oracle(grid, dense_warp_grid(*args))

    @given(seed=st.integers(0, 2**32 - 1), far=st.booleans())
    @settings(max_examples=10, deadline=None)
    def test_matches_dense_oracle_at_the_wedge_edge(self, seed, far):
        # The vertical aperture is narrowed until one row's nearest point to
        # the wedge, an end pixel that passes the other gate terms, sits
        # exactly on its edge: only the band's margin keeps that row. Every
        # such row of the rig's middle plane is tried, on a two-plane set
        # whose first plane is that plane, bit for bit.
        rig = random_calibration(np.random.default_rng(seed), far=far)
        planes = rig.planes
        middle = planes.distances()[planes.n // 2]
        rig = dataclasses.replace(rig, planes=dataclasses.replace(planes, d0=middle, n=2))
        for spec in edge_apertures(rig)[:8]:
            args = (rig.intrinsics, rig.extrinsics, rig.planes, spec)
            with mock.patch.object(geometry, "BLOCK_PIXELS", 320):
                grid = build_warp_grid(*args, shape=(240, 320), origin=(0, 0), echo=None)
            self.assert_matches_oracle(grid, dense_warp_grid(*args))

    @given(seed=st.integers(0, 2**32 - 1), rig_kind=st.sampled_from(["near", "far", "rolled"]),
           echo=st.sampled_from(["single", "first", "last", "none", "all"]))
    @settings(max_examples=15, deadline=None)
    def test_matches_dense_oracle_with_echo_rows_on_full_frame_random_rigs(self, seed, rig_kind,
                                                                           echo):
        # Echo cells that fill whole range-bin rows: each plane is gated only
        # on the segments whose widened range interval reaches
        # [range_min, range_max] and a marked row, and the gate's sixth term
        # keeps the entries that look up a marked row. A single row is the
        # bin of an entry the oracle admits, so a segment filter that misses
        # it, or an interval that misses an inner range minimum, loses
        # entries; rows 0 and R - 1 hold the clamped lookups; no row admits
        # nothing; every row is the grid without echo cells.
        rng = np.random.default_rng(seed)
        rig = random_calibration(rng, far=rig_kind == "far")
        if rig_kind == "rolled":
            rig = rolled(rig, rng.uniform(-90.0, 90.0))
        args = (rig.intrinsics, rig.extrinsics, rig.planes, rig.sonar)
        echo_rows = np.zeros(rig.sonar.range_bins, dtype=bool)
        if echo == "single":
            ranges, _, valid = dense_warp_grid(*args, step=4)
            if valid.any():
                echo_rows[rng.choice(range_bin_rows(ranges[valid], rig.sonar))] = True
        else:
            echo_rows[{"first": [0], "last": [-1], "none": [], "all": slice(None)}[echo]] = True
        cells = whole_rows(echo_rows, rig.sonar)
        grid = build_warp_grid(*args, shape=(240, 320), origin=(0, 0), echo=cells)
        self.assert_matches_oracle(grid, dense_warp_grid(*args, echo=cells))
        if echo == "all":
            self.assert_matches_oracle(grid, dense_warp_grid(*args))

    @given(seed=st.integers(0, 2**32 - 1), rig_kind=st.sampled_from(["near", "far", "rolled"]),
           echo=st.sampled_from(["single", "corners", "column", "sparse", "none"]))
    @settings(max_examples=20, deadline=None)
    def test_matches_dense_oracle_with_echo_cells_on_full_frame_random_rigs(self, seed, rig_kind,
                                                                            echo):
        # Each plane is gated only on the rows, then the row pieces, whose
        # range-bin rows times bearing-bin columns hold an echo cell, and the
        # gate's sixth term keeps the entries that look up one. A single cell
        # is the cell of an entry the oracle admits, so a row or piece whose
        # bearing interval misses it loses entries; the corner cells hold the
        # clamped lookups; one bearing column crosses every range row; a
        # sparse mask marks 3% of the cells at random; no cell admits nothing.
        rng = np.random.default_rng(seed)
        rig = random_calibration(rng, far=rig_kind == "far")
        if rig_kind == "rolled":
            rig = rolled(rig, rng.uniform(-90.0, 90.0))
        spec = rig.sonar
        args = (rig.intrinsics, rig.extrinsics, rig.planes, spec)
        cells = np.zeros((spec.range_bins, spec.bearing_bins), dtype=bool)
        if echo in ("single", "column"):
            ranges, bearings, valid = dense_warp_grid(*args, step=4)
            if valid.any():
                k = rng.integers(np.count_nonzero(valid))
                col = bearing_bin_cols(bearings[valid][k], spec)
                cells[range_bin_rows(ranges[valid][k], spec) if echo == "single" else slice(None),
                      col] = True
        elif echo == "corners":
            cells[[0, 0, -1, -1], [0, -1, 0, -1]] = True
        elif echo == "sparse":
            cells = rng.random(cells.shape) < 0.03
        grid = build_warp_grid(*args, shape=(240, 320), origin=(0, 0), echo=cells)
        self.assert_matches_oracle(grid, dense_warp_grid(*args, echo=cells))

    @given(seed=st.integers(0, 2**32 - 1), far=st.booleans())
    @settings(max_examples=10, deadline=None)
    def test_matches_dense_oracle_at_an_echo_edge(self, seed, far):
        # A range-bin edge passes through a row's end pixel where the row's
        # range is least or greatest, and only that pixel's cell is an echo
        # cell: the row filter's widened range interval must still reach it.
        # The first 8 such rows of the rig's middle plane are tried, on a
        # two-plane set whose first plane is that plane, bit for bit.
        rig = random_calibration(np.random.default_rng(seed), far=far)
        planes = rig.planes
        middle = planes.distances()[planes.n // 2]
        rig = dataclasses.replace(rig, planes=dataclasses.replace(planes, d0=middle, n=2))
        for spec, echo in range_edges(rig)[:8]:
            args = (rig.intrinsics, rig.extrinsics, rig.planes, spec)
            grid = build_warp_grid(*args, shape=(240, 320), origin=(0, 0), echo=echo)
            self.assert_matches_oracle(grid, dense_warp_grid(*args, echo=echo))

    @given(seed=st.integers(0, 2**32 - 1), far=st.booleans())
    @settings(max_examples=10, deadline=None)
    def test_matches_dense_oracle_at_a_bearing_edge(self, seed, far):
        # A bearing-bin edge passes through a row piece's end pixel where the
        # piece's bearing is least or greatest, and only that pixel's cell is
        # an echo cell: the filter's widened bearing interval must still
        # reach it, on the row and on the piece. The first 8 such pieces of
        # the rig's middle plane are tried, on a two-plane set whose first
        # plane is that plane, bit for bit.
        rig = random_calibration(np.random.default_rng(seed), far=far)
        planes = rig.planes
        middle = planes.distances()[planes.n // 2]
        rig = dataclasses.replace(rig, planes=dataclasses.replace(planes, d0=middle, n=2))
        for spec, echo in bearing_edges(rig)[:8]:
            args = (rig.intrinsics, rig.extrinsics, rig.planes, spec)
            grid = build_warp_grid(*args, shape=(240, 320), origin=(0, 0), echo=echo)
            self.assert_matches_oracle(grid, dense_warp_grid(*args, echo=echo))

    def test_row_across_the_sonar_axis_kept_like_oracle(self):
        # The camera sits at the sonar origin looking straight up, turned 45
        # degrees about its axis, so pixel ray (x, y, 1) lifts to the sonar
        # direction ((x - y) / sqrt(2), (x + y) / sqrt(2), 1). Row v = 24
        # (y = -0.5) runs from bearing -149 degrees (x = -2) across the
        # negative forward axis (180) and the lateral axis (90) to 59 degrees
        # (x = 1.94), so the pixels in front of the sonar with bearings 60 to
        # 80 degrees lie outside the interval of the row's end bearings. A
        # row whose forward is not positive at both ends must keep every
        # bearing-bin column: with echo cells only where those pixels look,
        # the grid still holds them.
        intr = CameraIntrinsics(fx=16.0, fy=16.0, cx=32.0, cy=32.0, width=64, height=64)
        turn = np.array([[1.0, 1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, math.sqrt(2.0)]])
        extr = RigidTransform(turn / math.sqrt(2.0), np.zeros(3))
        planes = PlaneHypothesisSet(alpha=math.radians(80.0), d0=1.0, k=2.0, n=2)
        spec = SonarSpec(range_min=0.1, range_max=20.0, bearing_fov=math.radians(160.0),
                         elevation_fov=math.radians(150.0), range_bins=64, bearing_bins=64)
        args = (intr, extr, planes, spec)
        ranges, bearings, valid = dense_warp_grid(*args)
        ends = bearings[24, [0, -1], 0]
        beyond = valid[24, :, 0] & (bearings[24, :, 0] > ends.max() + spec.bearing_bin_size)
        assert beyond.sum() >= 10
        echo = np.zeros((spec.range_bins, spec.bearing_bins), dtype=bool)
        echo[range_bin_rows(ranges[24, beyond, 0], spec),
             bearing_bin_cols(bearings[24, beyond, 0], spec)] = True
        grid = build_warp_grid(*args, shape=(64, 64), origin=(0, 0), echo=echo)
        assert grid.valid[24, beyond, 0].all()
        self.assert_matches_oracle(grid, dense_warp_grid(*args, echo=echo))

    def test_aimed_far_rigs_reach_the_sweep_in_the_oracle(self):
        # Far rigs are drawn aimed at the sonar, with focal lengths grown with
        # their distance, so that their checks compare entries, not empty
        # masks: on a 4-pixel lattice of the full frame, seeds 0-11 admit 605
        # to 62,982 entries. The unaimed draw admits at most 99.
        counts = {}
        for aimed in (True, False):
            for seed in range(12):
                rig = random_calibration(np.random.default_rng(seed), far=True, aimed=aimed)
                _, _, valid = dense_warp_grid(rig.intrinsics, rig.extrinsics, rig.planes,
                                              rig.sonar, step=4)
                counts[aimed, seed] = np.count_nonzero(valid)
        assert sum(counts[True, seed] >= 500 for seed in range(12)) >= 11
        assert max(counts[False, seed] for seed in range(12)) < 500

    def test_stock_crop_gates_its_kept_rows_like_oracle(self, rig, monkeypatch):
        # On the stock crop the gate tasks cover only each plane's rows that
        # may reach the elevation wedge and [range_min, range_max]: 27.3% of
        # the H*W*N entries. With pool frame 0's live cells they cover only
        # the row pieces whose range-bin rows times bearing-bin columns hold
        # one: 2.0%, and the grid holds exactly the full grid's lookups that
        # hit a live cell (34,393). Each task holds runs of one plane's
        # pixels, at most BLOCK_PIXELS in all, and both grids have the dense
        # oracle's bytes.
        prepared, window, frame = stock_inputs(rig)
        shape, origin = prepared.shape, (window.u0, window.v0)
        live = live_cells(extract_features(frame.values, "zncc-patch", 2))
        tasks = []

        def spy(fn, items):
            items = list(items)
            tasks.extend(items)
            return map_in_order(fn, items)

        monkeypatch.setattr(geometry, "map_in_order", spy)
        args = (rig.intrinsics, rig.extrinsics, rig.planes, rig.sonar)
        grids = {}
        for echo, share in ((None, 0.30), (live, 0.03)):
            tasks.clear()
            grid = grids[echo is None] = build_warp_grid(*args, shape=shape, origin=origin,
                                                         echo=echo)
            sizes = [runs[:, 1] - runs[:, 0] for _, runs in tasks]
            assert sum(size.sum() for size in sizes) <= share * grid.valid.size
            assert all(size.min() > 0 and size.sum() <= geometry.BLOCK_PIXELS for size in sizes)
            assert all(np.all(runs[1:, 0] > runs[:-1, 1]) and runs[-1, 1] <= shape[0] * shape[1]
                       for _, runs in tasks)
            self.assert_matches_oracle(grid, dense_warp_grid(*args, shape=shape, origin=origin,
                                                             echo=echo))
        full, cut = grids[True], grids[False]
        rb, bb = rig.sonar.polar_to_bin(full.ranges, full.bearings)
        hit = live[rb.astype(int), bb.astype(int)]
        assert cut.ranges.size == np.count_nonzero(hit) == 34393
        assert cut.ranges.tobytes() == full.ranges[hit].tobytes()
        assert cut.bearings.tobytes() == full.bearings[hit].tobytes()

    @pytest.mark.parametrize("frame", range(4))
    def test_cell_grid_volume_matches_full_grid_and_dense_oracle_on_pool_frames(self, rig,
                                                                                 frame):
        # With each of the benchmark's pool frames, the stock crop's grid cut
        # to the frame's live cells has the dense oracle's bytes, and under
        # neg-zncc its cost volume is the full grid's, bit for bit.
        prepared, window, sonar = stock_inputs(rig, frame)
        shape, origin = prepared.shape, (window.u0, window.v0)
        son = extract_features(sonar.values, "zncc-patch", 2)
        cam = extract_features(prepared / 255.0, "zncc-patch", 2)
        live = live_cells(son)
        args = (rig.intrinsics, rig.extrinsics, rig.planes, rig.sonar)
        cut = build_warp_grid(*args, shape=shape, origin=origin, echo=live)
        self.assert_matches_oracle(cut, dense_warp_grid(*args, shape=shape, origin=origin,
                                                        echo=live))
        full = build_warp_grid(*args, shape=shape, origin=origin, echo=None)
        got, want = (build_cost_volume(cam, son, grid, rig.sonar, "neg-zncc", live)
                     for grid in (cut, full))
        assert want.valid.any()
        assert got.costs.tobytes() == want.costs.tobytes()
        np.testing.assert_array_equal(got.valid, want.valid)

    @pytest.mark.parametrize("scale", [1e-200, 1e155, 3e307])
    def test_matches_dense_oracle_at_extreme_scales(self, rig, scale, monkeypatch):
        # Every length of the stock rig scaled: products underflow (1e-200),
        # or the farthest planes' depths overflow to inf (3e307), without a
        # warning, and the grid still holds the oracle's entries. On 3 CPUs
        # two helper threads run tasks, and numpy's error state is per
        # thread, so each task must silence its own overflow.
        sonar = dataclasses.replace(rig.sonar, range_min=rig.sonar.range_min * scale,
                                    range_max=rig.sonar.range_max * scale)
        planes = dataclasses.replace(rig.planes, d0=rig.planes.d0 * scale)
        extrinsics = RigidTransform(rig.extrinsics.rotation, rig.extrinsics.translation * scale)
        args = (rig.intrinsics, extrinsics, planes, sonar)
        with np.errstate(over="ignore", invalid="ignore"):
            oracle = dense_warp_grid(*args, shape=(60, 80), origin=(120, 100))
        for cpus in (1, 3):
            monkeypatch.setattr(geometry, "usable_cpus", lambda: cpus)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                grid = build_warp_grid(*args, shape=(60, 80), origin=(120, 100), echo=None)
            assert grid.valid.any()
            self.assert_matches_oracle(grid, oracle)

    @pytest.mark.parametrize("block", [7, 1000, 4800])
    def test_block_size_does_not_change_bytes(self, rig, monkeypatch, block):
        # Blocks that split rows, leave a short tail block or hold the whole
        # 60x80 crop all give the oracle's bytes.
        args = (rig.intrinsics, rig.extrinsics, rig.planes, rig.sonar)
        monkeypatch.setattr(geometry, "BLOCK_PIXELS", block)
        grid = build_warp_grid(*args, shape=(60, 80), origin=(120, 100), echo=None)
        assert grid.valid.any()
        self.assert_matches_oracle(grid, dense_warp_grid(*args, shape=(60, 80),
                                                         origin=(120, 100)))

    @pytest.mark.parametrize("block", [7, 1000, 4800])
    def test_block_size_keeps_oracle_bytes_with_echo_cells(self, rig, monkeypatch, block):
        # With a random 20% of the cells live, tasks join runs of kept row
        # pieces: blocks that split a piece, leave a short tail block or hold
        # every kept piece of a plane give the oracle's bytes too.
        args = (rig.intrinsics, rig.extrinsics, rig.planes, rig.sonar)
        cells = np.random.default_rng(block).random((rig.sonar.range_bins,
                                                     rig.sonar.bearing_bins)) < 0.2
        monkeypatch.setattr(geometry, "BLOCK_PIXELS", block)
        grid = build_warp_grid(*args, shape=(60, 80), origin=(120, 100), echo=cells)
        assert grid.valid.any()
        self.assert_matches_oracle(grid, dense_warp_grid(*args, shape=(60, 80),
                                                         origin=(120, 100), echo=cells))

    def test_grazing_row_masked_like_oracle(self):
        # Row v = cy runs parallel to the plane family: its column denominator
        # falls below the 1e-12 parallel threshold, its NaN depths pass
        # through the flat lift, and the mask still equals the oracle's,
        # without a warning.
        rig = grazing_rig()
        row = np.arange(rig.intrinsics.width, dtype=float)
        _, ok = solve_ray_plane(row, np.full_like(row, rig.intrinsics.cy), rig.intrinsics,
                                rig.extrinsics, rig.planes, 1)
        assert not ok.any()
        args = (rig.intrinsics, rig.extrinsics, rig.planes, rig.sonar)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = build_warp_grid(*args, shape=(rig.intrinsics.height, rig.intrinsics.width),
                                   origin=(0, 0), echo=None)
        assert grid.valid.any() and not grid.valid[int(rig.intrinsics.cy)].any()
        self.assert_matches_oracle(grid, dense_warp_grid(*args))

    def test_lookups_must_match_mask(self):
        valid = np.zeros((2, 3, 4), dtype=bool)
        valid[1, 2, 3] = True
        WarpGrid(ranges=np.ones(1), bearings=np.zeros(1), valid=valid)
        with pytest.raises(ValueError):
            WarpGrid(ranges=np.ones(2), bearings=np.zeros(2), valid=valid)
        with pytest.raises(ValueError):
            WarpGrid(ranges=np.ones((2, 3, 4)), bearings=np.zeros((2, 3, 4)), valid=valid)
