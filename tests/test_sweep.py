import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oasweep.config import default_rig
from oasweep.geometry import RigidTransform, WarpGrid, build_warp_grid
from scipy import ndimage

from oasweep.simulator import Scene, default_scene, render_camera, render_sonar
from oasweep.preprocess import prepare_camera
from oasweep.sweep import (
    INVALID_COST,
    METRICS,
    CostVolume,
    DepthMap,
    SweepConfig,
    build_cost_volume,
    extract_features,
    regress_depth_map,
    regularize_cost_volume,
    run_pipeline,
    scale_costs,
    soft_argmin,
    to_full_frame,
)

from conftest import argmin_planes, hypothesis_plane_primitive


class TestSweepConfig:
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_cost_scale_positive_and_finite(self, value):
        with pytest.raises(ValueError):
            SweepConfig(cost_scale=value)


class TestExtractFeatures:
    def test_intensity_passthrough(self, rng):
        img = rng.random((6, 9))
        out = extract_features(img, "intensity")
        assert out.shape == (6, 9, 1)
        np.testing.assert_allclose(out[:, :, 0], img, rtol=1e-6)

    def test_gradient_of_ramp(self):
        u = np.tile(np.arange(12, dtype=float), (8, 1))
        out = extract_features(u, "gradient")
        np.testing.assert_allclose(out[:, :, 0], 1.0, atol=1e-6)
        np.testing.assert_allclose(out[:, :, 1], 0.0, atol=1e-6)

    def test_zncc_constant_image_is_zero(self):
        out = extract_features(np.full((5, 7), 0.37), "zncc-patch", patch_radius=2)
        assert out.shape == (5, 7, 25)
        np.testing.assert_array_equal(out, 0.0)

    def test_zncc_unit_norm(self, rng):
        img = rng.random((10, 10))
        out = extract_features(img, "zncc-patch", patch_radius=1)
        norms = np.linalg.norm(out, axis=-1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-5)
        np.testing.assert_allclose(out.sum(axis=-1), 0.0, atol=1e-5)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            extract_features(np.ones((4, 4)), "census")

    def test_empty_image_rejected(self):
        with pytest.raises(ValueError):
            extract_features(np.ones((0, 4)), "intensity")


def tiny_grid(ranges, bearings, valid=None):
    """WarpGrid stub with explicit polar lookups."""
    ranges = np.asarray(ranges, dtype=float)
    if valid is None:
        valid = np.ones(ranges.shape, dtype=bool)
    return WarpGrid(ranges=ranges, bearings=np.asarray(bearings, dtype=float),
                    valid=np.asarray(valid, dtype=bool))


def bin_grid(spec, range_bins, bearing_bins, valid=None):
    """WarpGrid stub looking up the given (range-bin, bearing-bin) coordinates;
    integer coordinates are bin centers."""
    ranges = spec.range_min + (np.asarray(range_bins) + 0.5) * spec.range_bin_size
    bearings = -spec.bearing_fov / 2 + (np.asarray(bearing_bins) + 0.5) * spec.bearing_bin_size
    return tiny_grid(ranges, bearings, valid)


def warp_values(grid, sonar_map, spec):
    """Warped sonar intensities read through the builder: -cost under neg-dot
    with unit intensity camera features."""
    camera = np.ones(grid.shape[:2] + (1,), dtype=np.float32)
    vol = build_cost_volume(camera, sonar_map[:, :, None], grid, spec, "neg-dot")
    return -vol.costs, vol.valid


class TestWarpSonarFeatures:
    def test_lookup_at_bin_center(self, rig):
        spec = rig.sonar
        sonar_map = np.zeros((spec.range_bins, spec.bearing_bins), dtype=np.float32)
        sonar_map[10, 5] = 0.75
        warped, valid = warp_values(bin_grid(spec, [[[10]]], [[[5]]]), sonar_map, spec)
        assert valid[0, 0, 0]
        assert warped[0, 0, 0] == pytest.approx(0.75, abs=1e-6)

    def test_midpoint_averages_two_bins(self, rig):
        spec = rig.sonar
        sonar_map = np.zeros((spec.range_bins, spec.bearing_bins), dtype=np.float32)
        sonar_map[10, 5] = 0.2
        sonar_map[11, 5] = 0.6
        d = spec.range_min + 11.0 * spec.range_bin_size  # midway between centers 10 and 11
        th = -spec.bearing_fov / 2 + 5.5 * spec.bearing_bin_size
        warped, _ = warp_values(tiny_grid([[[d]]], [[[th]]]), sonar_map, spec)
        assert warped[0, 0, 0] == pytest.approx(0.4, abs=1e-6)

    def test_constant_map_warps_constant(self, rig, rng):
        spec = rig.sonar
        sonar_map = np.full((spec.range_bins, spec.bearing_bins), 0.31, dtype=np.float32)
        d = rng.uniform(spec.range_min, spec.range_max, size=(4, 5, 6))
        th = rng.uniform(-spec.bearing_fov / 2, spec.bearing_fov / 2, size=(4, 5, 6))
        warped, valid = warp_values(tiny_grid(d, th), sonar_map, spec)
        assert valid.all()
        np.testing.assert_allclose(warped, 0.31, atol=1e-6)

    def test_matches_map_coordinates(self, rig, rng):
        # Bilinear sampling checked against scipy's order-1 interpolation.
        spec = rig.sonar
        n = 19
        sonar_map = rng.random((spec.range_bins, spec.bearing_bins)).astype(np.float32)
        rb = rng.uniform(0, spec.range_bins - 1, size=(3, 4, n))
        bb = rng.uniform(0, spec.bearing_bins - 1, size=(3, 4, n))
        warped, _ = warp_values(bin_grid(spec, rb, bb), sonar_map, spec)
        expected = ndimage.map_coordinates(sonar_map.astype(np.float64), [rb, bb], order=1)
        np.testing.assert_allclose(warped, expected, atol=1e-5)

    def test_dimension_mismatch(self, rig):
        grid = tiny_grid([[[1.0]]], [[[0.0]]])
        with pytest.raises(ValueError):
            build_cost_volume(np.ones((1, 1, 1)), np.ones((4, 4, 1)), grid, rig.sonar, "sad")


class TestBuildCostVolume:
    def test_sad_identical_is_zero(self, rig, rng):
        # Each pixel's two planes look up bins holding its own camera feature.
        spec = rig.sonar
        sonar = rng.random((spec.range_bins, spec.bearing_bins, 5)).astype(np.float32)
        rbins = rng.integers(0, spec.range_bins, size=(3, 4, 1)).repeat(2, axis=2)
        bbins = rng.integers(0, spec.bearing_bins, size=(3, 4, 1)).repeat(2, axis=2)
        camera = sonar[rbins[..., 0], bbins[..., 0]]
        vol = build_cost_volume(camera, sonar, bin_grid(spec, rbins, bbins), spec, "sad")
        assert vol.valid.all()
        np.testing.assert_allclose(vol.costs, 0.0, atol=1e-5)

    def test_neg_dot_extremes(self, rig):
        spec = rig.sonar
        camera = np.array([[[1.0, 0.0]]], dtype=np.float32)
        sonar = np.zeros((spec.range_bins, spec.bearing_bins, 2), dtype=np.float32)
        sonar[3, 4] = [0.0, 1.0]   # orthogonal
        sonar[7, 8] = [1.0, 0.0]   # parallel
        grid = bin_grid(spec, [[[3, 7]]], [[[4, 8]]])
        vol = build_cost_volume(camera, sonar, grid, spec, "neg-dot")
        assert vol.costs[0, 0, 0] == pytest.approx(0.0, abs=1e-6)
        assert vol.costs[0, 0, 1] == pytest.approx(-1.0, abs=1e-6)

    def test_neg_zncc_undefined_for_degenerate(self, rig):
        spec = rig.sonar
        camera = np.ones((1, 1, 1), dtype=np.float32)  # F=1 has zero variance
        sonar = np.ones((spec.range_bins, spec.bearing_bins, 1), dtype=np.float32)
        vol = build_cost_volume(camera, sonar, bin_grid(spec, [[[3]]], [[[4]]]), spec,
                                "neg-zncc")
        assert not vol.valid[0, 0, 0]
        assert vol.costs[0, 0, 0] == INVALID_COST

    def test_channel_mismatch(self, rig):
        spec = rig.sonar
        with pytest.raises(ValueError):
            build_cost_volume(np.ones((1, 1, 3), np.float32),
                              np.ones((spec.range_bins, spec.bearing_bins, 4), np.float32),
                              tiny_grid([[[1.0]]], [[[0.0]]]), spec, "sad")

    def test_grid_mismatch(self, rig):
        spec = rig.sonar
        with pytest.raises(ValueError):
            build_cost_volume(np.ones((2, 2, 1), np.float32),
                              np.ones((spec.range_bins, spec.bearing_bins, 1), np.float32),
                              tiny_grid([[[1.0]]], [[[0.0]]]), spec, "sad")

    def test_invalid_entries_carry_sentinel(self, rig):
        # A masked grid entry goes invalid with the sentinel even where the
        # features would score; its unmasked neighbor is scored.
        spec = rig.sonar
        camera = np.ones((1, 1, 2), dtype=np.float32)
        sonar = np.ones((spec.range_bins, spec.bearing_bins, 2), dtype=np.float32)
        grid = tiny_grid([[[1.0, 2.0]]], [[[0.0, 0.0]]], valid=[[[True, False]]])
        vol = build_cost_volume(camera, sonar, grid, spec, "sad")
        np.testing.assert_array_equal(vol.valid, [[[True, False]]])
        assert vol.costs[0, 0, 0] == pytest.approx(0.0, abs=1e-6)
        assert vol.costs[0, 0, 1] == INVALID_COST
        assert np.all(np.isfinite(vol.costs))

    @pytest.mark.parametrize("metric", METRICS)
    def test_inadmissible_lookups_never_read(self, rig, rng, metric):
        # The builder reads ranges and bearings only where the grid is valid:
        # NaN everywhere else leaves the volume unchanged.
        spec = rig.sonar
        grid = build_warp_grid(rig.intrinsics, rig.extrinsics, rig.planes, spec,
                               shape=(6, 8), origin=(156, 116))
        assert grid.valid.any() and not grid.valid.all()
        holed = WarpGrid(ranges=np.where(grid.valid, grid.ranges, np.nan),
                         bearings=np.where(grid.valid, grid.bearings, np.nan), valid=grid.valid)
        camera = rng.random((6, 8, 3)).astype(np.float32)
        sonar = rng.random((spec.range_bins, spec.bearing_bins, 3)).astype(np.float32)
        want = build_cost_volume(camera, sonar, grid, spec, metric)
        got = build_cost_volume(camera, sonar, holed, spec, metric)
        np.testing.assert_array_equal(got.valid, want.valid)
        np.testing.assert_array_equal(got.costs, want.costs)


class TestRegularizeCostVolume:
    def test_radius_zero_identity(self, rng):
        costs = rng.random((4, 5, 3)).astype(np.float32)
        vol = CostVolume(costs=costs, valid=np.ones((4, 5, 3), bool))
        out = regularize_cost_volume(vol, radius=0)
        np.testing.assert_array_equal(out.costs, costs)

    def test_constant_slice_fixed_point(self):
        vol = CostVolume(costs=np.full((6, 6, 2), 0.8, np.float32), valid=np.ones((6, 6, 2), bool))
        out = regularize_cost_volume(vol, radius=1)
        np.testing.assert_allclose(out.costs, 0.8, atol=1e-6)

    def test_impulse_spreads_to_ninth(self):
        costs = np.zeros((7, 7, 1), dtype=np.float32)
        costs[3, 3, 0] = 1.0
        vol = CostVolume(costs=costs, valid=np.ones((7, 7, 1), bool))
        out = regularize_cost_volume(vol, radius=1)
        np.testing.assert_allclose(out.costs[2:5, 2:5, 0], 1.0 / 9.0, atol=1e-6)
        assert out.costs[0, 0, 0] == 0.0

    def test_mask_preserved_and_respected(self):
        costs = np.zeros((5, 5, 1), dtype=np.float32)
        valid = np.ones((5, 5, 1), bool)
        valid[2, 2, 0] = False
        costs[2, 2, 0] = INVALID_COST
        costs[2, 3, 0] = 0.9
        vol = regularize_cost_volume(CostVolume(costs=costs, valid=valid), radius=1)
        np.testing.assert_array_equal(vol.valid, valid)
        assert vol.costs[2, 2, 0] == INVALID_COST
        # neighbor means exclude the masked entry
        assert vol.costs[2, 3, 0] == pytest.approx(0.9 / 8.0, abs=1e-6)


class TestSoftArgmin:
    def test_delta_distribution(self):
        costs = np.full((1, 1, 5), 1e6, dtype=np.float32)
        costs[0, 0, 2] = 0.0
        vol = CostVolume(costs=costs, valid=np.ones((1, 1, 5), bool))
        distances = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        d_hat, probs, valid = soft_argmin(vol, distances)
        assert valid[0, 0]
        assert d_hat[0, 0] == pytest.approx(3.0, abs=1e-9)
        assert probs[0, 0].sum() == pytest.approx(1.0, abs=1e-9)

    def test_uniform_costs_give_mean(self):
        vol = CostVolume(costs=np.full((1, 1, 4), 2.5, np.float32), valid=np.ones((1, 1, 4), bool))
        distances = np.array([1.0, 2.0, 4.0, 9.0])
        d_hat, _, _ = soft_argmin(vol, distances)
        assert d_hat[0, 0] == pytest.approx(4.0, abs=1e-9)

    def test_shift_invariance(self, rng):
        costs = rng.random((3, 4, 6)).astype(np.float32)
        valid = np.ones((3, 4, 6), bool)
        distances = np.linspace(0.5, 5.0, 6)
        a, _, _ = soft_argmin(CostVolume(costs=costs, valid=valid), distances)
        b, _, _ = soft_argmin(CostVolume(costs=costs + 7.25, valid=valid), distances)
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_all_invalid_pixel_masked(self):
        costs = np.full((1, 2, 3), INVALID_COST, dtype=np.float32)
        valid = np.zeros((1, 2, 3), bool)
        valid[0, 1, 0] = True
        costs[0, 1, 0] = 1.0
        d_hat, probs, ok = soft_argmin(CostVolume(costs=costs, valid=valid), np.array([1.0, 2.0, 3.0]))
        assert not ok[0, 0] and ok[0, 1]
        assert d_hat[0, 0] == 0.0
        assert probs[0, 0].sum() == 0.0

    def test_softmax_over_valid_only(self):
        costs = np.array([[[0.0, 0.0, 5.0]]], dtype=np.float32)
        valid = np.array([[[True, False, True]]])
        _, probs, _ = soft_argmin(CostVolume(costs=costs, valid=valid), np.array([1.0, 2.0, 3.0]))
        assert probs[0, 0, 1] == 0.0
        assert probs[0, 0].sum() == pytest.approx(1.0, abs=1e-12)

    def test_permuting_planes_is_order_free(self, rng):
        costs = rng.random((2, 3, 8)).astype(np.float32)
        valid = rng.random((2, 3, 8)) > 0.2
        valid[..., 0] = True
        distances = np.linspace(0.5, 4.0, 8)
        a, _, _ = soft_argmin(CostVolume(costs=costs, valid=valid), distances)
        perm = rng.permutation(8)
        b, _, _ = soft_argmin(CostVolume(costs=costs[:, :, perm], valid=valid[:, :, perm]),
                              distances[perm])
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_sharpening_converges_to_argmin(self, rng):
        # The true limit form of cost sharpening: a large gain collapses the
        # softmax onto the best hypothesis. (Pointwise monotonicity in the
        # gain does not hold for N > 2: a fast-decaying competitor on the
        # argmin side can transiently push the expectation away.)
        costs = rng.random((3, 4, 6)).astype(np.float32)
        valid = np.ones((3, 4, 6), bool)
        distances = np.linspace(0.5, 5.0, 6)
        vol = CostVolume(costs=costs, valid=valid)
        sharp, _, _ = soft_argmin(scale_costs(vol, 1e6), distances)
        best = distances[np.argmin(costs, axis=2)]
        np.testing.assert_allclose(sharp, best, atol=1e-9)

    @given(lam1=st.floats(1.0, 40.0), lam2=st.floats(1.0, 40.0))
    @settings(max_examples=60)
    def test_sharpening_monotone_for_two_hypotheses(self, lam1, lam2):
        lo, hi = sorted((lam1, lam2))
        rng = np.random.default_rng(13)
        costs = rng.random((2, 2, 2)).astype(np.float32)
        valid = np.ones((2, 2, 2), bool)
        distances = np.array([1.0, 3.0])
        vol = CostVolume(costs=costs, valid=valid)
        a, _, _ = soft_argmin(scale_costs(vol, lo), distances)
        b, _, _ = soft_argmin(scale_costs(vol, hi), distances)
        best = distances[np.argmin(costs, axis=2)]
        assert np.all(np.abs(b - best) <= np.abs(a - best) + 1e-9)

    def test_bounds_convex_combination(self, rng):
        costs = rng.normal(size=(4, 4, 7)).astype(np.float32)
        valid = rng.random((4, 4, 7)) > 0.3
        valid[..., 3] = True
        costs = np.where(valid, costs, INVALID_COST).astype(np.float32)
        distances = np.linspace(0.5, 5.0, 7)
        d_hat, _, ok = soft_argmin(CostVolume(costs=costs, valid=valid), distances)
        assert np.all(d_hat[ok] >= distances[0] - 1e-12)
        assert np.all(d_hat[ok] <= distances[-1] + 1e-12)


class TestArgminPlanes:
    def test_tie_breaks_to_lowest_index(self):
        costs = np.array([[[3.0, 1.0, 1.0]]], dtype=np.float32)
        vol = CostVolume(costs=costs, valid=np.ones((1, 1, 3), bool))
        idx, ok = argmin_planes(vol)
        assert ok[0, 0] and idx[0, 0] == 1


class TestToFullFrame:
    def test_pastes_crop_at_origin(self):
        crop = DepthMap(depth=np.array([[1.0, 2.0], [3.0, 0.0]]),
                        valid=np.array([[True, True], [True, False]]))
        full = to_full_frame(crop, (3, 1), (4, 6))
        assert full.depth.shape == full.valid.shape == (4, 6)
        np.testing.assert_array_equal(full.depth[1:3, 3:5], crop.depth)
        np.testing.assert_array_equal(full.valid[1:3, 3:5], crop.valid)
        assert full.valid.sum() == 3 and full.depth.sum() == 6.0


class TestRegressDepthMap:
    def test_mask_propagates(self, rig):
        d_hat = np.full((4, 4), 2.0)
        valid = np.zeros((4, 4), bool)
        valid[1, 1] = True
        out = regress_depth_map(d_hat, valid, rig.intrinsics, rig.extrinsics, rig.planes.alpha)
        assert out.valid[1, 1] and out.valid.sum() == 1
        assert out.depth[0, 0] == 0.0

    def test_constant_dhat_matches_analytic_intersection(self, rig):
        # Identity extrinsics: depth per pixel follows the closed ray-plane
        # form t = d sin(a) / (n . dir), scaled to Euclidean by |dir|.
        intr = rig.intrinsics
        alpha = 0.7
        d_hat = np.full((intr.height, intr.width), 2.0)
        out = regress_depth_map(d_hat, np.ones_like(d_hat, bool), intr,
                                RigidTransform.identity(), alpha)
        normal = np.array([0.0, math.cos(alpha), math.sin(alpha)])
        vs, us = np.meshgrid(np.arange(intr.height, dtype=float),
                             np.arange(intr.width, dtype=float), indexing="ij")
        dirs = intr.ray_directions(us, vs)
        t = 2.0 * math.sin(alpha) / (dirs @ normal)
        expected = np.abs(t) * np.linalg.norm(dirs, axis=-1)
        np.testing.assert_allclose(out.depth[out.valid], expected[out.valid], rtol=1e-12)

    def test_true_plane_distances_reproduce_simulator_depth(self, rig):
        # Scene = hypothesis plane 24 exactly; every pixel's true plane
        # distance is d_24, so regression must reproduce the ray-cast depth.
        i0 = 24
        scene = Scene(primitives=(hypothesis_plane_primitive(rig.planes, i0),))
        _, gt = render_camera(scene, rig.intrinsics, rig.extrinsics)
        d_hat = np.full(gt.depth.shape, rig.planes.distance(i0))
        out = regress_depth_map(d_hat, gt.valid, rig.intrinsics, rig.extrinsics,
                                rig.planes.alpha)
        both = out.valid & gt.valid
        assert both.mean() > 0.9
        np.testing.assert_allclose(out.depth[both], gt.depth[both], rtol=1e-6)


@pytest.fixture(scope="module")
def default_run():
    """One full pipeline run on the stock scene, shared across tests."""
    rig = default_rig()
    scene = default_scene()
    cam_img, gt = render_camera(scene, rig.intrinsics, rig.extrinsics)
    sonar = render_sonar(scene, rig.sonar)
    prepared, window = prepare_camera(cam_img, rig.intrinsics, rig.sonar, rig.extrinsics)
    depth, volume = run_pipeline(prepared, sonar, rig, SweepConfig(),
                                 origin=(window.u0, window.v0))
    return rig, gt, sonar, prepared, window, depth, volume


class TestRunPipeline:
    def test_deterministic(self, default_run):
        rig, _, sonar, prepared, window, depth, volume = default_run
        depth2, volume2 = run_pipeline(prepared, sonar, rig, SweepConfig(),
                                       origin=(window.u0, window.v0))
        np.testing.assert_array_equal(depth.depth, depth2.depth)
        np.testing.assert_array_equal(depth.valid, depth2.valid)
        np.testing.assert_array_equal(volume.costs, volume2.costs)

    def test_all_black_camera_masked_never_nan(self, default_run):
        rig, _, sonar, prepared, window, _, _ = default_run
        black = np.zeros_like(prepared)
        depth, volume = run_pipeline(black, sonar, rig, SweepConfig(),
                                     origin=(window.u0, window.v0))
        assert not depth.valid.any()
        assert np.all(np.isfinite(depth.depth))
        assert np.all(np.isfinite(volume.costs))

    def test_argmin_matches_ground_truth_planes(self, default_run):
        # Cost argmin lands within one plane of the true hypothesis for at
        # least 80% of valid pixels on the clean default scene.
        rig, gt, _, _, window, _, volume = default_run
        sl = window.slice()
        intr, extr, planes = rig.intrinsics, rig.extrinsics, rig.planes
        h, w = gt.depth.shape
        vs, us = np.meshgrid(np.arange(h, dtype=float), np.arange(w, dtype=float), indexing="ij")
        rays = intr.ray_directions(us, vs)
        n_cam = extr.rotation @ planes.normal()
        z = gt.depth / np.linalg.norm(rays, axis=-1)
        d_true = (z * (rays @ n_cam) - n_cam @ extr.translation) / math.sin(planes.alpha)
        d_true = d_true[sl]
        gt_idx = np.abs(np.log(np.maximum(d_true, 1e-9))[..., None]
                        - np.log(planes.distances())).argmin(axis=-1)
        idx, ok = argmin_planes(volume)
        usable = ok & gt.valid[sl] & (d_true > 0)
        assert usable.sum() > 5000
        hit = (np.abs(idx - gt_idx)[usable] <= 1).mean()
        assert hit >= 0.80

    def test_depth_positive_and_in_range(self, default_run):
        _, _, _, _, _, depth, _ = default_run
        assert np.all(depth.depth[depth.valid] > 0)
        assert np.all(depth.depth[depth.valid] < 10.0)
