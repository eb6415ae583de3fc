import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from oasweep import geometry, sweep
from oasweep.config import default_rig
from oasweep.formats import encode_cost_volume
from oasweep.geometry import PlaneHypothesisSet, build_warp_grid
from scipy import ndimage

from oasweep.simulator import PolarSonarImage, Scene, default_scene, render_camera, render_sonar
from oasweep.preprocess import CropWindow, prepare_camera
from oasweep.sweep import (
    METRICS,
    DepthMap,
    SweepConfig,
    build_cost_volume,
    extract_features,
    live_cells,
    regress_depth_map,
    regularize_cost_volume,
    run_pipeline,
    scale_costs,
    soft_argmin,
    to_full_frame,
)

from conftest import (
    argmin_planes,
    compact_grid,
    compact_volume,
    compact,
    dense_cost_volume,
    dense_encode_cost_volume,
    dense_lookups,
    dense_regularize,
    dense_soft_argmin,
    dense_warp_grid,
    dense_zncc_patches,
    densify,
    flat_soft_argmin,
    geometry_prior_chain,
    grazing_rig,
    hypothesis_plane_primitive,
    identity_transform,
    plane_normal,
    random_calibration,
    stock_inputs,
    turned_camera,
)


class TestSweepConfig:
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_cost_scale_positive_and_finite(self, value):
        with pytest.raises(ValueError):
            SweepConfig(cost_scale=value)

    def test_neg_zncc_refuses_the_intensity_extractor(self):
        # A one-channel feature has no centred norm, so neg-zncc scores none.
        with pytest.raises(ValueError, match="intensity"):
            SweepConfig(extractor="intensity")
        SweepConfig(extractor="intensity", metric="sad")

    @pytest.mark.parametrize("metric", METRICS)
    def test_zncc_patch_refuses_radius_zero(self, metric):
        # A one-pixel patch is always the zero vector: no metric could tell
        # the planes apart.
        with pytest.raises(ValueError, match="patch radius"):
            SweepConfig(patch_radius=0, metric=metric)
        SweepConfig(extractor="gradient", patch_radius=0, metric=metric)


class TestExtractFeatures:
    def test_intensity_passthrough(self, rng):
        img = rng.random((6, 9))
        out = extract_features(img, "intensity", 0)
        assert out.shape == (6, 9, 1)
        np.testing.assert_allclose(out[:, :, 0], img, rtol=1e-6)

    def test_gradient_of_ramp(self):
        u = np.tile(np.arange(12, dtype=float), (8, 1))
        out = extract_features(u, "gradient", 0)
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

    @pytest.mark.parametrize("shape, radius, kind", [
        pytest.param((10, 10), 1, "flat-band", id="shape0-1"),
        pytest.param((24, 38), 2, "flat-band", id="shape1-2"),
        pytest.param((3, 50), 4, "flat-band", id="shape2-4"),
        pytest.param((40, 30), 2, "sparse", id="sparse-echoes"),
        pytest.param((5, 12), 7, "sparse", id="radius-taller-than-image"),
        pytest.param((30, 40), 2, "dense-raw", id="dense-raw"),
        pytest.param((30, 40), 2, "negative", id="negative-rows"),
    ])
    def test_zncc_matches_whole_image_oracle(self, rng, shape, radius, kind):
        # Row by row, skipping the rows whose input band holds only +-0.0,
        # gives the same bytes as every patch at once.
        if kind == "flat-band":  # the band holds the zero vectors of degenerate patches
            img = rng.random(shape)
            img[:, : shape[1] // 3] = 0.25
        elif kind == "sparse":  # +0.0 and -0.0, with an echo on two rows
            img = np.where(rng.random(shape) < 0.3, -0.0, 0.0)
            rows = rng.choice(shape[0], size=2, replace=False)
            img[rows, rng.integers(0, shape[1], size=2)] = rng.uniform(0.2, 1.0, size=2)
        elif kind == "negative":  # rows of -0.0, and two rows of negative values only
            img = np.zeros(shape)
            img[rng.choice(shape[0], size=6, replace=False)] = -0.0
            rows = rng.choice(shape[0], size=2, replace=False)
            img[rows] = -rng.uniform(0.2, 1.0, size=(2, shape[1]))
        else:  # a raw noisy map: no row is skipped
            img = rng.random(shape)
        got = extract_features(img, "zncc-patch", patch_radius=radius)
        want = dense_zncc_patches(img, radius)
        assert got.tobytes() == want.tobytes()
        computed = want.any(axis=(1, 2))
        if kind in ("sparse", "negative"):  # features exactly within r rows of an echo
            echo_rows = np.flatnonzero(np.any(img != 0, axis=1))
            near = np.abs(np.arange(shape[0])[:, None] - echo_rows).min(axis=1) <= radius
            np.testing.assert_array_equal(computed, near)
        else:
            assert computed.all()
        if kind == "flat-band":
            assert not want[:, 0].any()

    @pytest.mark.parametrize("kind", sweep.EXTRACTORS)
    @pytest.mark.parametrize("marked", ["none", "first", "last", "bands", "all"])
    def test_rows_hold_the_whole_images_features(self, rng, kind, marked):
        # The marked rows hold the whole image's features, edge rows
        # included; every other row is +0.0.
        img = rng.random((20, 9))
        rows = np.zeros(20, dtype=bool)
        rows[{"none": [], "first": [0], "last": [19], "bands": [1, 2, 3, 9, 15, 16],
              "all": slice(None)}[marked]] = True
        whole = extract_features(img, kind, 2)
        got = extract_features(img, kind, 2, rows=rows)
        assert got.tobytes() == np.where(rows[:, None, None], whole, np.float32(0.0)).tobytes()

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            extract_features(np.ones((4, 4)), "census", 0)

    def test_empty_image_rejected(self):
        with pytest.raises(ValueError):
            extract_features(np.ones((0, 4)), "intensity", 0)


def bin_grid(rb, bb, valid=None):
    """WarpGrid stub looking up the given dense (H, W, N) (range-bin, bearing-bin)
    coordinates; integer coordinates are bin centers."""
    rb = np.asarray(rb, dtype=float)
    if valid is None:
        valid = np.ones(rb.shape, dtype=bool)
    return compact_grid(rb, bb, valid)


def warp_values(grid, sonar_map):
    """Warped sonar intensities read through the builder: -cost under neg-dot
    with unit intensity camera features."""
    camera = np.ones(grid.shape[:2] + (1,), dtype=np.float32)
    sonar = sonar_map[:, :, None]
    vol = build_cost_volume(camera, sonar, grid, "neg-dot")
    return -densify(vol.costs, vol.valid), vol.valid


# The sparse feature maps' 16 x 8 bins.
SPARSE_BINS = (16, 8)


def sparse_sonar(case, rng):
    """A 3-channel SPARSE_BINS feature map, +0.0 except at the bins the case names."""
    r, b = SPARSE_BINS
    sonar = np.zeros((r, b, 3), dtype=np.float32)
    if case == "single":
        sonar[7, 3] = rng.uniform(0.5, 1.0, size=3)
    elif case == "last-range-row":
        sonar[r - 1, 3] = rng.uniform(0.5, 1.0, size=3)
    elif case == "last-bearing-column":
        sonar[7, b - 1] = rng.uniform(0.5, 1.0, size=3)
    elif case == "last-corner":
        sonar[r - 1, b - 1] = rng.uniform(0.5, 1.0, size=3)
    elif case == "all-nonzero":
        sonar[:] = rng.uniform(0.5, 1.0, size=sonar.shape) * rng.choice([-1, 1], size=sonar.shape)
    elif case == "negative-zero":
        sonar[7:9, 3:5] = -0.0
        sonar[r - 1, b - 1] = -0.0
        sonar[2, 1] = [-0.0, 0.5, 0.0]
    else:
        assert case == "all-zero"
    return sonar


class TestWarpSonarFeatures:
    def test_lookup_at_bin_center(self, rig):
        spec = rig.sonar
        sonar_map = np.zeros((spec.range_bins, spec.bearing_bins), dtype=np.float32)
        sonar_map[10, 5] = 0.75
        warped, valid = warp_values(bin_grid([[[10]]], [[[5]]]), sonar_map)
        assert valid[0, 0, 0]
        assert warped[0, 0, 0] == pytest.approx(0.75, abs=1e-6)

    def test_midpoint_averages_two_bins(self, rig):
        spec = rig.sonar
        sonar_map = np.zeros((spec.range_bins, spec.bearing_bins), dtype=np.float32)
        sonar_map[10, 5] = 0.2
        sonar_map[11, 5] = 0.6
        warped, _ = warp_values(bin_grid([[[10.5]]], [[[5]]]), sonar_map)
        assert warped[0, 0, 0] == pytest.approx(0.4, abs=1e-6)

    def test_constant_map_warps_constant(self, rig, rng):
        spec = rig.sonar
        sonar_map = np.full((spec.range_bins, spec.bearing_bins), 0.31, dtype=np.float32)
        rb = rng.uniform(0, spec.range_bins - 1, size=(4, 5, 6))
        bb = rng.uniform(0, spec.bearing_bins - 1, size=(4, 5, 6))
        rb[0, 0, :2], bb[0, 0, :2] = (0, spec.range_bins - 1), (spec.bearing_bins - 1, 0)
        warped, valid = warp_values(bin_grid(rb, bb), sonar_map)
        assert valid.all()
        np.testing.assert_allclose(warped, 0.31, atol=1e-6)

    def test_matches_map_coordinates(self, rig, rng):
        # Bilinear sampling checked against scipy's order-1 interpolation.
        spec = rig.sonar
        n = 19
        sonar_map = rng.random((spec.range_bins, spec.bearing_bins)).astype(np.float32)
        rb = rng.uniform(0, spec.range_bins - 1, size=(3, 4, n))
        bb = rng.uniform(0, spec.bearing_bins - 1, size=(3, 4, n))
        warped, _ = warp_values(bin_grid(rb, bb), sonar_map)
        expected = ndimage.map_coordinates(sonar_map.astype(np.float64), [rb, bb], order=1)
        np.testing.assert_allclose(warped, expected, atol=1e-5)

    def test_dimension_mismatch(self, rig):
        # A lookup of the rig's sonar, on the axis at 1 m, reaches past a 4x4 map.
        grid = bin_grid(*rig.sonar.polar_to_bin([[[1.0]]], [[[0.0]]]))
        with pytest.raises(ValueError):
            build_cost_volume(np.ones((1, 1, 1)), np.ones((4, 4, 1)), grid, "sad")

    @pytest.mark.parametrize("rb, bb", [(15.0 + 1e-9, 0.0), (0.0, 7.0 + 1e-9), (-1e-9, 0.0),
                                        (0.0, -0.5), (np.nan, 0.0), (0.0, np.nan)],
                             ids=["past-last-row", "past-last-column", "before-first-row",
                                  "before-first-column", "nan-row", "nan-column"])
    def test_lookups_off_the_map_rejected_before_sampling(self, monkeypatch, rb, bb):
        # The last in-map lookups are (15, 7) on a 16 x 8 map; a grid that
        # leaves it, however little, is refused before any sample is read.
        def unreachable(*args):
            raise AssertionError("sampled a grid that leaves the map")
        monkeypatch.setattr(sweep, "_bilinear_sample", unreachable)
        sonar = np.ones(SPARSE_BINS + (1,), dtype=np.float32)
        grid = bin_grid([[[15.0, rb]]], [[[7.0, bb]]])
        with pytest.raises(ValueError, match="outside the 16x8 sonar map"):
            build_cost_volume(np.ones((1, 1, 1)), sonar, grid, "sad")


class TestBuildCostVolume:
    def test_sad_identical_is_zero(self, rig, rng):
        # Each pixel's two planes look up bins holding its own camera feature.
        spec = rig.sonar
        sonar = rng.random((spec.range_bins, spec.bearing_bins, 5)).astype(np.float32)
        rbins = rng.integers(0, spec.range_bins, size=(3, 4, 1)).repeat(2, axis=2)
        bbins = rng.integers(0, spec.bearing_bins, size=(3, 4, 1)).repeat(2, axis=2)
        camera = sonar[rbins[..., 0], bbins[..., 0]]
        vol = build_cost_volume(camera, sonar, bin_grid(rbins, bbins), "sad")
        assert vol.valid.all()
        np.testing.assert_allclose(vol.costs, 0.0, atol=1e-5)

    def test_neg_dot_extremes(self, rig):
        spec = rig.sonar
        camera = np.array([[[1.0, 0.0]]], dtype=np.float32)
        sonar = np.zeros((spec.range_bins, spec.bearing_bins, 2), dtype=np.float32)
        sonar[3, 4] = [0.0, 1.0]   # orthogonal
        sonar[7, 8] = [1.0, 0.0]   # parallel
        grid = bin_grid([[[3, 7]]], [[[4, 8]]])
        vol = build_cost_volume(camera, sonar, grid, "neg-dot")
        costs = densify(vol.costs, vol.valid)
        assert costs[0, 0, 0] == pytest.approx(0.0, abs=1e-6)
        assert costs[0, 0, 1] == pytest.approx(-1.0, abs=1e-6)

    def test_neg_zncc_undefined_for_degenerate(self, rig):
        spec = rig.sonar
        camera = np.ones((1, 1, 1), dtype=np.float32)  # F=1 has zero variance
        sonar = np.ones((spec.range_bins, spec.bearing_bins, 1), dtype=np.float32)
        vol = build_cost_volume(camera, sonar, bin_grid([[[3]]], [[[4]]]), "neg-zncc")
        assert not vol.valid[0, 0, 0]
        assert vol.costs.size == 0

    def test_channel_mismatch(self, rig):
        spec = rig.sonar
        with pytest.raises(ValueError):
            build_cost_volume(np.ones((1, 1, 3), np.float32),
                              np.ones((spec.range_bins, spec.bearing_bins, 4), np.float32),
                              bin_grid([[[1.0]]], [[[0.0]]]), "sad")

    def test_grid_mismatch(self, rig):
        spec = rig.sonar
        with pytest.raises(ValueError):
            build_cost_volume(np.ones((2, 2, 1), np.float32),
                              np.ones((spec.range_bins, spec.bearing_bins, 1), np.float32),
                              bin_grid([[[1.0]]], [[[0.0]]]), "sad")

    def test_invalid_entries_hold_no_cost(self, rig):
        # A masked grid entry goes invalid and holds no cost even where the
        # features would score; its unmasked neighbor is scored.
        spec = rig.sonar
        camera = np.ones((1, 1, 2), dtype=np.float32)
        sonar = np.ones((spec.range_bins, spec.bearing_bins, 2), dtype=np.float32)
        grid = bin_grid([[[1.0, 2.0]]], [[[0.0, 0.0]]], valid=[[[True, False]]])
        vol = build_cost_volume(camera, sonar, grid, "sad")
        np.testing.assert_array_equal(vol.valid, [[[True, False]]])
        assert vol.costs.shape == (1,)
        assert vol.costs[0] == pytest.approx(0.0, abs=1e-6)
        assert np.all(np.isfinite(vol.costs))

    @pytest.mark.parametrize("metric", METRICS)
    def test_inadmissible_lookups_never_read(self, rig, rng, metric):
        # A grid holds lookups at valid entries only: NaN lookups everywhere
        # else in the dense layout compact to the same grid and volume.
        spec = rig.sonar
        grid = build_warp_grid(rig.intrinsics, rig.extrinsics, rig.planes, spec,
                               shape=(6, 8), origin=(156, 116), echo=None)
        assert grid.valid.any() and not grid.valid.all()
        holed = compact_grid(*dense_lookups(grid), grid.valid)
        assert holed.rb.tobytes() == grid.rb.tobytes()
        assert holed.bb.tobytes() == grid.bb.tobytes()
        camera = rng.random((6, 8, 3)).astype(np.float32)
        sonar = rng.random((spec.range_bins, spec.bearing_bins, 3)).astype(np.float32)
        want = build_cost_volume(camera, sonar, grid, metric)
        got = build_cost_volume(camera, sonar, holed, metric)
        np.testing.assert_array_equal(got.valid, want.valid)
        np.testing.assert_array_equal(got.costs, want.costs)

    @pytest.mark.parametrize("case", ["single", "last-range-row", "last-bearing-column",
                                      "last-corner", "all-zero", "all-nonzero",
                                      "negative-zero"])
    @pytest.mark.parametrize("metric", METRICS)
    def test_sparse_sonar_matches_dense_oracle(self, rng, metric, case):
        # Every quarter-bin lookup over bin coordinates [0, R - 1] x [0, B - 1]
        # (the last row and column included), one per pixel. Plane j shifts
        # the lookups by j pixels, so each one meets a camera feature of each
        # kind: zero, constant, negative, -0.0 and generic; some are masked.
        r, b = SPARSE_BINS
        rb, bb = np.meshgrid(np.arange(4 * r - 3) / 4, np.arange(4 * b - 3) / 4, indexing="ij")
        camera = rng.normal(size=rb.shape + (3,)).astype(np.float32)
        kind = np.arange(rb.size).reshape(rb.shape) % 5
        camera[kind == 0] = 0.0
        camera[kind == 1] = 1.0
        camera[kind == 2] = -np.abs(camera[kind == 2])
        camera[kind == 3] = -0.0
        grid = bin_grid(np.stack([np.roll(rb, j) for j in range(5)], axis=-1),
                        np.stack([np.roll(bb, j) for j in range(5)], axis=-1),
                        valid=rng.random(rb.shape + (5,)) < 0.9)
        sonar = sparse_sonar(case, rng)
        got = build_cost_volume(camera, sonar, grid, metric)
        want = dense_cost_volume(camera, sonar, grid, metric)
        assert got.costs.tobytes() == want.costs.tobytes()
        np.testing.assert_array_equal(got.valid, want.valid)

    @pytest.mark.parametrize("config", [SweepConfig(),
                                        SweepConfig(metric="neg-dot", zero_sonar_features=True)],
                             ids=["default", "neg-dot-ablation"])
    def test_stock_crop_matches_dense_oracle(self, rig, config):
        # The stock scene's camera crop against a background-subtracted noisy
        # frame (speckle 0.15, background 0.03), as the benchmark sweeps it.
        prepared, window, frame = stock_inputs(rig)
        cam = extract_features(prepared.astype(np.float64) / 255.0, config.extractor,
                               config.patch_radius)
        son = extract_features(frame.values, config.extractor, config.patch_radius)
        if config.zero_sonar_features:
            son = np.zeros_like(son)
        grid = build_warp_grid(rig.intrinsics, rig.extrinsics, rig.planes, rig.sonar,
                               shape=prepared.shape, origin=(window.u0, window.v0), echo=None)
        got = build_cost_volume(cam, son, grid, config.metric)
        want = dense_cost_volume(cam, son, grid, config.metric)
        assert got.valid.any()
        assert got.costs.tobytes() == want.costs.tobytes()
        np.testing.assert_array_equal(got.valid, want.valid)
        # The regularizer's per-plane crops equal whole-slice filtering here too.
        got = regularize_cost_volume(got, config.box_radius, config.box_passes)
        want = dense_regularize(want, config.box_radius, config.box_passes)
        assert got.costs.tobytes() == want.costs.tobytes()
        np.testing.assert_array_equal(got.valid, want.valid)

    @pytest.mark.parametrize("frame", range(4))
    def test_echo_grid_volume_equals_full_grid_volume_on_pool_frames(self, rig, monkeypatch,
                                                                      frame):
        # Under neg-zncc run_pipeline builds the stock crop's grid cut to the
        # live cells, and the camera features of the rows that grid admits
        # only: on each of the benchmark's pool frames its cost volume is the
        # full grid's, bit for bit, from under 5% of its lookups (3.8% on
        # frame 0).
        prepared, window, sonar = stock_inputs(rig, frame)
        origin = (window.u0, window.v0)
        seen = {}

        def capture(*args):
            seen["grid"], seen["volume"] = args[2], build_cost_volume(*args)
            return seen["volume"]
        monkeypatch.setattr(sweep, "build_cost_volume", capture)
        run_pipeline(prepared, sonar, rig, SweepConfig(), origin=origin)
        son = extract_features(sonar.values, "zncc-patch", 2)
        grid = build_warp_grid(rig.intrinsics, rig.extrinsics, rig.planes, rig.sonar,
                               shape=prepared.shape, origin=origin, echo=None)
        want = build_cost_volume(extract_features(prepared / 255.0, "zncc-patch", 2), son, grid,
                                 "neg-zncc")
        assert want.valid.any()
        assert np.count_nonzero(seen["grid"].valid) < 0.05 * np.count_nonzero(grid.valid)
        assert seen["volume"].costs.tobytes() == want.costs.tobytes()
        np.testing.assert_array_equal(seen["volume"].valid, want.valid)


class TestRegularizeCostVolume:
    def test_radius_zero_identity(self, rng):
        costs = rng.random((4, 5, 3)).astype(np.float32)
        vol = compact_volume(costs, np.ones((4, 5, 3), bool))
        out = regularize_cost_volume(vol, radius=0, passes=1)
        np.testing.assert_array_equal(densify(out.costs, out.valid), costs)

    @pytest.mark.parametrize("shape", [(0, 0, 3), (4, 5, 3)], ids=["zero-size", "no-entries"])
    def test_volume_without_entries_unchanged(self, shape):
        vol = compact_volume(np.zeros(shape, np.float32), np.zeros(shape, bool))
        out = regularize_cost_volume(vol, radius=3, passes=2)
        assert out.shape == shape and out.costs.size == 0

    def test_constant_slice_fixed_point(self):
        vol = compact_volume(np.full((6, 6, 2), 0.8, np.float32), np.ones((6, 6, 2), bool))
        out = regularize_cost_volume(vol, radius=1, passes=1)
        np.testing.assert_allclose(densify(out.costs, out.valid), 0.8, atol=1e-6)

    def test_impulse_spreads_to_ninth(self):
        costs = np.zeros((7, 7, 1), dtype=np.float32)
        costs[3, 3, 0] = 1.0
        vol = compact_volume(costs, np.ones((7, 7, 1), bool))
        out = densify(regularize_cost_volume(vol, radius=1, passes=1).costs, vol.valid)
        np.testing.assert_allclose(out[2:5, 2:5, 0], 1.0 / 9.0, atol=1e-6)
        assert out[0, 0, 0] == 0.0

    def test_mask_preserved_and_respected(self):
        costs = np.zeros((5, 5, 1), dtype=np.float32)
        valid = np.ones((5, 5, 1), bool)
        valid[2, 2, 0] = False
        costs[2, 2, 0] = 1e9  # dropped with its entry
        costs[2, 3, 0] = 0.9
        vol = regularize_cost_volume(compact_volume(costs, valid), radius=1,
                                     passes=1)
        np.testing.assert_array_equal(vol.valid, valid)
        out = densify(vol.costs, vol.valid)
        assert np.isnan(out[2, 2, 0]) and vol.costs.size == 24
        # neighbor means exclude the masked entry
        assert out[2, 3, 0] == pytest.approx(0.9 / 8.0, abs=1e-6)

    @pytest.mark.parametrize("passes", [1, 2, 3])
    @pytest.mark.parametrize("radius", [1, 2, 3, 9, 15])
    def test_crops_match_dense_oracle(self, rng, radius, passes):
        # A 9 x 13 slice per plane: empty, fully valid, single entries in each
        # corner (boxes narrower than the filter, touching two borders), a
        # band touching the top and bottom borders, a band touching the left
        # and right borders, a random mask touching every border, and one
        # interior entry. Radius 9 and 15 reach past the whole slice.
        h, w = 9, 13
        valid = np.zeros((h, w, 10), dtype=bool)
        valid[:, :, 1] = True
        for i, (v, u) in enumerate([(0, 0), (0, w - 1), (h - 1, 0), (h - 1, w - 1)]):
            valid[v, u, 2 + i] = True
        valid[:, 5:7, 6] = True
        valid[3:5, :, 7] = True
        valid[:, :, 8] = rng.random((h, w)) < 0.3
        valid[[0, -1], :, 8] = valid[:, [0, -1], 8] = True
        valid[4, 6, 9] = True
        costs = rng.normal(scale=10.0, size=valid.shape).astype(np.float32)
        vol = compact_volume(costs, valid)
        got = regularize_cost_volume(vol, radius, passes)
        want = dense_regularize(vol, radius, passes)
        assert got.costs.tobytes() == want.costs.tobytes()
        np.testing.assert_array_equal(got.valid, valid)


class TestSoftArgmin:
    def test_delta_distribution(self):
        costs = np.full((1, 1, 5), 1e6, dtype=np.float32)
        costs[0, 0, 2] = 0.0
        vol = compact_volume(costs, np.ones((1, 1, 5), bool))
        distances = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        d_hat, probs, valid = soft_argmin(vol, distances)
        assert valid[0, 0]
        assert d_hat[0, 0] == pytest.approx(3.0, abs=1e-9)
        assert densify(probs, vol.valid, 0.0)[0, 0].sum() == pytest.approx(1.0, abs=1e-9)

    def test_uniform_costs_give_mean(self):
        vol = compact_volume(np.full((1, 1, 4), 2.5, np.float32), np.ones((1, 1, 4), bool))
        distances = np.array([1.0, 2.0, 4.0, 9.0])
        d_hat, _, _ = soft_argmin(vol, distances)
        assert d_hat[0, 0] == pytest.approx(4.0, abs=1e-9)

    def test_shift_invariance(self, rng):
        costs = rng.random((3, 4, 6)).astype(np.float32)
        valid = np.ones((3, 4, 6), bool)
        distances = np.linspace(0.5, 5.0, 6)
        a, _, _ = soft_argmin(compact_volume(costs, valid), distances)
        b, _, _ = soft_argmin(compact_volume(costs + 7.25, valid), distances)
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_all_invalid_pixel_masked(self):
        costs = np.full((1, 2, 3), 1e9, dtype=np.float32)
        valid = np.zeros((1, 2, 3), bool)
        valid[0, 1, 0] = True
        costs[0, 1, 0] = 1.0
        d_hat, probs, ok = soft_argmin(compact_volume(costs, valid), np.array([1.0, 2.0, 3.0]))
        assert not ok[0, 0] and ok[0, 1]
        assert d_hat[0, 0] == 0.0
        assert densify(probs, valid, 0.0)[0, 0].sum() == 0.0

    def test_softmax_over_valid_only(self):
        costs = np.array([[[0.0, 0.0, 5.0]]], dtype=np.float32)
        valid = np.array([[[True, False, True]]])
        _, probs, _ = soft_argmin(compact_volume(costs, valid), np.array([1.0, 2.0, 3.0]))
        probs = densify(probs, valid, 0.0)
        assert probs[0, 0, 1] == 0.0
        assert probs[0, 0].sum() == pytest.approx(1.0, abs=1e-12)

    def test_permuting_planes_is_order_free(self, rng):
        costs = rng.random((2, 3, 8)).astype(np.float32)
        valid = rng.random((2, 3, 8)) > 0.2
        valid[..., 0] = True
        distances = np.linspace(0.5, 4.0, 8)
        a, _, _ = soft_argmin(compact_volume(costs, valid), distances)
        perm = rng.permutation(8)
        b, _, _ = soft_argmin(compact_volume(costs[:, :, perm], valid[:, :, perm]),
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
        vol = compact_volume(costs, valid)
        sharp, _, _ = soft_argmin(scale_costs(vol, 1e6), distances)
        best = distances[np.argmin(costs, axis=2)]
        np.testing.assert_allclose(sharp, best, atol=1e-9)

    @pytest.mark.parametrize("gain, cost", [(1e300, 0.5), (3e38, 2.0)],
                             ids=["gain-past-float32", "product-past-float32"])
    def test_scale_overflow_raises(self, gain, cost):
        # A gain past the float32 range, or a finite gain whose product
        # overflows, raises instead of handing inf costs on.
        vol = compact_volume(np.array([[[cost, -cost]]], np.float32), np.ones((1, 1, 2), bool))
        with pytest.raises(FloatingPointError):
            scale_costs(vol, gain)

    @given(lam1=st.floats(1.0, 40.0), lam2=st.floats(1.0, 40.0))
    @settings(max_examples=60)
    def test_sharpening_monotone_for_two_hypotheses(self, lam1, lam2):
        lo, hi = sorted((lam1, lam2))
        rng = np.random.default_rng(13)
        costs = rng.random((2, 2, 2)).astype(np.float32)
        valid = np.ones((2, 2, 2), bool)
        distances = np.array([1.0, 3.0])
        vol = compact_volume(costs, valid)
        a, _, _ = soft_argmin(scale_costs(vol, lo), distances)
        b, _, _ = soft_argmin(scale_costs(vol, hi), distances)
        best = distances[np.argmin(costs, axis=2)]
        assert np.all(np.abs(b - best) <= np.abs(a - best) + 1e-9)

    def test_bounds_convex_combination(self, rng):
        costs = rng.normal(size=(4, 4, 7)).astype(np.float32)
        valid = rng.random((4, 4, 7)) > 0.3
        valid[..., 3] = True
        distances = np.linspace(0.5, 5.0, 7)
        d_hat, _, ok = soft_argmin(compact_volume(costs, valid), distances)
        assert np.all(d_hat[ok] >= distances[0] - 1e-12)
        assert np.all(d_hat[ok] <= distances[-1] + 1e-12)


class TestSoftArgminMatchesFlatOracle:
    @given(seed=st.integers(0, 2**32 - 1), shape=st.tuples(st.integers(1, 4), st.integers(3, 6)),
           n=st.integers(1, 7), ties=st.booleans(), plane_major=st.booleans(),
           gain=st.one_of(st.floats(0.5, 100.0), st.floats(1e37, 3.4e38)))
    @settings(max_examples=100, deadline=None)
    def test_same_bytes(self, seed, shape, n, ties, plane_major, gain):
        # Pixels with no, one and every plane valid; tied costs; and gains up to
        # float32 overflow (|cost| <= 1, so scale_costs does not raise).
        rng = np.random.default_rng(seed)
        valid = rng.random(shape + (n,)) < 0.5
        valid[0, :3] = False
        valid[0, 1, rng.integers(n)] = True
        valid[0, 2] = True
        if plane_major:
            valid = np.moveaxis(np.ascontiguousarray(np.moveaxis(valid, 2, 0)), 0, 2)
        costs = (rng.integers(-2, 3, size=valid.shape) / 2 if ties
                 else rng.uniform(-1.0, 1.0, size=valid.shape)).astype(np.float32)
        volume = scale_costs(compact_volume(costs, valid), gain)
        distances = np.sort(rng.uniform(0.5, 5.0, size=n))
        got, want = soft_argmin(volume, distances), flat_soft_argmin(volume, distances)
        assert got[2][0, 1] and got[2][0, 2] and not got[2][0, 0]
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def rig_with_planes(width, height, n):
    """default_rig(width, height) with n planes over the stock span: same first
    and last plane, so k**(n-1) is unchanged."""
    rig = default_rig(width, height)
    c = rig.planes
    return dataclasses.replace(rig, planes=PlaneHypothesisSet(
        alpha=c.alpha, d0=c.d0, k=c.k ** ((c.n - 1) / (n - 1)), n=n))


@pytest.fixture(scope="class", params=[(320, 240, 48), (320, 240, 95), (640, 480, 96)],
                ids=["stock", "95-planes", "640x480-96-planes"])
def swept_rig(request):
    """A rig, its stock inputs and its warp grid, shared by the configs swept on it."""
    rig = rig_with_planes(*request.param)
    prepared, window, frame = stock_inputs(rig)
    grid = build_warp_grid(rig.intrinsics, rig.extrinsics, rig.planes, rig.sonar,
                           shape=prepared.shape, origin=(window.u0, window.v0), echo=None)
    return rig, prepared.astype(np.float64) / 255.0, frame, grid


class TestSoftArgminMatchesDenseOracle:
    @pytest.mark.parametrize("config", [SweepConfig(),
                                        SweepConfig(metric="neg-dot", zero_sonar_features=True),
                                        SweepConfig(extractor="intensity", metric="sad")],
                             ids=["default", "neg-dot-ablation", "intensity-sad"])
    def test_within_n_ulp(self, swept_rig, config):
        # Each pixel's softmax over its own entries sums in another order than
        # the dense float64 buffer's reductions, so d_hat may differ in its
        # last bits: by at most N ulp; the pixel mask is the same.
        rig, camera, frame, grid = swept_rig
        son = extract_features(frame.values, config.extractor, config.patch_radius)
        if config.zero_sonar_features:
            son = np.zeros_like(son)
        volume = build_cost_volume(extract_features(camera, config.extractor, config.patch_radius),
                                   son, grid, config.metric)
        volume = scale_costs(regularize_cost_volume(volume, config.box_radius, config.box_passes),
                             config.cost_scale)
        distances = rig.planes.distances()
        d_hat, probs, ok = soft_argmin(volume, distances)
        want, want_probs, want_ok = dense_soft_argmin(volume, distances)
        assert ok.any()
        np.testing.assert_array_equal(ok, want_ok)
        assert not d_hat[~ok].any()
        n = rig.planes.n
        assert np.all(np.abs(d_hat - want) <= n * np.spacing(want))
        want_probs = compact(want_probs, volume.valid)
        assert np.all(np.abs(probs - want_probs) <= n * np.spacing(want_probs))
        # The plane walk gives the bytes of the flat one-pass oracle.
        for got, flat in zip((d_hat, probs, ok), flat_soft_argmin(volume, distances)):
            assert got.tobytes() == flat.tobytes()


@pytest.fixture(scope="class")
def traced_dense():
    """A stock neg-dot run_pipeline under tracemalloc: the traced level above the
    inputs when soft_argmin starts, the sizes of the arrays the cost volume
    consumed, and the scaled volume soft_argmin was given. The zero sonar vector
    scores under neg-dot, so the grid has no echo term and the volume keeps
    every warp-valid entry, soft_argmin's heaviest input."""
    rig = default_rig()
    prepared, window, frame = stock_inputs(rig)
    config = SweepConfig(metric="neg-dot")
    seen = {"features": []}

    def features(*args, **kwargs):
        out = extract_features(*args, **kwargs)
        seen["features"].append(out.nbytes)
        return out

    def grid(*args, **kwargs):
        out = build_warp_grid(*args, **kwargs)
        seen["lookups"] = out.rb.nbytes + out.bb.nbytes
        return out

    def softargmin(volume, distances):
        seen["level"] = tracemalloc.get_traced_memory()[0] - seen["base"]
        seen["volume"] = volume
        return soft_argmin(volume, distances)

    with pytest.MonkeyPatch.context() as patch:
        for name, fn in (("extract_features", features), ("build_warp_grid", grid),
                         ("soft_argmin", softargmin)):
            patch.setattr(sweep, name, fn)
        tracemalloc.start()
        try:
            seen["base"] = tracemalloc.get_traced_memory()[0]
            run_pipeline(prepared, frame, rig, config, origin=(window.u0, window.v0))
        finally:
            tracemalloc.stop()
    return rig, seen


class TestLiveSet:
    """Each big array is held only while a later stage reads it (tracemalloc sizes)."""

    def test_soft_argmin_starts_without_features_or_grid(self, traced_dense):
        # When soft_argmin starts, the pipeline holds the regularized volume and
        # its scaled copy (one set of pixel lists between them), and less than
        # one more (H, W) float64 buffer: not the sonar or camera features, nor
        # the grid's lookups.
        _, seen = traced_dense
        volume = seen["volume"]
        h, w, _ = volume.shape
        released = seen["features"] + [seen["lookups"]]
        assert len(released) == 3 and min(released) > 8 * h * w
        assert seen["level"] <= 2 * volume.costs.nbytes + volume.pixels.nbytes + 8 * h * w

    def test_soft_argmin_peak_is_probs_plus_one_index(self, traced_dense):
        # Its own peak: the float64 probabilities, one int64 pixel index per entry,
        # and a few (H, W) float64 buffers; no per-entry gather or weight.
        rig, seen = traced_dense
        volume = seen["volume"]
        h, w, _ = volume.shape
        assert volume.costs.size == np.count_nonzero(volume.valid) > 10 * h * w
        tracemalloc.start()
        try:
            level = tracemalloc.get_traced_memory()[0]
            d_hat, probs, ok = soft_argmin(volume, rig.planes.distances())
            peak = tracemalloc.get_traced_memory()[1] - level
        finally:
            tracemalloc.stop()
        assert ok.any()
        assert peak <= probs.nbytes + 8 * volume.costs.size + 6 * 8 * h * w


class TestThreadCountInvariance:
    """The sweep's bytes do not depend on how many CPUs share its planes."""

    @pytest.mark.parametrize("config", [SweepConfig(),
                                        SweepConfig(metric="neg-dot", zero_sonar_features=True)],
                             ids=["default", "neg-dot-ablation"])
    @pytest.mark.parametrize("n", [48, 95], ids=["stock", "95-planes"])
    def test_same_bytes_on_1_and_3_cpus(self, monkeypatch, n, config):
        rig = rig_with_planes(320, 240, n)
        prepared, window, frame = stock_inputs(rig)
        outputs = []
        for cpus in (1, 3):
            monkeypatch.setattr(geometry, "usable_cpus", lambda: cpus)
            depth, volume = run_pipeline(prepared, frame, rig, config,
                                         origin=(window.u0, window.v0))
            outputs.append([a.tobytes() for a in (depth.depth, depth.valid, volume.costs,
                                                  np.moveaxis(volume.valid, 2, 0))])
        assert depth.valid.any()
        assert outputs[0] == outputs[1]


def random_rig_window(rng, rig_kind):
    """A random_calibration of the kind near, far or far-unaimed, and a window of
    2x2 to 40x40 centred, as far as the image allows, on a pixel of a 4-pixel
    lattice that the dense oracle admits on some plane (anywhere if it admits
    none: a far camera not aimed at the sonar mostly sees nothing, which keeps
    the empty chain checked)."""
    rig = random_calibration(rng, far=rig_kind != "near", aimed=rig_kind != "far-unaimed")
    intr = rig.intrinsics
    _, _, admitted = dense_warp_grid(intr, rig.extrinsics, rig.planes, rig.sonar, step=4)
    pixels = 4 * np.argwhere(admitted.any(axis=2))
    if pixels.size:
        v, u = pixels[rng.integers(len(pixels))]
    else:
        v, u = rng.integers(intr.height), rng.integers(intr.width)
    # Two pixels a side at least: the gradient extractor needs them.
    h, w = (int(rng.integers(2, 41)) for _ in range(2))
    return rig, CropWindow(u0=int(np.clip(u - w // 2, 0, intr.width - w)),
                           v0=int(np.clip(v - h // 2, 0, intr.height - h)), width=w, height=h)


def random_rig_chain(rig, camera, sonar_map, window, extractor, patch_radius, metric,
                     radius, passes):
    """Features, warp grid, cost volume, regularized and scaled volumes and the
    soft_argmin of one window, as run_pipeline chains them."""
    features = [extract_features(image, extractor, patch_radius) for image in (camera, sonar_map)]
    grid = build_warp_grid(rig.intrinsics, rig.extrinsics, rig.planes, rig.sonar,
                           shape=camera.shape, origin=(window.u0, window.v0), echo=None)
    volume = build_cost_volume(*features, grid, metric)
    regularized = regularize_cost_volume(volume, radius, passes)
    scaled = scale_costs(regularized, SweepConfig().cost_scale)
    return features, grid, volume, regularized, scaled, soft_argmin(scaled, rig.planes.distances())


def chain_bytes(chain):
    """The bytes of every array random_rig_chain returns."""
    _, grid, volume, regularized, _, out = chain
    return [a.tobytes() for a in (grid.rb, grid.bb, grid.valid, volume.costs,
                                  volume.valid, regularized.costs, *out)]


class TestRandomRig:
    """The whole chain against its oracles on random rigs, which reach shapes the
    stock rig never does (split plane runs, far cameras, narrow or wide sectors)."""

    @given(seed=st.integers(0, 2**32 - 1),
           rig_kind=st.sampled_from(["near", "far", "far-unaimed"]),
           live=st.sampled_from([0.005, 0.05, 0.5]),
           extractor=st.sampled_from(sweep.EXTRACTORS), patch_radius=st.integers(0, 2),
           radius=st.integers(1, 3), passes=st.integers(1, 2))
    @settings(max_examples=30, deadline=None)
    def test_chain_matches_oracles(self, seed, rig_kind, live, extractor, patch_radius, radius,
                                   passes):
        # A random rig and window (random_rig_window), a random camera image
        # and a 128x64 sonar map of +0.0, -0.0 and live cells.
        rng = np.random.default_rng(seed)
        rig, window = random_rig_window(rng, rig_kind)
        camera = rng.random((window.height, window.width))
        spec = rig.sonar
        sonar_map = np.where(rng.random((spec.range_bins, spec.bearing_bins)) < live,
                             rng.random((spec.range_bins, spec.bearing_bins)), 0.0)
        sonar_map[(sonar_map == 0) & (rng.random(sonar_map.shape) < 0.5)] = -0.0
        distances, n = rig.planes.distances(), rig.planes.n
        for metric in METRICS:
            args = (rig, camera, sonar_map, window, extractor, patch_radius, metric, radius,
                    passes)
            chain = random_rig_chain(*args)
            features, grid, volume, regularized, scaled, (d_hat, probs, ok) = chain
            if metric == METRICS[0]:
                event(f"{rig_kind} rig, window admits "
                      f"{'some entry' if grid.valid.any() else 'none'}")
            want = dense_cost_volume(*features, grid, metric)
            assert volume.costs.tobytes() == want.costs.tobytes()
            np.testing.assert_array_equal(volume.valid, want.valid)
            if metric == "neg-zncc":
                # A dead cell scores nothing here: the grid cut to the live
                # cells gives the same volume.
                live = live_cells(features[1])
                cut = build_warp_grid(rig.intrinsics, rig.extrinsics, rig.planes, spec,
                                      shape=camera.shape, origin=(window.u0, window.v0),
                                      echo=live)
                assert not np.any(cut.valid & ~grid.valid)
                got = build_cost_volume(*features, cut, metric)
                assert got.costs.tobytes() == volume.costs.tobytes()
                np.testing.assert_array_equal(got.valid, volume.valid)
            want = dense_regularize(volume, radius, passes)
            assert regularized.costs.tobytes() == want.costs.tobytes()
            np.testing.assert_array_equal(regularized.valid, want.valid)
            # The tolerances of the stock-rig soft_argmin tests.
            want, want_probs, want_ok = dense_soft_argmin(scaled, distances)
            np.testing.assert_array_equal(ok, want_ok)
            assert not d_hat[~ok].any()
            assert np.all(np.abs(d_hat - want) <= n * np.spacing(want))
            want_probs = compact(want_probs, scaled.valid)
            assert np.all(np.abs(probs - want_probs) <= n * np.spacing(want_probs))
            for got, flat in zip((d_hat, probs, ok), flat_soft_argmin(scaled, distances)):
                assert got.tobytes() == flat.tobytes()
            # The same bytes whatever the number of CPUs sharing the planes.
            for cpus in (1, 3):
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(geometry, "usable_cpus", lambda: cpus)
                    assert chain_bytes(random_rig_chain(*args)) == chain_bytes(chain)


BOXES = [(3, 2), (0, 0), (9, 3)]


class TestGeometryPrior:
    """run_pipeline's closed-form geometry prior (zero_sonar_features) against the
    general chain on zero sonar features, conftest's geometry_prior_chain."""

    @staticmethod
    def assert_matches_chain(camera, sonar, rig, config, origin):
        depth, volume = run_pipeline(camera, sonar, rig, config, origin=origin)
        want_depth, want = geometry_prior_chain(camera, sonar.values, rig, config, origin)
        assert depth.depth.tobytes() == want_depth.depth.tobytes()
        assert depth.valid.tobytes() == want_depth.valid.tobytes()
        assert np.moveaxis(volume.valid, 2, 0).flags.c_contiguous
        np.testing.assert_array_equal(volume.valid, want.valid)
        if config.box_radius and config.box_passes:
            assert volume.costs.tobytes() == want.costs.tobytes()
        else:  # the chain's unregularized costs carry the camera features' signs
            assert not np.signbit(volume.costs).any()
            np.testing.assert_array_equal(volume.costs, want.costs)
        return depth

    @pytest.mark.parametrize("box", BOXES, ids=[f"box-{r}x{p}" for r, p in BOXES])
    @pytest.mark.parametrize("extractor", ["zncc-patch", "gradient"])
    def test_matches_chain_on_swept_rigs(self, swept_rig, extractor, box):
        rig, camera, frame, grid = swept_rig
        config = SweepConfig(extractor=extractor, metric="neg-dot", box_radius=box[0],
                             box_passes=box[1], zero_sonar_features=True)
        window = stock_inputs(rig)[1]
        depth = self.assert_matches_chain(camera, frame, rig, config, (window.u0, window.v0))
        assert depth.valid.any()

    @given(seed=st.integers(0, 2**32 - 1),
           rig_kind=st.sampled_from(["near", "far", "far-unaimed"]),
           extractor=st.sampled_from(["zncc-patch", "gradient"]), box=st.sampled_from(BOXES))
    @settings(max_examples=30, deadline=None)
    def test_matches_chain_on_random_rigs(self, seed, rig_kind, extractor, box):
        # The rigs and windows of TestRandomRig, a random camera image and a
        # random sonar frame; neither is read.
        rng = np.random.default_rng(seed)
        rig, window = random_rig_window(rng, rig_kind)
        camera = rng.random((window.height, window.width))
        spec = rig.sonar
        sonar = PolarSonarImage(values=rng.random((spec.range_bins, spec.bearing_bins)),
                                spec=spec)
        config = SweepConfig(extractor=extractor, metric="neg-dot", box_radius=box[0],
                             box_passes=box[1], zero_sonar_features=True)
        depth = self.assert_matches_chain(camera, sonar, rig, config, (window.u0, window.v0))
        event(f"{rig_kind} rig, prior {'valid' if depth.valid.any() else 'empty'}")

    @pytest.mark.parametrize("metric", ["sad", "neg-zncc"])
    def test_needs_neg_dot(self, metric):
        # Only under neg-dot is every cost against the zero vector 0.
        with pytest.raises(ValueError, match="neg-dot"):
            SweepConfig(metric=metric, zero_sonar_features=True)

    @pytest.mark.parametrize("bins", [(-1, 0), (0, 1)], ids=["fewer-range-bins",
                                                            "more-bearing-bins"])
    def test_mismatched_sonar_frame_raises(self, default_run, bins):
        rig, _, _, prepared, window, _, _ = default_run
        spec = dataclasses.replace(rig.sonar, range_bins=rig.sonar.range_bins + bins[0],
                                   bearing_bins=rig.sonar.bearing_bins + bins[1])
        frame = PolarSonarImage(values=np.zeros((spec.range_bins, spec.bearing_bins)),
                                spec=spec)
        config = SweepConfig(metric="neg-dot", zero_sonar_features=True)
        with pytest.raises(ValueError, match="sonar frame"):
            run_pipeline(prepared, frame, rig, config, origin=(window.u0, window.v0))


    def test_empty_camera_raises(self, default_run):
        # As the chain's camera feature extraction raised.
        rig, _, sonar, _, window, _, _ = default_run
        config = SweepConfig(metric="neg-dot", zero_sonar_features=True)
        with pytest.raises(ValueError, match="nonempty 2-D"):
            run_pipeline(np.zeros((0, 5)), sonar, rig, config, origin=(window.u0, window.v0))


class TestArgminPlanes:
    def test_tie_breaks_to_lowest_index(self):
        costs = np.array([[[3.0, 1.0, 1.0]]], dtype=np.float32)
        vol = compact_volume(costs, np.ones((1, 1, 3), bool))
        idx, ok = argmin_planes(vol)
        assert ok[0, 0] and idx[0, 0] == 1


class TestToFullFrame:
    def test_pastes_crop_at_origin(self):
        crop = DepthMap(depth=np.array([[1.0, 2.0], [3.0, 0.0]]),
                        valid=np.array([[True, True], [True, False]]))
        full = to_full_frame(crop, CropWindow(u0=3, v0=1, width=2, height=2), (4, 6))
        assert full.depth.shape == full.valid.shape == (4, 6)
        np.testing.assert_array_equal(full.depth[1:3, 3:5], crop.depth)
        np.testing.assert_array_equal(full.valid[1:3, 3:5], crop.valid)
        assert full.valid.sum() == 3 and full.depth.sum() == 6.0


class TestRegressDepthMap:
    def test_mask_propagates(self, rig):
        d_hat = np.full((4, 4), 2.0)
        valid = np.zeros((4, 4), bool)
        valid[1, 1] = True
        out = regress_depth_map(d_hat, valid, rig.intrinsics, rig.extrinsics, rig.planes.alpha,
                                origin=(0, 0))
        assert out.valid[1, 1] and out.valid.sum() == 1
        assert out.depth[0, 0] == 0.0

    def test_constant_dhat_matches_analytic_intersection(self, rig):
        # Identity extrinsics: depth per pixel follows the closed ray-plane
        # form t = d sin(a) / (n . dir), scaled to Euclidean by |dir|.
        intr = rig.intrinsics
        alpha = 0.7
        d_hat = np.full((intr.height, intr.width), 2.0)
        out = regress_depth_map(d_hat, np.ones_like(d_hat, bool), intr,
                                identity_transform(), alpha, origin=(0, 0))
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
        d_hat = np.full(gt.depth.shape, rig.planes.distances()[i0 - 1])
        out = regress_depth_map(d_hat, gt.valid, rig.intrinsics, rig.extrinsics,
                                rig.planes.alpha, origin=(0, 0))
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
        n_cam = extr.rotation @ plane_normal(planes)
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

    def test_masks_are_plane_major(self, default_run):
        # The (H, W, N) masks that the valid property builds from the pixel
        # lists keep each plane contiguous, as the lists do.
        rig, _, _, prepared, window, _, volume = default_run
        grid = build_warp_grid(rig.intrinsics, rig.extrinsics, rig.planes, rig.sonar,
                               shape=prepared.shape, origin=(window.u0, window.v0), echo=None)
        for mask in (grid.valid, volume.valid):
            assert mask.shape == prepared.shape + (rig.planes.n,)
            assert np.moveaxis(mask, 2, 0).flags.c_contiguous

    def test_no_stage_builds_the_dense_mask(self, default_run, monkeypatch):
        # Every stage reads the per-plane pixel lists; the (H, W, N) mask is
        # built only for oracles and tracing. With its builder made to raise,
        # the fused, sad and geometry-prior runs and the SSCV1 encoder still
        # run, and the default run and its file keep their bytes.
        rig, _, sonar, prepared, window, depth, volume = default_run
        encoded = dense_encode_cost_volume(volume)

        def refuse(entries):
            raise AssertionError("a stage built the dense entry mask")

        monkeypatch.setattr(geometry.PlaneEntries, "valid", property(refuse))
        origin = (window.u0, window.v0)
        for config in (SweepConfig(), SweepConfig(extractor="intensity", metric="sad"),
                       SweepConfig(metric="neg-dot", zero_sonar_features=True)):
            got, got_volume = run_pipeline(prepared, sonar, rig, config, origin=origin)
            assert got.valid.any() and got_volume.costs.size
            blocks = encode_cost_volume(got_volume)
            if config == SweepConfig():
                assert got.depth.tobytes() == depth.depth.tobytes()
                assert got_volume.costs.tobytes() == volume.costs.tobytes()
                assert b"".join(blocks) == encoded

    def test_geometry_prior_never_reads_the_camera(self, default_run, rng):
        # The sonar-zeroed neg-dot pass scores every admissible entry 0, so its
        # depth is the geometry prior alone: the same bytes for the prepared
        # stock crop and for a random image.
        rig, _, sonar, prepared, window, _, _ = default_run
        config = SweepConfig(metric="neg-dot", zero_sonar_features=True)
        noise = rng.integers(0, 256, size=prepared.shape, dtype=np.uint8)
        outputs = []
        for image in (prepared, noise):
            depth, _ = run_pipeline(image, sonar, rig, config, origin=(window.u0, window.v0))
            outputs.append((depth.depth.tobytes(), depth.valid.tobytes()))
        assert depth.valid.any()
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("config", [SweepConfig(), SweepConfig(metric="neg-dot",
                                                                   zero_sonar_features=True)],
                             ids=["fused", "geometry-prior"])
    def test_sonar_frame_must_match_the_rig(self, default_run, config):
        # A frame with more bins than the rig would be sampled with the rig's
        # bin geometry; both paths refuse it.
        rig, _, _, prepared, window, _, _ = default_run
        spec = dataclasses.replace(rig.sonar, range_bins=rig.sonar.range_bins + 16,
                                   bearing_bins=rig.sonar.bearing_bins + 76)
        frame = PolarSonarImage(values=np.zeros((spec.range_bins, spec.bearing_bins)),
                                spec=spec)
        with pytest.raises(ValueError, match="does not match the rig's"):
            run_pipeline(prepared, frame, rig, config, origin=(window.u0, window.v0))

    @pytest.mark.parametrize("config", [SweepConfig(), SweepConfig(metric="neg-dot",
                                                                   zero_sonar_features=True)],
                             ids=["fused", "geometry-prior"])
    def test_frame_of_another_sonar_refused(self, default_run, config):
        # Same bins, wider aperture: swept with the rig's bearing geometry,
        # every echo would land at the wrong bearing. Both paths refuse it.
        rig, _, sonar, prepared, window, _, _ = default_run
        spec = dataclasses.replace(rig.sonar, bearing_fov=np.deg2rad(90.0))
        assert spec.bearing_fov != rig.sonar.bearing_fov
        frame = PolarSonarImage(values=sonar.values, spec=spec)
        with pytest.raises(ValueError, match="sonar frame .* does not match the rig's"):
            run_pipeline(prepared, frame, rig, config, origin=(window.u0, window.v0))

    @pytest.mark.parametrize("extractor", ["zncc-patch", "intensity"])
    def test_ablation_extracts_no_sonar_features(self, default_run, monkeypatch, extractor):
        # The geometry-prior ablation is computed in closed form: no extraction
        # runs, camera or sonar, nor any later matching stage, and the volume
        # has the bytes of the chain run on zeroed sonar features.
        rig, _, sonar, prepared, window, _, _ = default_run
        config = SweepConfig(extractor=extractor, metric="neg-dot", zero_sonar_features=True)
        origin = (window.u0, window.v0)
        camera = prepared.astype(np.float64) / 255.0
        grid = build_warp_grid(rig.intrinsics, rig.extrinsics, rig.planes, rig.sonar,
                               shape=prepared.shape, origin=origin, echo=None)
        son = np.zeros_like(extract_features(sonar.values, extractor, config.patch_radius))
        want = build_cost_volume(extract_features(camera, extractor, config.patch_radius), son,
                                 grid, config.metric)
        want = regularize_cost_volume(want, config.box_radius, config.box_passes)
        called = []
        for name in ("extract_features", "build_cost_volume", "regularize_cost_volume",
                     "scale_costs", "soft_argmin"):
            monkeypatch.setattr(sweep, name,
                                lambda *args, name=name, stage=getattr(sweep, name), **kwargs:
                                called.append(name) or stage(*args, **kwargs))
        _, volume = run_pipeline(prepared, sonar, rig, config, origin=origin)
        assert called == []
        assert volume.costs.tobytes() == want.costs.tobytes()
        np.testing.assert_array_equal(volume.valid, want.valid)

    def test_depth_positive_and_in_range(self, default_run):
        _, _, _, _, _, depth, _ = default_run
        assert np.all(depth.depth[depth.valid] > 0)
        assert np.all(depth.depth[depth.valid] < 10.0)

    def test_camera_facing_away_masks_everything(self, rng):
        # No ray meets a plane inside the sonar sector: every entry and every
        # pixel is masked, quietly.
        rig = turned_camera(default_rig())
        camera = rng.random((rig.intrinsics.height, rig.intrinsics.width))
        sonar = render_sonar(default_scene(), rig.sonar)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            depth, volume = run_pipeline(camera, sonar, rig, SweepConfig(), origin=(0, 0))
        assert not depth.valid.any() and not depth.depth.any()
        assert not volume.valid.any() and volume.costs.size == 0

    def test_grazing_row_masked_quietly(self):
        # Pixel row v = cy runs parallel to the plane family: it is masked
        # without a warning, and the volume is valid only where the oracle's
        # warp grid is.
        rig = grazing_rig()
        scene = default_scene()
        camera, _ = render_camera(scene, rig.intrinsics, rig.extrinsics)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            depth, volume = run_pipeline(camera, render_sonar(scene, rig.sonar), rig,
                                         SweepConfig(), origin=(0, 0))
        row = int(rig.intrinsics.cy)
        assert depth.valid.any() and not depth.valid[row].any()
        assert not volume.valid[row].any()
        _, _, want = dense_warp_grid(rig.intrinsics, rig.extrinsics, rig.planes, rig.sonar)
        assert not np.any(volume.valid & ~want)
