import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oasweep.evaluation import (
    MetricsReport,
    compute_metrics,
    error_bins_csv,
    error_vs_distance,
)
from oasweep.sweep import DepthMap


def depth_map(values, valid=None):
    values = np.asarray(values, dtype=float)
    if valid is None:
        valid = values > 0
    return DepthMap(depth=values, valid=np.asarray(valid, dtype=bool))


class TestComputeMetrics:
    def test_perfect_prediction(self, rng):
        gt = depth_map(rng.uniform(0.5, 5.0, size=(8, 8)))
        m = compute_metrics(gt, gt)
        assert (m.abs_rel, m.abs_diff, m.rmse, m.a1) == (0.0, 0.0, 0.0, 1.0)
        assert m.valid_pixel_count == 64

    def test_hand_computed_fixture(self):
        pred = depth_map([[1.0, 2.0]])
        gt = depth_map([[1.0, 4.0]])
        m = compute_metrics(pred, gt)
        assert m.abs_rel == pytest.approx(0.25, abs=0)
        assert m.abs_diff == pytest.approx(1.0, abs=0)
        assert m.rmse == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert m.a1 == pytest.approx(0.5, abs=0)

    @given(c=st.floats(0.1, 50.0))
    @settings(max_examples=50)
    def test_scale_homogeneity(self, c):
        rng = np.random.default_rng(5)
        p = rng.uniform(0.5, 5.0, size=(6, 6))
        g = rng.uniform(0.5, 5.0, size=(6, 6))
        m1 = compute_metrics(depth_map(p), depth_map(g))
        m2 = compute_metrics(depth_map(c * p), depth_map(c * g))
        assert m2.abs_rel == pytest.approx(m1.abs_rel, rel=1e-9)
        assert m2.a1 == m1.a1
        assert m2.abs_diff == pytest.approx(c * m1.abs_diff, rel=1e-9)
        assert m2.rmse == pytest.approx(c * m1.rmse, rel=1e-9)

    def test_a1_symmetric_in_pred_gt(self, rng):
        p = rng.uniform(0.5, 5.0, size=(7, 7))
        g = rng.uniform(0.5, 5.0, size=(7, 7))
        assert compute_metrics(depth_map(p), depth_map(g)).a1 == \
            compute_metrics(depth_map(g), depth_map(p)).a1

    def test_rmse_at_least_abs_diff(self, rng):
        for _ in range(50):
            p = rng.uniform(0.2, 8.0, size=40)
            g = rng.uniform(0.2, 8.0, size=40)
            m = compute_metrics(depth_map(p.reshape(5, 8)), depth_map(g.reshape(5, 8)))
            assert m.rmse >= m.abs_diff - 1e-12

    def test_masked_pixels_excluded(self):
        pred = depth_map([[1.0, 99.0]], valid=[[True, False]])
        gt = depth_map([[1.0, 1.0]])
        m = compute_metrics(pred, gt)
        assert m.valid_pixel_count == 1
        assert m.abs_diff == 0.0

    def test_no_overlap_raises(self):
        pred = depth_map([[1.0]], valid=[[False]])
        gt = depth_map([[1.0]])
        with pytest.raises(ValueError):
            compute_metrics(pred, gt)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            compute_metrics(depth_map([[1.0]]), depth_map([[1.0, 2.0]]))

    def test_report_table_column_order(self):
        m = MetricsReport(abs_rel=0.1, abs_diff=0.2, rmse=0.3, a1=0.9, valid_pixel_count=10)
        header = m.format_table().splitlines()[0]
        assert header.index("Abs Rel") < header.index("Abs Diff") < header.index("RMSE") < header.index("a1")


class TestErrorVsDistance:
    def test_single_bin_equals_abs_diff(self, rng):
        p = rng.uniform(0.5, 5.0, size=(6, 6))
        g = rng.uniform(0.5, 5.0, size=(6, 6))
        m = compute_metrics(depth_map(p), depth_map(g))
        mae, counts = error_vs_distance(depth_map(p), depth_map(g), [0.0, 10.0])
        assert mae[0] == pytest.approx(m.abs_diff, rel=1e-12)
        assert counts[0] == 36

    def test_perfect_prediction_zero_bins(self, rng):
        g = depth_map(rng.uniform(0.5, 5.0, size=(5, 5)))
        mae, _ = error_vs_distance(g, g, [0.0, 2.5, 10.0])
        np.testing.assert_array_equal(mae[~np.isnan(mae)], 0.0)

    def test_constructed_two_bin_case(self):
        gt = depth_map([[1.0, 1.0, 3.0, 3.0]])
        pred = depth_map([[1.1, 0.9, 3.3, 2.7]])
        mae, counts = error_vs_distance(pred, gt, [0.0, 2.0, 4.0])
        np.testing.assert_allclose(mae, [0.1, 0.3], atol=1e-12)
        np.testing.assert_array_equal(counts, [2, 2])

    def test_empty_bins_flagged(self):
        gt = depth_map([[1.0]])
        pred = depth_map([[1.5]])
        mae, counts = error_vs_distance(pred, gt, [0.0, 2.0, 4.0])
        assert not np.isnan(mae[0]) and np.isnan(mae[1])
        assert counts[1] == 0

    def test_counts_reconstruct_abs_diff(self, rng):
        p = rng.uniform(0.5, 5.0, size=(9, 9))
        g = rng.uniform(0.5, 5.0, size=(9, 9))
        edges = [0.0, 1.0, 2.0, 3.0, 10.0]
        mae, counts = error_vs_distance(depth_map(p), depth_map(g), edges)
        total = np.nansum(mae * counts) / counts.sum()
        m = compute_metrics(depth_map(p), depth_map(g))
        assert total == pytest.approx(m.abs_diff, abs=1e-12)

    def test_inclusive_top_edge(self):
        gt = depth_map([[2.0]])
        pred = depth_map([[2.2]])
        mae, counts = error_vs_distance(pred, gt, [1.0, 2.0])
        assert counts[0] == 1 and mae[0] == pytest.approx(0.2)

    def test_non_monotone_edges_rejected(self):
        with pytest.raises(ValueError):
            error_vs_distance(depth_map([[1.0]]), depth_map([[1.0]]), [2.0, 1.0])

    @pytest.mark.parametrize("edges", [[0.0, np.nan, 5.0], [np.nan, 1.0], [0.0, np.inf]])
    def test_non_finite_edges_rejected(self, edges):
        with pytest.raises(ValueError):
            error_vs_distance(depth_map([[1.0]]), depth_map([[1.0]]), edges)

    def test_csv_format(self):
        csv = error_bins_csv([0.0, 1.0, 2.0], np.array([0.5, np.nan]), np.array([3, 0]))
        lines = csv.strip().splitlines()
        assert lines[0] == "bin_lo,bin_hi,mae,count"
        assert lines[1] == "0.0,1.0,0.5,3"
        assert lines[2] == "1.0,2.0,nan,0"
