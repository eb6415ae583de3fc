"""Depth-map evaluation metrics and the error-versus-distance breakdown."""

import math
from dataclasses import dataclass

import numpy as np

from .sweep import DepthMap


@dataclass(frozen=True)
class MetricsReport:
    """The four standard depth metrics over the jointly valid pixels.

    abs_rel: mean(|pred - gt| / gt)
    abs_diff: mean(|pred - gt|), meters
    rmse: sqrt(mean((pred - gt)^2)), meters
    a1: fraction of pixels with max(pred/gt, gt/pred) < 1.25
    """

    abs_rel: float
    abs_diff: float
    rmse: float
    a1: float
    valid_pixel_count: int

    def format_table(self) -> str:
        header = f"{'Abs Rel':>10} {'Abs Diff':>10} {'RMSE':>10} {'a1':>10} {'pixels':>10}"
        row = (
            f"{self.abs_rel:>10.4f} {self.abs_diff:>10.4f} "
            f"{self.rmse:>10.4f} {self.a1:>10.4f} {self.valid_pixel_count:>10d}"
        )
        return header + "\n" + row


A1_THRESHOLD = 1.25  # standard threshold-accuracy ratio


def _joint_mask(pred: DepthMap, gt: DepthMap) -> np.ndarray:
    if pred.depth.shape != gt.depth.shape:
        raise ValueError(f"depth map shape mismatch: {pred.depth.shape} vs {gt.depth.shape}")
    return pred.valid & gt.valid & (gt.depth > 0)


def compute_metrics(pred: DepthMap, gt: DepthMap) -> MetricsReport:
    """Evaluate a predicted depth map against ground truth.

    Only pixels valid in both maps with positive ground truth contribute.

    Raises:
        ValueError: No jointly valid pixel exists.
    """
    mask = _joint_mask(pred, gt)
    if not mask.any():
        raise ValueError("no jointly valid pixels to evaluate")
    p = pred.depth[mask]
    g = gt.depth[mask]
    diff = np.abs(p - g)
    ratio = np.maximum(p / g, g / p)
    return MetricsReport(
        abs_rel=float(np.mean(diff / g)),
        abs_diff=float(np.mean(diff)),
        rmse=float(math.sqrt(np.mean((p - g) ** 2))),
        a1=float(np.mean(ratio < A1_THRESHOLD)),
        valid_pixel_count=int(mask.sum()),
    )


def error_vs_distance(pred: DepthMap, gt: DepthMap, bin_edges):
    """Mean absolute error binned by ground-truth distance.

    Pixels fall into [edge_j, edge_{j+1}); the last bin also includes its
    upper edge so a full-cover binning loses no pixel.

    Args:
        bin_edges: Finite, strictly increasing edges, length B+1.

    Returns:
        (mae, counts): per-bin mean |pred - gt| (NaN flags an empty bin) and
        per-bin pixel counts.
    """
    edges = np.asarray(bin_edges, dtype=float)
    if (edges.ndim != 1 or edges.size < 2 or not np.all(np.isfinite(edges))
            or np.any(np.diff(edges) <= 0)):
        raise ValueError("bin edges must be finite and strictly increasing with at least two entries")
    mask = _joint_mask(pred, gt)
    g = gt.depth[mask]
    err = np.abs(pred.depth[mask] - g)

    n_bins = edges.size - 1
    idx = np.digitize(g, edges) - 1
    idx[g == edges[-1]] = n_bins - 1  # inclusive top edge
    mae = np.full(n_bins, np.nan)
    counts = np.zeros(n_bins, dtype=int)
    for b in range(n_bins):
        sel = idx == b
        counts[b] = sel.sum()
        if counts[b]:
            mae[b] = float(np.mean(err[sel]))
    return mae, counts


def error_bins_csv(bin_edges, mae, counts) -> str:
    """CSV text (bin_lo, bin_hi, mae, count) for external plotting."""
    edges = np.asarray(bin_edges, dtype=float)
    lines = ["bin_lo,bin_hi,mae,count"]
    for b in range(edges.size - 1):
        mae_str = "nan" if np.isnan(mae[b]) else repr(float(mae[b]))
        lines.append(f"{float(edges[b])!r},{float(edges[b + 1])!r},{mae_str},{int(counts[b])}")
    return "\n".join(lines) + "\n"
