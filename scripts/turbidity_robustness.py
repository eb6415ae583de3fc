#!/usr/bin/env python3
"""Turbidity robustness experiment: fused pipeline vs geometry-prior ablation.

Synthesizes the three coastal water types on the stock scene's camera image,
runs the full sweep and the sonar-zeroed neg-dot ablation on each, and prints
the accuracy trend (plus a CSV for plotting). The ablation would score every
entry 0, so run_pipeline computes it in closed form from the warp grid's
per-plane pixel lists, each pixel averaging its admissible plane distances,
and never reads the camera: its depth is the plane-hypothesis geometry prior
alone, the same for every water type. The fused pipeline should degrade only
mildly from clear to turbid while the ablation stays far worse throughout.

Usage:
    python3 scripts/turbidity_robustness.py [--out CSV] [--ambient B] [--distance D]
"""

import argparse
import sys

import numpy as np

from oasweep.config import default_rig
from oasweep.evaluation import compute_metrics
from oasweep.preprocess import prepare_camera, to_grayscale
from oasweep.simulator import (
    JERLOV_TRANSMISSION,
    apply_turbidity,
    default_scene,
    render_camera,
    render_sonar,
)
from oasweep.sweep import SweepConfig, run_pipeline, to_full_frame


def evaluate(rig, camera_image, sonar, gt, config):
    cam8 = (np.clip(camera_image, 0.0, 1.0) * 255).round().astype(np.uint8)
    prepared, window = prepare_camera(cam8, rig.intrinsics, rig.sonar, rig.extrinsics)
    depth, _ = run_pipeline(prepared, sonar, rig, config, origin=(window.u0, window.v0))
    return compute_metrics(to_full_frame(depth, window, gt.depth.shape), gt)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="turbidity_trend.csv", help="CSV output path")
    parser.add_argument("--ambient", type=float, default=0.3, help="ambient light B in [0, 1]")
    parser.add_argument("--distance", type=float, default=2.5, help="path length d in meters")
    args = parser.parse_args()

    rig = default_rig()
    scene = default_scene()
    camera, gt = render_camera(scene, rig.intrinsics, rig.extrinsics)
    sonar = render_sonar(scene, rig.sonar)

    fused = SweepConfig()
    ablation = SweepConfig(metric="neg-dot", zero_sonar_features=True)

    rows = []
    print(f"{'water':>6} {'fused AbsRel':>13} {'fused a1':>9} {'ablation AbsRel':>16} {'ablation a1':>12}")
    for water in ("clear", "1C", "3C", "5C"):
        if water == "clear":
            image = camera
        else:
            rgb = np.repeat(camera[:, :, None], 3, axis=2)
            b = (args.ambient,) * 3
            image = to_grayscale(apply_turbidity(rgb, JERLOV_TRANSMISSION[water], b, args.distance))
        m_fused = evaluate(rig, image, sonar, gt, fused)
        m_abl = evaluate(rig, image, sonar, gt, ablation)
        rows.append((water, m_fused.abs_rel, m_fused.a1, m_abl.abs_rel, m_abl.a1))
        print(f"{water:>6} {m_fused.abs_rel:>13.4f} {m_fused.a1:>9.4f} "
              f"{m_abl.abs_rel:>16.4f} {m_abl.a1:>12.4f}")

    with open(args.out, "w") as handle:
        handle.write("water,fused_abs_rel,fused_a1,ablation_abs_rel,ablation_a1\n")
        for row in rows:
            handle.write(",".join(str(x) for x in row) + "\n")
    print(f"\ntrend written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
