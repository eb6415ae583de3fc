#!/usr/bin/env python3
"""Hash the sweep's and the CLI's outputs on the stock scene, one sha256 per group.

A change that must keep every output byte for byte prints the same lines as
its parent. The `oasweep` package is imported from PYTHONPATH, so one script
checks any two trees:

    PYTHONPATH=<parent>/src python3 scripts/same_bytes.py > parent.txt
    PYTHONPATH=src python3 scripts/same_bytes.py > change.txt
    diff parent.txt change.txt

Groups:
    pipeline <config>: run_pipeline's depth, depth mask, costs and cost mask on
        two preprocessed noisy frames, under six sweep configurations;
    cli <command>: every file the CLI command writes, with its relative path.
The last line hashes all the group lines above it.
"""

import contextlib
import dataclasses
import hashlib
import io
import itertools
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from oasweep import preprocess, simulator, sweep
from oasweep.cli import main as cli_main
from oasweep.config import default_rig
from oasweep.geometry import PlaneHypothesisSet

# The benchmark's noise levels: speckle 0.15, background 0.03.
SPECKLE, BACKGROUND = 0.15, 0.03
NOISE = ["--speckle", SPECKLE, "--background", BACKGROUND]


def fine_planes(rig, n=95):
    """The rig with n planes over the same first and last distance."""
    coarse = rig.planes
    k = coarse.k ** ((coarse.n - 1) / (n - 1))
    return dataclasses.replace(rig, planes=PlaneHypothesisSet(alpha=coarse.alpha, d0=coarse.d0,
                                                              k=k, n=n))


def pipeline_groups():
    rig = default_rig()
    scene = simulator.default_scene()
    camera, _ = simulator.render_camera(scene, rig.intrinsics, rig.extrinsics)
    clean = simulator.render_sonar(scene, rig.sonar)
    empty = simulator.PolarSonarImage(values=np.zeros_like(clean.values), spec=rig.sonar)
    frames = [simulator.add_sonar_noise(clean, SPECKLE, BACKGROUND, seed=1000 + k)
              for k in range(2)]
    backgrounds = [simulator.add_sonar_noise(empty, SPECKLE, BACKGROUND, seed=500 + k)
                   for k in range(4)]
    frames = preprocess.preprocess_sonar_frames(frames, backgrounds)
    cam8 = (np.clip(camera, 0.0, 1.0) * 255).round().astype(np.uint8)
    prepared, window = preprocess.prepare_camera(cam8, rig.intrinsics, rig.sonar, rig.extrinsics)

    configs = {
        "default": (rig, sweep.SweepConfig()),
        "neg-dot-zero-sonar": (rig, sweep.SweepConfig(metric="neg-dot",
                                                      zero_sonar_features=True)),
        "intensity-sad": (rig, sweep.SweepConfig(extractor="intensity", metric="sad")),
        "gradient-neg-zncc": (rig, sweep.SweepConfig(extractor="gradient")),
        "box-9x3": (rig, sweep.SweepConfig(box_radius=9, box_passes=3)),
        "95-planes": (fine_planes(rig), sweep.SweepConfig()),
    }
    for name, (calibration, config) in configs.items():
        digest = hashlib.sha256()
        for frame in frames:
            depth, volume = sweep.run_pipeline(prepared, frame, calibration, config,
                                               origin=(window.u0, window.v0))
            for array in (depth.depth, depth.valid, volume.costs, volume.valid):
                digest.update(np.ascontiguousarray(array).tobytes())
        yield f"pipeline {name}", digest.hexdigest()


def cli_groups():
    steps = {
        "simulate": ["simulate", "--out", "ds", "--seed", 3, *NOISE],
        "simulate-background": ["simulate", "--out", "bg", "--background-only",
                                "--frames", 3, *NOISE],
        "preprocess": ["preprocess", "--frames", "ds", "--background", "bg", "--out", "pre"],
        "sweep": ["sweep", "--dataset", "ds", "--sonar", "pre/sonar.pfm", "--out", "sw",
                  "--export-cost-volume"],
        "sweep-neg-dot-intensity": ["sweep", "--dataset", "ds", "--sonar", "pre/sonar.pfm",
                                    "--out", "sw-dot", "--export-cost-volume",
                                    "--metric", "neg-dot", "--extractor", "intensity"],
        "eval": ["eval", "--pred", "sw/depth.pfm", "--pred-mask", "sw/depth_mask.pgm",
                 "--gt", "ds/depth_gt.pfm", "--gt-mask", "ds/depth_gt_mask.pgm",
                 "--json", "ev/metrics.json", "--csv", "ev/bins.csv", "--bin-edges", "0.5,2,3.5,5"],
        "turbidity-3C": ["turbidity", "--input", "ds/camera.pgm", "--type", "3C",
                         "--out", "tb/3c.pgm"],
        "turbidity-t1": ["turbidity", "--input", "ds/camera.pgm", "--t1", 0.7, 0.8, 0.9,
                         "--b", 0.4, "--out", "tb/t1.pgm"],
    }
    home = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="same-bytes.") as work:
        os.chdir(work)  # relative paths, so no written file can name the temporary directory
        try:
            for name, argv in steps.items():
                before = {p for p in Path().rglob("*") if p.is_file()}
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli_main([str(a) for a in argv])
                if code != 0:
                    raise SystemExit(f"`oasweep {name}` exited {code}")
                written = sorted({p for p in Path().rglob("*") if p.is_file()} - before)
                digest = hashlib.sha256()
                for path in written:
                    digest.update(f"{path}\0{path.stat().st_size}\0".encode())
                    digest.update(path.read_bytes())
                yield f"cli {name} ({len(written)} files)", digest.hexdigest()
        finally:
            os.chdir(home)


def main() -> int:
    total = hashlib.sha256()
    for group, digest in itertools.chain(pipeline_groups(), cli_groups()):
        line = f"{group} {digest}"
        total.update(line.encode() + b"\n")
        print(line, flush=True)
    print(f"total {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
