"""The benchmark workloads: their inputs, the timed op and the op's outputs.

Every workload draws its frames from a fixed pool of POOL_SIZE noisy sonar
frames of the stock scene (speckle 0.15, background 0.03, as in AC-10). The
pool does not depend on the run's seed, so one golden record per pool frame
covers every run; the seed picks the order in which a run visits the pool.

All layers are reached through their public names at call time
(``sweep.run_pipeline``, ``cli.main``, ...), so the tracer's wrappers see
every call the op makes.
"""

import dataclasses
import io
import json
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from oasweep import cli, evaluation, formats, preprocess, simulator, sweep
from oasweep.config import default_rig
from oasweep.geometry import PlaneHypothesisSet

POOL_SIZE = 4
POOL_NOISE_SEED = 1000  # pool frame k carries noise seed POOL_NOISE_SEED + k
BACKGROUND_FRAMES = 8
BACKGROUND_NOISE_SEED = 500
SPECKLE = 0.15
BACKGROUND_LEVEL = 0.03
BIN_EDGES = "0.5,2,3.5,5"


class OpFailed(Exception):
    """An op returned an error instead of an output."""


@dataclasses.dataclass
class Inputs:
    """Everything the simulator renders once per run."""

    rig: object
    camera: np.ndarray  # float image in [0, 1]
    gt: sweep.DepthMap
    frames: list  # POOL_SIZE noisy PolarSonarImage frames
    backgrounds: list  # BACKGROUND_FRAMES object-free frames


def make_inputs() -> Inputs:
    rig = default_rig()
    scene = simulator.default_scene()
    camera, gt = simulator.render_camera(scene, rig.intrinsics, rig.extrinsics)
    clean = simulator.render_sonar(scene, rig.sonar)
    empty = simulator.PolarSonarImage(values=np.zeros_like(clean.values), spec=rig.sonar)
    frames = [simulator.add_sonar_noise(clean, SPECKLE, BACKGROUND_LEVEL, seed=POOL_NOISE_SEED + k)
              for k in range(POOL_SIZE)]
    backgrounds = [simulator.add_sonar_noise(empty, SPECKLE, BACKGROUND_LEVEL,
                                             seed=BACKGROUND_NOISE_SEED + i)
                   for i in range(BACKGROUND_FRAMES)]
    return Inputs(rig, camera, gt, frames, backgrounds)


def _full_frame(depth, window, shape) -> sweep.DepthMap:
    full_depth = np.zeros(shape)
    full_valid = np.zeros(shape, dtype=bool)
    full_depth[window.slice()] = depth.depth
    full_valid[window.slice()] = depth.valid
    return sweep.DepthMap(depth=full_depth, valid=full_valid)


def _write_dataset(inputs: Inputs, root: Path) -> Path:
    """The on-disk dataset `oasweep simulate` would write, minus the sonar frames."""
    ds = root / "ds"
    ds.mkdir(parents=True)
    formats.write_pgm(ds / "camera.pgm", inputs.camera)
    formats.write_pfm(ds / "depth_gt.pfm", inputs.gt.depth)
    formats.write_pgm(ds / "depth_gt_mask.pgm", inputs.gt.valid.astype(np.uint8) * 255)
    inputs.rig.save(ds / "calibration.json")
    return ds


def _cli(argv) -> None:
    """One CLI command in-process; its console output is kept off our stdout."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise OpFailed(f"`oasweep {argv[0]}` exited {code}: {err.getvalue().strip()}")


def _read_depth(directory: Path) -> dict:
    return {"depth": formats.read_pfm(directory / "depth.pfm"),
            "valid": formats.read_pgm(directory / "depth_mask.pgm") > 0}


class Stock:
    """preprocess -> sweep --export-cost-volume -> eval --json --csv, through cli.main."""

    name = "stock"

    def __init__(self, inputs: Inputs, work: Path):
        self.ds = _write_dataset(inputs, work)
        self.bg = work / "bg"
        self.bg.mkdir()
        for i, frame in enumerate(inputs.backgrounds):
            formats.write_pfm(self.bg / f"sonar_{i:03d}.pfm", frame.values)
        self.frames = []
        for k, frame in enumerate(inputs.frames):
            directory = work / "frames" / str(k)
            directory.mkdir(parents=True)
            formats.write_pfm(directory / "sonar.pfm", frame.values)
            self.frames.append(directory)
        self.out = work / "op"

    def op(self, k: int) -> None:
        pp, sw = self.out / "pp", self.out / "sw"
        _cli(["preprocess", "--frames", self.frames[k], "--background", self.bg, "--out", pp])
        _cli(["sweep", "--dataset", self.ds, "--sonar", pp / "sonar.pfm", "--out", sw,
              "--export-cost-volume"])
        _cli(["eval", "--pred", sw / "depth.pfm", "--pred-mask", sw / "depth_mask.pgm",
              "--gt", self.ds / "depth_gt.pfm", "--gt-mask", self.ds / "depth_gt_mask.pgm",
              "--json", self.out / "metrics.json", "--csv", self.out / "bins.csv",
              "--bin-edges", BIN_EDGES])

    def outputs(self, result) -> tuple:
        sw = self.out / "sw"
        outputs = _read_depth(sw)
        _, outputs["sscv_valid"] = formats.read_cost_volume(sw / "cost_volume.sscv")
        report = json.loads((self.out / "metrics.json").read_text())
        shutil.rmtree(self.out)
        return outputs, (report["abs_rel"], report["a1"])


class TurbidPair:
    """The AC-9 unit through the library: fused sweep and camera-only ablation, Jerlov 5C."""

    name = "turbid-pair"
    WATER, DISTANCE_M, AMBIENT = "5C", 2.5, 0.3

    def __init__(self, inputs: Inputs, work: Path):
        self.rig = inputs.rig
        self.gt = inputs.gt
        rgb = np.repeat(inputs.camera[:, :, None], 3, axis=2)
        turbid = simulator.apply_turbidity(rgb, simulator.JERLOV_TRANSMISSION[self.WATER],
                                           (self.AMBIENT,) * 3, self.DISTANCE_M)
        gray = preprocess.to_grayscale(turbid)
        self.camera = (np.clip(gray, 0.0, 1.0) * 255).round().astype(np.uint8)
        self.frames = preprocess.preprocess_sonar_frames(inputs.frames, inputs.backgrounds)
        self.fused = sweep.SweepConfig()
        self.ablation = sweep.SweepConfig(metric="neg-dot", zero_sonar_features=True)

    def op(self, k: int) -> dict:
        rig = self.rig
        prepared, window = preprocess.prepare_camera(self.camera, rig.intrinsics, rig.sonar,
                                                     rig.extrinsics)
        result = {}
        for tag, config in (("fused", self.fused), ("ablation", self.ablation)):
            depth, _ = sweep.run_pipeline(prepared, self.frames[k], rig, config,
                                          origin=(window.u0, window.v0))
            full = _full_frame(depth, window, self.gt.depth.shape)
            result[tag] = (full, evaluation.compute_metrics(full, self.gt))
        return result

    def outputs(self, result) -> tuple:
        fused, report = result["fused"]
        ablation, _ = result["ablation"]
        outputs = {"depth": fused.depth, "valid": fused.valid,
                   "ablation_depth": ablation.depth, "ablation_valid": ablation.valid}
        return outputs, (report.abs_rel, report.a1)


class FinePlanes:
    """`oasweep sweep` with N = 95 planes over the stock 0.5-4.95 m span, no export."""

    name = "fine-planes"
    PLANES = 95

    def __init__(self, inputs: Inputs, work: Path):
        self.gt = inputs.gt
        self.ds = _write_dataset(inputs, work)
        coarse = inputs.rig.planes
        # Same first and last plane as the stock set: k^(N-1) is unchanged.
        ratio = coarse.k ** ((coarse.n - 1) / (self.PLANES - 1))
        planes = PlaneHypothesisSet(alpha=coarse.alpha, d0=coarse.d0, k=ratio, n=self.PLANES)
        self.calibration = work / "fine.json"
        dataclasses.replace(inputs.rig, planes=planes).save(self.calibration)
        cleaned = preprocess.preprocess_sonar_frames(inputs.frames, inputs.backgrounds)
        self.frames = []
        for k, frame in enumerate(cleaned):
            path = work / "frames" / f"sonar_{k}.pfm"
            path.parent.mkdir(parents=True, exist_ok=True)
            formats.write_pfm(path, frame.values)
            self.frames.append(path)
        self.out = work / "op"

    def op(self, k: int) -> None:
        _cli(["sweep", "--dataset", self.ds, "--calibration", self.calibration,
              "--sonar", self.frames[k], "--out", self.out])

    def outputs(self, result) -> tuple:
        outputs = _read_depth(self.out)
        shutil.rmtree(self.out)
        report = evaluation.compute_metrics(
            sweep.DepthMap(depth=np.where(outputs["valid"], outputs["depth"], 0.0),
                           valid=outputs["valid"]), self.gt)
        return outputs, (report.abs_rel, report.a1)


WORKLOADS = {w.name: w for w in (Stock, TurbidPair, FinePlanes)}
