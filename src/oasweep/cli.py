"""Command-line surface: simulate | preprocess | sweep | eval | turbidity.

Every command is deterministic given its inputs, config, and seed. Outputs
are written atomically after all computation succeeds, so a failed command
leaves no partial artifacts. Angles are degrees at this boundary only.

Exit codes: 0 success, 2 validation error (bad flags, missing files),
3 input-data error (corrupt or mismatched files), 4 numerical failure.

A JSON config file (``--config``) may supply any long flag's value under its
flag name with dashes as underscores; explicit command-line flags win.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import evaluation, formats, preprocess, simulator, sweep
from .config import CalibrationBundle, ConfigError, default_rig
from .simulator import JERLOV_TRANSMISSION, PolarSonarImage, Scene, SceneError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INPUT = 3
EXIT_NUMERICAL = 4


class CommandError(Exception):
    """CLI failure carrying its exit code."""

    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _require_file(path, what: str) -> Path:
    path = Path(path)
    if not path.is_file():
        raise CommandError(f"{what} not found: {path}", EXIT_VALIDATION)
    return path


def _require_dir(path, what: str) -> Path:
    path = Path(path)
    if not path.is_dir():
        raise CommandError(f"{what} not found: {path}", EXIT_VALIDATION)
    return path


def _load_calibration(path) -> CalibrationBundle:
    if path is None:
        return default_rig()
    _require_file(path, "calibration file")
    try:
        return CalibrationBundle.load(path)
    except ConfigError as exc:
        raise CommandError(str(exc), EXIT_INPUT) from exc


def _load_scene(path) -> Scene:
    if path is None:
        return simulator.default_scene()
    _require_file(path, "scene file")
    try:
        return Scene.load(path)
    except SceneError as exc:
        raise CommandError(str(exc), EXIT_INPUT) from exc


def _read(reader, path, what: str) -> np.ndarray:
    """Read an input file with a formats reader; FileFormatError exits 3 in main()."""
    _require_file(path, what)
    return reader(path)


def _load_sonar(path, spec) -> PolarSonarImage:
    """A sonar PFM as a PolarSonarImage; shape and non-finite values are input errors."""
    values = _read(formats.read_pfm, path, "sonar frame")
    try:
        return PolarSonarImage(values=np.clip(values.astype(float), 0.0, 1.0), spec=spec)
    except ValueError as exc:
        raise CommandError(f"{path}: {exc}", EXIT_INPUT) from exc


def _write_outputs(outputs) -> None:
    """Write (path, bytes) pairs atomically, directories first."""
    for path, _ in outputs:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
    for path, data in outputs:
        formats.atomic_write(path, data)


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    calibration = _load_calibration(args.calibration)
    out = Path(args.out)

    if not 0 <= args.background <= 1:
        raise CommandError(f"--background must be in [0, 1], got {args.background}", EXIT_VALIDATION)
    if args.frames < 1:
        raise CommandError(f"--frames must be >= 1, got {args.frames}", EXIT_VALIDATION)

    outputs = []
    spec = calibration.sonar

    if args.background_only:
        clean = PolarSonarImage(values=np.zeros((spec.range_bins, spec.bearing_bins)), spec=spec)
    else:
        scene = _load_scene(args.scene)
        camera_image, gt = simulator.render_camera(scene, calibration.intrinsics,
                                                   calibration.extrinsics)
        clean = simulator.render_sonar(scene, spec)
        outputs.append((out / "scene.json", formats.encode_json(scene.to_dict())))
        outputs.append((out / "camera.pgm", formats.encode_pgm(camera_image)))
        outputs.append((out / "depth_gt.pfm", formats.encode_pfm(gt.depth)))
        outputs.append((out / "depth_gt_mask.pgm",
                        formats.encode_pgm(gt.valid.astype(np.uint8) * 255)))

    for k in range(args.frames):
        try:
            frame = simulator.add_sonar_noise(clean, args.speckle, args.background,
                                              seed=args.seed + k)
        except ValueError as exc:
            raise CommandError(f"--speckle: {exc}", EXIT_VALIDATION) from exc
        name = "sonar.pfm" if k == 0 else f"sonar_{k:03d}.pfm"
        outputs.append((out / name, formats.encode_pfm(frame.values)))

    record = calibration.to_dict()
    outputs.append((out / "sonar.json", formats.encode_json(record["sonar"])))
    outputs.append((out / "calibration.json", formats.encode_json(record)))
    _write_outputs(outputs)
    print(f"dataset written to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# preprocess


def cmd_preprocess(args) -> int:
    calibration = _load_calibration(args.calibration)
    frames_dir = _require_dir(args.frames, "frames directory")
    background_dir = _require_dir(args.background, "background directory")
    if args.median_radius < 0:
        raise CommandError(f"--median-radius must be >= 0, got {args.median_radius}", EXIT_VALIDATION)
    out = Path(args.out)
    spec = calibration.sonar

    frame_paths = sorted(frames_dir.glob("sonar*.pfm"))
    background_paths = sorted(background_dir.glob("sonar*.pfm"))
    if not frame_paths:
        raise CommandError(f"no sonar*.pfm frames in {frames_dir}", EXIT_VALIDATION)
    if not background_paths:
        raise CommandError(f"no sonar*.pfm frames in {background_dir}", EXIT_VALIDATION)

    frames = [_load_sonar(p, spec) for p in frame_paths]
    backgrounds = [_load_sonar(p, spec) for p in background_paths]
    cleaned = preprocess.preprocess_sonar_frames(frames, backgrounds, args.median_radius)

    outputs = []
    for path, frame in zip(frame_paths, cleaned):
        outputs.append((out / path.name, formats.encode_pfm(frame.values)))

    for cam_path in sorted(frames_dir.glob("camera*.pgm")):
        image = _read(formats.read_pgm, cam_path, "camera image")
        try:
            prepared, window = preprocess.prepare_camera(
                image, calibration.intrinsics, spec, calibration.extrinsics)
        except preprocess.SensorOverlapError as exc:
            raise CommandError(str(exc), EXIT_NUMERICAL) from exc
        except ValueError as exc:
            raise CommandError(f"{cam_path}: {exc}", EXIT_INPUT) from exc
        outputs.append((out / cam_path.name, formats.encode_pgm(prepared)))
        outputs.append((out / f"{cam_path.stem}_crop.json", formats.encode_json(window.to_dict())))

    _write_outputs(outputs)
    print(f"{len(cleaned)} sonar frame(s) preprocessed into {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep


def cmd_sweep(args) -> int:
    dataset = _require_dir(args.dataset, "dataset directory")
    calibration = _load_calibration(args.calibration or dataset / "calibration.json")
    out = Path(args.out)

    try:
        config = sweep.SweepConfig(
            extractor=args.extractor, patch_radius=args.patch_radius,
            metric=args.metric, box_radius=args.box_radius,
            box_passes=args.box_passes, cost_scale=args.cost_scale,
        )
    except ValueError as exc:
        raise CommandError(str(exc), EXIT_VALIDATION) from exc

    camera = _read(formats.read_pgm, dataset / "camera.pgm", "camera image")
    spec = calibration.sonar
    sonar_image = _load_sonar(Path(args.sonar) if args.sonar else dataset / "sonar.pfm", spec)

    if camera.shape != (calibration.intrinsics.height, calibration.intrinsics.width):
        raise CommandError(
            f"camera image {camera.shape} does not match intrinsics "
            f"({calibration.intrinsics.height}, {calibration.intrinsics.width})", EXIT_INPUT)

    if args.no_prepare:
        prepared = camera
        window = preprocess.CropWindow(u0=0, v0=0, width=camera.shape[1], height=camera.shape[0])
    else:
        try:
            prepared, window = preprocess.prepare_camera(
                camera, calibration.intrinsics, spec, calibration.extrinsics)
        except preprocess.SensorOverlapError as exc:
            raise CommandError(str(exc), EXIT_NUMERICAL) from exc

    depth, volume = sweep.run_pipeline(prepared, sonar_image, calibration, config,
                                       origin=(window.u0, window.v0))

    full = sweep.to_full_frame(depth, (window.u0, window.v0),
                               (calibration.intrinsics.height, calibration.intrinsics.width))

    outputs = [
        (out / "depth.pfm", formats.encode_pfm(full.depth)),
        (out / "depth_mask.pgm", formats.encode_pgm(full.valid.astype(np.uint8) * 255)),
        (out / "crop.json", formats.encode_json(window.to_dict())),
    ]
    if args.export_cost_volume:
        outputs.append((out / "cost_volume.sscv",
                        formats.encode_cost_volume(volume.costs, volume.valid)))
    _write_outputs(outputs)
    print(f"depth map written to {out} ({int(full.valid.sum())} valid pixels)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval


def _load_depth_map(values_path, mask_path, what: str) -> sweep.DepthMap:
    values = _read(formats.read_pfm, values_path, what).astype(float)
    if mask_path is not None:
        mask = _read(formats.read_pgm, mask_path, f"{what} mask") > 0
        if mask.shape != values.shape:
            raise CommandError(f"{mask_path}: mask shape {mask.shape} does not match "
                               f"depth {values.shape}", EXIT_INPUT)
    else:
        mask = values > 0
    mask = mask & (values > 0)
    return sweep.DepthMap(depth=np.where(mask, values, 0.0), valid=mask)


def cmd_eval(args) -> int:
    pred = _load_depth_map(args.pred, args.pred_mask, "predicted depth")
    gt = _load_depth_map(args.gt, args.gt_mask, "ground-truth depth")
    if pred.depth.shape != gt.depth.shape:
        raise CommandError(
            f"prediction {pred.depth.shape} and ground truth {gt.depth.shape} differ in size",
            EXIT_INPUT)
    try:
        report = evaluation.compute_metrics(pred, gt)
    except ValueError as exc:
        raise CommandError(str(exc), EXIT_NUMERICAL) from exc

    outputs = []
    if args.json:
        outputs.append((Path(args.json), formats.encode_json(report.to_dict())))
    if args.csv:
        if not args.bin_edges:
            raise CommandError("--csv requires --bin-edges", EXIT_VALIDATION)
        try:
            edges = [float(x) for x in args.bin_edges.split(",")]
            mae, counts = evaluation.error_vs_distance(pred, gt, edges)
        except ValueError as exc:
            raise CommandError(f"bad bin edges: {exc}", EXIT_VALIDATION) from exc
        outputs.append((Path(args.csv), evaluation.error_bins_csv(edges, mae, counts).encode()))
    _write_outputs(outputs)
    print(report.format_table())
    return EXIT_OK


# ---------------------------------------------------------------------------
# turbidity


def cmd_turbidity(args) -> int:
    if args.type is None and args.t1 is None:
        raise CommandError("one of --type or --t1 is required", EXIT_VALIDATION)
    if args.type is not None and args.t1 is not None:
        raise CommandError("--type and --t1 are mutually exclusive", EXIT_VALIDATION)
    if args.type is not None:
        t1 = JERLOV_TRANSMISSION[args.type]
    else:
        t1 = tuple(args.t1)

    gray = _read(formats.read_pgm, args.input, "input image").astype(float) / 255.0
    # Grayscale path: replicate to RGB, attenuate per channel, take luma.
    rgb = np.repeat(gray[:, :, None], 3, axis=2)
    try:
        turbid = simulator.apply_turbidity(rgb, t1, (args.b, args.b, args.b), args.d)
    except ValueError as exc:
        raise CommandError(str(exc), EXIT_VALIDATION) from exc
    out_gray = preprocess.to_grayscale(turbid)
    _write_outputs([(Path(args.out), formats.encode_pgm(out_gray))])
    print(f"turbid image written to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser plumbing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oasweep",
        description="Opti-acoustic plane-sweep depth estimation toolkit.",
    )
    parser.add_argument("--config", metavar="JSON",
                        help="JSON file supplying defaults for any long flag "
                             "(underscored names); explicit flags win")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="render a synthetic opti-acoustic dataset")
    p.add_argument("--scene", metavar="JSON", help="scene file (default: built-in wall+sphere)")
    p.add_argument("--calibration", metavar="JSON", help="calibration file (default: built-in rig)")
    p.add_argument("--out", required=True, metavar="DIR", help="output dataset directory")
    p.add_argument("--seed", type=int, default=0, help="noise seed (default 0)")
    p.add_argument("--speckle", type=float, default=0.0,
                   help="multiplicative speckle sigma, unitless (default 0)")
    p.add_argument("--background", type=float, default=0.0,
                   help="additive background level in [0, 1] (default 0)")
    p.add_argument("--frames", type=int, default=1,
                   help="number of sonar frames, seeds seed+k (default 1)")
    p.add_argument("--background-only", action="store_true",
                   help="render noise-only frames without scene objects")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("preprocess", help="background-subtract sonar frames, prepare camera images")
    p.add_argument("--frames", required=True, metavar="DIR",
                   help="directory with sonar*.pfm target frames (camera*.pgm optional)")
    p.add_argument("--background", required=True, metavar="DIR",
                   help="directory with object-free sonar*.pfm frames")
    p.add_argument("--calibration", metavar="JSON", help="calibration file (default: built-in rig)")
    p.add_argument("--out", required=True, metavar="DIR", help="output directory")
    p.add_argument("--median-radius", type=int, default=1,
                   help="median filter radius in bins, 0 disables (default 1)")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("sweep", help="run the plane-sweep pipeline on a dataset")
    p.add_argument("--dataset", required=True, metavar="DIR",
                   help="dataset directory from `simulate`")
    p.add_argument("--out", required=True, metavar="DIR", help="output directory")
    p.add_argument("--calibration", metavar="JSON",
                   help="override the dataset calibration file")
    p.add_argument("--sonar", metavar="PFM", help="override the sonar frame (e.g. preprocessed)")
    p.add_argument("--extractor", choices=sweep.EXTRACTORS, default="zncc-patch",
                   help="feature extractor (default zncc-patch)")
    p.add_argument("--patch-radius", type=int, default=2,
                   help="patch radius in pixels/bins for zncc-patch (default 2)")
    p.add_argument("--metric", choices=sweep.METRICS, default="neg-zncc",
                   help="matching cost (default neg-zncc)")
    p.add_argument("--box-radius", type=int, default=3,
                   help="cost box-filter radius in pixels, 0 disables (default 3)")
    p.add_argument("--box-passes", type=int, default=2,
                   help="cost box-filter passes (default 2)")
    p.add_argument("--cost-scale", type=float, default=20.0,
                   help="matcher gain before the softmax, unitless (default 20)")
    p.add_argument("--no-prepare", action="store_true",
                   help="skip the crop + equalization camera preparation")
    p.add_argument("--export-cost-volume", action="store_true",
                   help="also write the regularized cost volume as SSCV1")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("eval", help="compare a depth map against ground truth")
    p.add_argument("--pred", required=True, metavar="PFM", help="predicted depth map, meters")
    p.add_argument("--pred-mask", metavar="PGM", help="validity mask (default: depth > 0)")
    p.add_argument("--gt", required=True, metavar="PFM", help="ground-truth depth map, meters")
    p.add_argument("--gt-mask", metavar="PGM", help="validity mask (default: depth > 0)")
    p.add_argument("--json", metavar="PATH", help="also write the report as JSON")
    p.add_argument("--csv", metavar="PATH", help="also write per-distance-bin errors as CSV")
    p.add_argument("--bin-edges", metavar="E0,E1,...",
                   help="strictly increasing bin edges in meters for --csv")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("turbidity", help="synthesize turbid water on a camera image")
    p.add_argument("--input", required=True, metavar="PGM", help="clear grayscale image")
    p.add_argument("--out", required=True, metavar="PGM", help="output image path")
    p.add_argument("--type", choices=sorted(JERLOV_TRANSMISSION),
                   help="Jerlov coastal water type preset for the transmission rates")
    p.add_argument("--t1", type=float, nargs=3, metavar=("R", "G", "B"),
                   help="explicit per-channel transmission rates in (0, 1]")
    p.add_argument("--d", type=float, default=2.5,
                   help="object distance in meters (default 2.5)")
    p.add_argument("--b", type=float, default=0.2,
                   help="ambient background light in [0, 1] (default 0.2, an "
                        "arbitrary configuration value)")
    p.set_defaults(func=cmd_turbidity)

    return parser


def _apply_config_file(parser, args, argv) -> None:
    """Fill unset flags from the --config JSON; explicit flags keep priority."""
    if not args.config:
        return
    path = Path(args.config)
    if not path.is_file():
        raise CommandError(f"config file not found: {path}", EXIT_VALIDATION)
    try:
        overrides = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise CommandError(f"config file {path} is not valid JSON: {exc}", EXIT_INPUT) from exc
    if not isinstance(overrides, dict):
        raise CommandError(f"config file {path} must hold a JSON object", EXIT_INPUT)

    explicit = {a.split("=")[0].lstrip("-").replace("-", "_")
                for a in argv if a.startswith("--")}
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {a.dest: a for a in commands.choices[args.command]._actions}
    for key, value in overrides.items():
        attr = key.replace("-", "_")
        if attr in explicit or attr not in flags or attr == "help":
            continue
        setattr(args, attr, _config_value(key, value, flags[attr]))


def _config_value(key: str, value, action):
    """A --config value checked and converted as its flag's own parser would."""
    def fits(item):
        if action.choices is not None:
            return item in action.choices
        if action.type is int:
            return type(item) is int  # JSON true/false are not integers
        if action.type is float:
            return type(item) in (int, float)
        return isinstance(item, str)

    if action.nargs == 0:
        ok = isinstance(value, bool)
    elif isinstance(action.nargs, int):
        ok = isinstance(value, list) and len(value) == action.nargs and all(map(fits, value))
    else:
        ok = fits(value)
    if not ok:
        raise CommandError(f"config value {key}={value!r} does not fit flag "
                           f"{action.option_strings[0]}", EXIT_VALIDATION)
    if action.type is None:
        return value
    return [action.type(v) for v in value] if isinstance(value, list) else action.type(value)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config_file(parser, args, argv)
        return args.func(args)
    except CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (formats.FileFormatError, SceneError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
