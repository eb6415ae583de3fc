"""Command-line surface: simulate | preprocess | sweep | eval | turbidity.

Every command is deterministic given its inputs, config, and seed. Outputs
are written all or nothing after all computation succeeds (see _write_outputs),
so a failed command leaves no partial artifacts. Angles are degrees at this
boundary only.

Exit codes: 0 success, 2 validation error (bad flags, missing files, unwritable
outputs), 3 input-data error (corrupt or mismatched files), 4 numerical failure.

A JSON config file (``--config``) may supply any optional flag's value under
its flag name with dashes as underscores; required flags must be given on the
command line. Explicit command-line flags win, and are never abbreviated.
"""

import argparse
import contextlib
import dataclasses
import itertools
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import evaluation, formats, preprocess, simulator, sweep
from .config import MAX_SWEEP_ENTRIES, CalibrationBundle, ConfigError, default_rig
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


def _require_dir(path, what: str) -> Path:
    path = Path(path)
    if not path.is_dir():
        raise CommandError(f"{what} not found: {path}", EXIT_VALIDATION)
    return path


def _read(reader, path, what: str):
    """Read an input file with a formats reader: a missing, unreadable or not regular
    file (a directory, FIFO or device, refused before it is opened) exits 2, naming
    the path; a FileFormatError exits 3 in main()."""
    if not Path(path).is_file():
        cause = "is not a regular file" if Path(path).exists() else "not found"
        raise CommandError(f"{what} {cause}: {path}", EXIT_VALIDATION)
    try:
        return reader(path)
    except OSError as exc:
        raise CommandError(f"cannot read {path}: {exc}", EXIT_VALIDATION) from exc


def _load_calibration(path) -> CalibrationBundle:
    if path is None:
        return default_rig()
    return CalibrationBundle.from_dict(_read(formats.read_json, path, "calibration file"))


def _load_scene(path) -> Scene:
    if path is None:
        return simulator.default_scene()
    return Scene.from_dict(_read(formats.read_json, path, "scene file"))


def _load_sonar(path, spec) -> PolarSonarImage:
    """A sonar PFM as a PolarSonarImage; shape and non-finite values are input errors."""
    values = _read(formats.read_pfm, path, "sonar frame")
    try:
        return PolarSonarImage(values=np.clip(values.astype(float), 0.0, 1.0), spec=spec)
    except ValueError as exc:
        raise CommandError(f"{path}: {exc}", EXIT_INPUT) from exc


def _check_window(flag: str, radius: int, shapes: dict) -> None:
    """Reject a (2r+1)-wide window past a side of the named (rows, columns) maps: it only pads
    them, at a cost growing with r ((2r+1)^2 per bin, or (h+2r)(w+2r) per box)."""
    largest = (min(min(shape) for shape in shapes.values()) - 1) // 2
    if not 0 <= radius <= largest:
        what = " and ".join(f"the {h}x{w} {name}" for name, (h, w) in shapes.items())
        raise CommandError(f"{flag} must be in [0, {largest}] for {what}, got {flag} {radius}",
                           EXIT_VALIDATION)


def _write_outputs(outputs) -> None:
    """Write (path, bytes) pairs all or nothing. Exits 2, before any write, on a target
    that is a directory or is named twice, and on an OSError, naming the path. Each file
    is first written in full, under its own name, into one staging directory per target
    directory; a failed write (a name past the limit fails here) removes them all and the
    output directories this call made. Only then are the files renamed into place, so
    only a failure between two of those renames can leave partial output."""
    targets, seen = [Path(path) for path, _ in outputs], set()
    for path in targets:
        if path.is_dir():
            raise CommandError(f"output path is a directory: {path}", EXIT_VALIDATION)
        if os.path.realpath(path) in seen:
            raise CommandError(f"output path named twice: {path}", EXIT_VALIDATION)
        seen.add(os.path.realpath(path))
    stages, made = {}, []  # staging directory by target directory; dirs made, outermost first
    try:
        for path in targets:
            parents = [path.parent, *path.parent.parents]
            for directory in reversed(list(itertools.takewhile(lambda d: not d.exists(), parents))):
                directory.mkdir()
                made.append(directory)
        for path, (_, data) in zip(targets, outputs):
            if path.parent not in stages:
                stages[path.parent] = Path(tempfile.mkdtemp(prefix=".oasweep.", dir=path.parent))
            formats.atomic_write(stages[path.parent] / path.name, data)
        for path in targets:
            os.replace(stages[path.parent] / path.name, path)
        made.clear()  # every file is in place: the new directories hold them
    except OSError as exc:
        raise CommandError(f"cannot write {path}: {exc}", EXIT_VALIDATION) from exc
    finally:
        for stage in stages.values():
            shutil.rmtree(stage, ignore_errors=True)
        for directory in reversed(made):  # deepest first; one that holds a placed file stays
            with contextlib.suppress(OSError):
                directory.rmdir()


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    calibration = _load_calibration(args.calibration)
    out = Path(args.out)

    spec = calibration.sonar
    most = MAX_SWEEP_ENTRIES // (spec.range_bins * spec.bearing_bins)
    if not 1 <= args.frames <= most:
        raise CommandError(f"--frames must be in [1, {most}] for the {spec.range_bins}x"
                           f"{spec.bearing_bins} sonar map, got {args.frames}", EXIT_VALIDATION)
    outputs = []

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
        outputs.append((out / "depth_gt_mask.pgm", formats.encode_pgm(gt.valid)))

    for k in range(args.frames):
        try:
            frame = simulator.add_sonar_noise(clean, args.speckle, args.background,
                                              seed=args.seed + k)
        except ValueError as exc:
            raise CommandError(str(exc), EXIT_VALIDATION) from exc
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
    out = Path(args.out)
    spec = calibration.sonar
    _check_window("--median-radius", args.median_radius,
                  {"sonar map": (spec.range_bins, spec.bearing_bins)})

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
    sonar_image = _load_sonar(args.sonar or dataset / "sonar.pfm", spec)

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

    if config.extractor == "zncc-patch":
        _check_window("--patch-radius", config.patch_radius,
                      {"camera crop": prepared.shape, "sonar map": sonar_image.values.shape})
    if config.box_passes > 0:
        _check_window("--box-radius", config.box_radius, {"camera crop": prepared.shape})
    side = max(prepared.shape)
    if config.box_radius > 0 and config.box_passes * config.box_radius > side:
        raise CommandError(f"--box-passes must be in [0, {side // config.box_radius}] for "
                           f"--box-radius {config.box_radius} and the camera crop's longer side "
                           f"{side}, got --box-passes {config.box_passes}", EXIT_VALIDATION)

    depth, volume = sweep.run_pipeline(prepared, sonar_image, calibration, config,
                                       origin=(window.u0, window.v0))

    full = sweep.to_full_frame(depth, window,
                               (calibration.intrinsics.height, calibration.intrinsics.width))

    outputs = [
        (out / "depth.pfm", formats.encode_pfm(full.depth)),
        (out / "depth_mask.pgm", formats.encode_pgm(full.valid)),
        (out / "crop.json", formats.encode_json(window.to_dict())),
    ]
    if args.export_cost_volume:
        outputs.append((out / "cost_volume.sscv", formats.encode_cost_volume(volume)))
    _write_outputs(outputs)
    print(f"depth map written to {out} ({int(full.valid.sum())} valid pixels)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval


def _load_depth_map(values_path, mask_path, what: str) -> sweep.DepthMap:
    values = _read(formats.read_pfm, values_path, what).astype(float)
    mask = values > 0
    if mask_path is not None:
        given = _read(formats.read_pgm, mask_path, f"{what} mask") > 0
        if given.shape != values.shape:
            raise CommandError(f"{mask_path}: mask shape {given.shape} does not match "
                               f"depth {values.shape}", EXIT_INPUT)
        mask &= given
    try:
        return sweep.DepthMap(depth=np.where(mask, values, 0.0), valid=mask)
    except ValueError as exc:
        raise CommandError(f"{values_path}: {exc}", EXIT_INPUT) from exc


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
        outputs.append((Path(args.json), formats.encode_json(dataclasses.asdict(report))))
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

    gray = preprocess.to_grayscale(_read(formats.read_pgm, args.input, "input image"))
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
        allow_abbrev=False,
    )
    parser.add_argument("--config", metavar="JSON",
                        help="JSON file supplying defaults for any optional flag "
                             "(underscored names); explicit flags win")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", allow_abbrev=False,
                       help="render a synthetic opti-acoustic dataset")
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

    p = sub.add_parser("preprocess", allow_abbrev=False,
                       help="background-subtract sonar frames, prepare camera images")
    p.add_argument("--frames", required=True, metavar="DIR",
                   help="directory with sonar*.pfm target frames (camera*.pgm optional)")
    p.add_argument("--background", required=True, metavar="DIR",
                   help="directory with object-free sonar*.pfm frames")
    p.add_argument("--calibration", metavar="JSON", help="calibration file (default: built-in rig)")
    p.add_argument("--out", required=True, metavar="DIR", help="output directory")
    p.add_argument("--median-radius", type=int, default=1,
                   help="median filter radius in bins, 0 disables; the 2r+1 window must "
                        "fit the sonar map (default 1)")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("sweep", allow_abbrev=False,
                       help="run the plane-sweep pipeline on a dataset")
    p.add_argument("--dataset", required=True, metavar="DIR",
                   help="dataset directory from `simulate`")
    p.add_argument("--out", required=True, metavar="DIR", help="output directory")
    p.add_argument("--calibration", metavar="JSON",
                   help="override the dataset calibration file")
    p.add_argument("--sonar", metavar="PFM", help="override the sonar frame (e.g. preprocessed)")
    defaults = sweep.SweepConfig()
    p.add_argument("--extractor", choices=sweep.EXTRACTORS, default=defaults.extractor,
                   help="feature extractor (default %(default)s)")
    p.add_argument("--patch-radius", type=int, default=defaults.patch_radius,
                   help="patch radius in pixels/bins for zncc-patch (default %(default)s)")
    p.add_argument("--metric", choices=sweep.METRICS, default=defaults.metric,
                   help="matching cost (default %(default)s)")
    p.add_argument("--box-radius", type=int, default=defaults.box_radius,
                   help="cost box-filter radius in pixels, 0 disables; the 2r+1 window must "
                        "fit the camera crop (default %(default)s)")
    p.add_argument("--box-passes", type=int, default=defaults.box_passes,
                   help="cost box-filter passes; passes x radius must not exceed the camera "
                        "crop's longer side (default %(default)s)")
    p.add_argument("--cost-scale", type=float, default=defaults.cost_scale,
                   help="matcher gain before the softmax, unitless (default %(default)s)")
    p.add_argument("--no-prepare", action="store_true",
                   help="skip the crop + equalization camera preparation")
    p.add_argument("--export-cost-volume", action="store_true",
                   help="also write the regularized cost volume as SSCV1")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("eval", allow_abbrev=False,
                       help="compare a depth map against ground truth")
    p.add_argument("--pred", required=True, metavar="PFM", help="predicted depth map, meters")
    p.add_argument("--pred-mask", metavar="PGM", help="validity mask (default: depth > 0)")
    p.add_argument("--gt", required=True, metavar="PFM", help="ground-truth depth map, meters")
    p.add_argument("--gt-mask", metavar="PGM", help="validity mask (default: depth > 0)")
    p.add_argument("--json", metavar="PATH", help="also write the report as JSON")
    p.add_argument("--csv", metavar="PATH", help="also write per-distance-bin errors as CSV")
    p.add_argument("--bin-edges", metavar="E0,E1,...",
                   help="strictly increasing bin edges in meters for --csv")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("turbidity", allow_abbrev=False,
                       help="synthesize turbid water on a camera image")
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
    overrides = _read(formats.read_json, args.config, "config file")
    if not isinstance(overrides, dict):
        raise CommandError(f"config file {args.config} must hold a JSON object", EXIT_INPUT)

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
        return formats.json_fits(item, action.type or str)

    if action.nargs == 0:
        ok = formats.json_fits(value, bool)
    elif isinstance(action.nargs, int):
        ok = isinstance(value, list) and len(value) == action.nargs and all(map(fits, value))
    else:
        ok = fits(value)
    unfit = CommandError(f"config value {key}={value!r} does not fit flag "
                         f"{action.option_strings[0]}", EXIT_VALIDATION)
    if not ok:
        raise unfit
    if action.type is None:
        return value
    try:
        return [action.type(v) for v in value] if isinstance(value, list) else action.type(value)
    except OverflowError:  # an integer too large for a float flag
        raise unfit from None


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
    except MemoryError as exc:
        print(f"numerical failure: out of memory: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
