import contextlib
import copy
import importlib
import io
import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oasweep import preprocess, simulator, sweep
from oasweep.cli import main
from oasweep.config import default_rig
from oasweep.formats import read_cost_volume, read_pfm, read_pgm, write_pfm, write_pgm
from oasweep.simulator import default_scene

from conftest import grazing_rig, turned_camera


def run_cli(*args):
    """In-process invocation; returns the exit code."""
    return main([str(a) for a in args])


def dir_bytes(path: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir()) if p.is_file()}


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("dataset")
    assert run_cli("simulate", "--out", out, "--seed", 3) == 0
    return out


@pytest.fixture(scope="module")
def sweep_out(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    code = run_cli("sweep", "--dataset", dataset, "--out", out, "--export-cost-volume")
    assert code == 0
    return out


class TestSimulate:
    def test_writes_complete_dataset(self, dataset):
        names = {p.name for p in dataset.iterdir()}
        assert {"calibration.json", "scene.json", "camera.pgm", "sonar.pfm",
                "sonar.json", "depth_gt.pfm", "depth_gt_mask.pgm"} <= names

    def test_byte_identical_per_seed(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli("simulate", "--out", a, "--seed", 5, "--speckle", 0.2,
                       "--background", 0.05) == 0
        assert run_cli("simulate", "--out", b, "--seed", 5, "--speckle", 0.2,
                       "--background", 0.05) == 0
        assert dir_bytes(a) == dir_bytes(b)

    def test_missing_scene_exits_2_naming_path(self, tmp_path, capsys):
        code = run_cli("simulate", "--out", tmp_path / "x", "--scene", "/nope/missing.json")
        assert code == 2
        assert "/nope/missing.json" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_background_only_frames(self, tmp_path):
        out = tmp_path / "bg"
        assert run_cli("simulate", "--out", out, "--background-only", "--frames", 3,
                       "--speckle", 0.3, "--background", 0.05) == 0
        assert (out / "sonar.pfm").exists()
        assert (out / "sonar_002.pfm").exists()
        assert not (out / "camera.pgm").exists()

    def test_frames_past_the_work_budget_exit_2(self, tmp_path, capsys):
        # 1163 stock 384x224 frames would ask for more than MAX_SWEEP_ENTRIES floats.
        out = tmp_path / "x"
        assert run_cli("simulate", "--out", out, "--frames", 1163) == 2
        err = capsys.readouterr().err
        assert "--frames must be in [1, 1162] for the 384x224 sonar map, got 1163" in err
        assert not out.exists()

    def test_overflowing_speckle_saturates_echoes(self, tmp_path):
        # sigma * N(0, 1) overflows to +-inf past sigma ~ 4e307: every echo
        # clips to 0 or 1 before the background is added, and an empty bin
        # keeps the background instead of 0 * inf = NaN, without a warning.
        clean, noisy = tmp_path / "clean", tmp_path / "noisy"
        assert run_cli("simulate", "--out", clean) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("simulate", "--out", noisy, "--speckle", 1e308,
                           "--background", 0.05) == 0
        echo = read_pfm(clean / "sonar.pfm") > 0
        values = read_pfm(noisy / "sonar.pfm")
        assert np.isfinite(values).all() and values.min() >= 0 and values.max() <= 1
        background = np.float32(0.05)
        assert echo.any() and (values[~echo] == background).all()
        assert np.isin(values[echo], [background, 1]).all()

    def test_validation_of_noise_params(self, tmp_path):
        assert run_cli("simulate", "--out", tmp_path / "x", "--speckle", -1) == 2

    @pytest.mark.parametrize("flags, name", [
        (["--seed", -1], "seed"), (["--speckle", 0.1, "--seed", -1], "seed"),
        (["--background", 1.5], "background"), (["--background", "nan"], "background"),
    ])
    def test_noise_errors_name_their_parameter(self, tmp_path, capsys, flags, name):
        out = tmp_path / "x"
        assert run_cli("simulate", "--out", out, *flags) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name} must be") and "speckle" not in err
        assert not out.exists()


class TestSweep:
    def test_outputs(self, sweep_out, dataset):
        depth = read_pfm(sweep_out / "depth.pfm")
        mask = read_pgm(sweep_out / "depth_mask.pgm")
        gt = read_pfm(dataset / "depth_gt.pfm")
        assert depth.shape == gt.shape == mask.shape
        assert (mask > 0).any()
        assert np.all(depth[mask > 0] > 0)

    def test_cost_volume_dims_default_48_planes(self, sweep_out):
        costs, valid = read_cost_volume(sweep_out / "cost_volume.sscv")
        crop = json.loads((sweep_out / "crop.json").read_text())
        assert costs.shape == (crop["h"], crop["w"], 48)
        assert valid.shape == costs.shape

    def test_corrupted_sonar_exits_3_no_partial_outputs(self, dataset, tmp_path):
        bad = tmp_path / "bad.pfm"
        bad.write_bytes(b"Pf\n384 224\n-1.0\n\x00\x00\x00")
        out = tmp_path / "out"
        code = run_cli("sweep", "--dataset", dataset, "--out", out, "--sonar", bad)
        assert code == 3
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("dims", [b"0 4", b"-3 4"])
    def test_non_positive_dimensions_exit_3(self, dataset, tmp_path, capsys, dims):
        bad = tmp_path / "bad.pfm"
        bad.write_bytes(b"Pf\n" + dims + b"\n-1.0\n" + b"\x00" * 64)
        out = tmp_path / "out"
        assert run_cli("sweep", "--dataset", dataset, "--out", out, "--sonar", bad) == 3
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_sonar_exits_3(self, dataset, tmp_path, capsys):
        values = read_pfm(dataset / "sonar.pfm")
        values[5, 7] = np.nan
        write_pfm(tmp_path / "nan.pfm", values)
        out = tmp_path / "out"
        assert run_cli("sweep", "--dataset", dataset, "--out", out,
                       "--sonar", tmp_path / "nan.pfm") == 3
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_deterministic(self, dataset, tmp_path, sweep_out):
        again = tmp_path / "again"
        assert run_cli("sweep", "--dataset", dataset, "--out", again,
                       "--export-cost-volume") == 0
        assert dir_bytes(again) == dir_bytes(sweep_out)

    def test_bad_flag_value_exits_2(self, dataset, tmp_path):
        assert run_cli("sweep", "--dataset", dataset, "--out", tmp_path / "x",
                       "--cost-scale", 0) == 2

    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_patch_wider_than_inputs_exits_2(self, dataset, tmp_path, capsys, monkeypatch, route):
        # A 1001x1001 patch would ask for a ~557 GiB window array: the check
        # must fire before any feature is built.
        def no_features(*args, **kwargs):
            raise AssertionError("features built despite an oversized patch")
        monkeypatch.setattr(sweep, "extract_features", no_features)
        out = tmp_path / "out"
        argv = ["sweep", "--dataset", dataset, "--out", out]
        if route == "flag":
            argv += ["--patch-radius", 500]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"patch_radius": 500}))
            argv = ["--config", cfg] + argv
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        # zncc-patch refuses radius 0, so the range offered starts at 1.
        assert err.startswith("error:") and "--patch-radius 500" in err and "[1, 111]" in err
        assert not out.exists()

    @pytest.mark.parametrize("radius", [117, 100000])
    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_box_wider_than_crop_exits_2(self, dataset, tmp_path, capsys, monkeypatch, route,
                                         radius):
        # The stock 233x320 camera crop admits a box up to 233 pixels
        # (r = 116); r = 1e5 would ask the regularizer for a 37 GiB boolean
        # box per plane. The check must fire before any feature is built.
        def unreachable(*args, **kwargs):
            raise AssertionError("sweep run despite an oversized box")
        monkeypatch.setattr(sweep, "extract_features", unreachable)
        monkeypatch.setattr(sweep, "regularize_cost_volume", unreachable)
        out = tmp_path / "out"
        argv = ["sweep", "--dataset", dataset, "--out", out]
        if route == "flag":
            argv += ["--box-radius", radius]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"box_radius": radius}))
            argv = ["--config", cfg] + argv
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --box-radius must be in [0, 116]")
        assert f"--box-radius {radius}" in err
        assert not out.exists()

    def test_widest_box_is_accepted(self, dataset, tmp_path, monkeypatch):
        class Reached(Exception):
            pass

        def reached(volume, radius, passes):
            assert radius == 116
            raise Reached
        monkeypatch.setattr(sweep, "regularize_cost_volume", reached)
        with pytest.raises(Reached):
            run_cli("sweep", "--dataset", dataset, "--out", tmp_path / "out", "--box-radius", 116)

    @pytest.mark.parametrize("passes", [107, 1000000])
    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_box_passes_past_crop_exits_2(self, dataset, tmp_path, capsys, monkeypatch, route,
                                          passes):
        # Each pass filters every plane's box again; at the default r = 3 the
        # 320-pixel side of the stock crop allows 106 passes.
        def unreachable(*args, **kwargs):
            raise AssertionError("sweep run despite a pass count past the crop")
        monkeypatch.setattr(sweep, "extract_features", unreachable)
        monkeypatch.setattr(sweep, "regularize_cost_volume", unreachable)
        out = tmp_path / "out"
        argv = ["sweep", "--dataset", dataset, "--out", out]
        if route == "flag":
            argv += ["--box-passes", passes]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"box_passes": passes}))
            argv = ["--config", cfg] + argv
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --box-passes must be in [0, 106] for --box-radius 3")
        assert f"--box-passes {passes}" in err
        assert not out.exists()

    @pytest.mark.parametrize("radius, passes", [(3, 106), (0, 1000000)])
    def test_most_box_passes_are_accepted(self, dataset, tmp_path, monkeypatch, radius, passes):
        # Without a box (r = 0) the passes do nothing, so they are not bounded.
        class Reached(Exception):
            pass

        def reached(volume, box_radius, box_passes):
            assert (box_radius, box_passes) == (radius, passes)
            raise Reached
        monkeypatch.setattr(sweep, "regularize_cost_volume", reached)
        with pytest.raises(Reached):
            run_cli("sweep", "--dataset", dataset, "--out", tmp_path / "out",
                    "--box-radius", radius, "--box-passes", passes)

    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_cost_scale_overflow_exits_4(self, dataset, tmp_path, capsys, route):
        # 1e300 is finite for the flag but past float32, where the costs are
        # scaled: a numerical failure, with no traceback and no output.
        out = tmp_path / "out"
        argv = ["sweep", "--dataset", dataset, "--out", out]
        if route == "flag":
            argv += ["--cost-scale", "1e300"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"cost_scale": 1e300}))
            argv = ["--config", cfg] + argv
        assert run_cli(*argv) == 4
        assert capsys.readouterr().err.startswith("numerical failure:")
        assert not out.exists()


class TestEval:
    def test_perfect_prediction(self, dataset, tmp_path, capsys):
        code = run_cli("eval", "--pred", dataset / "depth_gt.pfm",
                       "--gt", dataset / "depth_gt.pfm",
                       "--json", tmp_path / "m.json")
        assert code == 0
        report = json.loads((tmp_path / "m.json").read_text())
        assert report["abs_rel"] == 0.0 and report["a1"] == 1.0
        table = capsys.readouterr().out
        assert table.index("Abs Rel") < table.index("Abs Diff") < table.index("RMSE")

    def test_two_bin_csv_fixture(self, tmp_path):
        write_pfm(tmp_path / "gt.pfm", np.array([[1.0, 1.0, 3.0, 3.0]], dtype=np.float32))
        write_pfm(tmp_path / "pred.pfm", np.array([[1.1, 0.9, 3.3, 2.7]], dtype=np.float32))
        code = run_cli("eval", "--pred", tmp_path / "pred.pfm", "--gt", tmp_path / "gt.pfm",
                       "--csv", tmp_path / "bins.csv", "--bin-edges", "0,2,4")
        assert code == 0
        lines = (tmp_path / "bins.csv").read_text().strip().splitlines()
        assert lines[0] == "bin_lo,bin_hi,mae,count"
        lo = lines[1].split(",")
        hi = lines[2].split(",")
        assert float(lo[2]) == pytest.approx(0.1, abs=1e-6) and lo[3] == "2"
        assert float(hi[2]) == pytest.approx(0.3, abs=1e-6) and hi[3] == "2"

    def test_disjoint_masks_exit_4(self, tmp_path):
        write_pfm(tmp_path / "a.pfm", np.array([[1.0, 0.0]], dtype=np.float32))
        write_pfm(tmp_path / "b.pfm", np.array([[0.0, 1.0]], dtype=np.float32))
        assert run_cli("eval", "--pred", tmp_path / "a.pfm", "--gt", tmp_path / "b.pfm") == 4


class TestTurbidity:
    def test_non_positive_dimensions_exit_3(self, tmp_path):
        (tmp_path / "in.pgm").write_bytes(b"P5\n-3 4\n255\n" + b"\x00" * 64)
        assert run_cli("turbidity", "--input", tmp_path / "in.pgm",
                       "--out", tmp_path / "out.pgm", "--type", "1C") == 3
        assert not (tmp_path / "out.pgm").exists()

    def test_identity_at_zero_distance(self, tmp_path, rng):
        img = rng.integers(0, 256, size=(5, 7), dtype=np.uint8)
        write_pgm(tmp_path / "in.pgm", img)
        assert run_cli("turbidity", "--input", tmp_path / "in.pgm",
                       "--out", tmp_path / "out.pgm", "--type", "1C", "--d", 0) == 0
        np.testing.assert_array_equal(read_pgm(tmp_path / "out.pgm"), img)

    def test_type_5c_golden_bytes(self, tmp_path):
        # Expected pixels computed independently from the scalar attenuation
        # formula (T^d blend, BT.601 luma) and frozen.
        write_pgm(tmp_path / "in.pgm",
                  np.array([[0, 64, 128], [192, 255, 100]], dtype=np.uint8))
        assert run_cli("turbidity", "--input", tmp_path / "in.pgm",
                       "--out", tmp_path / "out.pgm", "--type", "5C", "--d", 2.5,
                       "--b", 0.5) == 0
        np.testing.assert_array_equal(
            read_pgm(tmp_path / "out.pgm"),
            np.array([[79, 104, 128], [152, 176, 117]], dtype=np.uint8))

    def test_preset_values(self, tmp_path):
        # --type 1C applies T1 = (0.75, 0.87, 0.88); a mid-gray pixel moves
        # exactly as the formula predicts.
        write_pgm(tmp_path / "in.pgm", np.full((2, 2), 128, dtype=np.uint8))
        assert run_cli("turbidity", "--input", tmp_path / "in.pgm",
                       "--out", tmp_path / "out.pgm", "--type", "1C", "--d", 2.5,
                       "--b", 0.2) == 0
        g = 128 / 255.0
        decay = np.array([0.75, 0.87, 0.88]) ** 2.5
        expected = (g * decay + (1 - decay) * 0.2) @ np.array([0.299, 0.587, 0.114])
        expected8 = int(round(np.clip(expected, 0, 1) * 255))
        assert read_pgm(tmp_path / "out.pgm")[0, 0] == expected8

    def test_requires_type_or_t1(self, tmp_path, rng):
        write_pgm(tmp_path / "in.pgm", rng.integers(0, 256, (2, 2), dtype=np.uint8))
        assert run_cli("turbidity", "--input", tmp_path / "in.pgm",
                       "--out", tmp_path / "out.pgm") == 2


class TestPreprocessCommand:
    def test_background_only_self_subtraction(self, tmp_path):
        bg = tmp_path / "bg"
        assert run_cli("simulate", "--out", bg, "--background-only", "--frames", 2,
                       "--background", 0.1) == 0
        out = tmp_path / "out"
        assert run_cli("preprocess", "--frames", bg, "--background", bg, "--out", out) == 0
        for p in out.glob("sonar*.pfm"):
            np.testing.assert_array_equal(read_pfm(p), 0.0)

    def test_median_radius_zero_is_pure_subtraction(self, tmp_path, rng):
        frames = tmp_path / "frames"
        frames.mkdir()
        base = rng.random((384, 224)).astype(np.float32)
        write_pfm(frames / "sonar.pfm", base)
        bg = tmp_path / "bg"
        bg.mkdir()
        write_pfm(bg / "sonar.pfm", np.full((384, 224), 0.25, dtype=np.float32))
        out = tmp_path / "out"
        assert run_cli("preprocess", "--frames", frames, "--background", bg,
                       "--out", out, "--median-radius", 0) == 0
        expected = np.maximum(np.clip(base, 0, 1) - 0.25, 0.0).astype(np.float32)
        np.testing.assert_allclose(read_pfm(out / "sonar.pfm"), expected, atol=1e-7)

    def test_nan_frame_exits_3(self, tmp_path, capsys):
        frames, bg = tmp_path / "frames", tmp_path / "bg"
        frames.mkdir()
        bg.mkdir()
        values = np.zeros((384, 224), dtype=np.float32)
        write_pfm(bg / "sonar.pfm", values)
        values[100, 50] = np.nan
        write_pfm(frames / "sonar.pfm", values)
        out = tmp_path / "out"
        assert run_cli("preprocess", "--frames", frames, "--background", bg, "--out", out) == 3
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("route", ["flag", "config"])
    @pytest.mark.parametrize("radius", [112, 10**9])
    def test_median_window_wider_than_map_exits_2(self, tmp_path, capsys, monkeypatch,
                                                  route, radius):
        # The stock 384x224 sonar map admits a window up to 223 bins (r = 111).
        def no_median(*args, **kwargs):
            raise AssertionError("median filter run despite an oversized window")
        monkeypatch.setattr(preprocess.ndimage, "median_filter", no_median)
        frames = tmp_path / "frames"
        frames.mkdir()
        write_pfm(frames / "sonar.pfm", np.zeros((384, 224), dtype=np.float32))
        out = tmp_path / "out"
        argv = ["preprocess", "--frames", frames, "--background", frames, "--out", out]
        if route == "flag":
            argv += ["--median-radius", radius]
        else:
            (tmp_path / "cfg.json").write_text(json.dumps({"median_radius": radius}))
            argv = ["--config", tmp_path / "cfg.json"] + argv
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err.startswith("error: --median-radius must be in [0, 111]")
        assert not out.exists()

    def test_widest_median_window_is_accepted(self, tmp_path, monkeypatch):
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached
        monkeypatch.setattr(preprocess.ndimage, "median_filter", reached)
        frames = tmp_path / "frames"
        frames.mkdir()
        write_pfm(frames / "sonar.pfm", np.zeros((384, 224), dtype=np.float32))
        with pytest.raises(Reached):
            run_cli("preprocess", "--frames", frames, "--background", frames,
                    "--out", tmp_path / "out", "--median-radius", 111)

    def test_prepares_camera_images(self, dataset, tmp_path):
        bg = tmp_path / "bg"
        assert run_cli("simulate", "--out", bg, "--background-only") == 0
        out = tmp_path / "out"
        assert run_cli("preprocess", "--frames", dataset, "--background", bg,
                       "--out", out) == 0
        assert (out / "camera.pgm").exists()
        crop = json.loads((out / "camera_crop.json").read_text())
        assert set(crop) == {"u0", "v0", "w", "h"}


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, tmp_path, rng):
        img = rng.integers(0, 256, (3, 3), dtype=np.uint8)
        write_pgm(tmp_path / "in.pgm", img)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"type": "5C", "d": 0.0}))
        # d comes from the config (identity); type from the config as well
        assert run_cli("--config", cfg, "turbidity", "--input", tmp_path / "in.pgm",
                       "--out", tmp_path / "o1.pgm") == 0
        np.testing.assert_array_equal(read_pgm(tmp_path / "o1.pgm"), img)
        # explicit --d wins over the config value
        assert run_cli("--config", cfg, "turbidity", "--input", tmp_path / "in.pgm",
                       "--out", tmp_path / "o2.pgm", "--d", 2.5, "--b", 0.5) == 0
        assert not np.array_equal(read_pgm(tmp_path / "o2.pgm"), img)


    def test_typed_values_are_converted(self, tmp_path, rng):
        img = rng.integers(0, 256, (3, 3), dtype=np.uint8)
        write_pgm(tmp_path / "in.pgm", img)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t1": [1, 1, 1], "d": 2, "b": 0.5}))
        assert run_cli("--config", cfg, "turbidity", "--input", tmp_path / "in.pgm",
                       "--out", tmp_path / "o.pgm") == 0
        np.testing.assert_array_equal(read_pgm(tmp_path / "o.pgm"), img)

    @pytest.mark.parametrize("values", [
        {"box_radius": "3"}, {"box_radius": True}, {"box_radius": 2.5},
        {"metric": "census"}, {"cost_scale": "20"}, {"no_prepare": 1}, {"sonar": 3},
    ])
    def test_mistyped_values_exit_2(self, dataset, tmp_path, capsys, values):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        out = tmp_path / "out"
        assert run_cli("--config", cfg, "sweep", "--dataset", dataset, "--out", out) == 2
        assert next(iter(values)) in capsys.readouterr().err
        assert not out.exists()

    def test_required_flag_only_in_config_exits_2(self, tmp_path, capsys):
        # A config file supplies optional flags only; argparse checks required ones first.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out": str(tmp_path / "out")}))
        with pytest.raises(SystemExit) as exc:
            run_cli("--config", cfg, "simulate")
        assert exc.value.code == 2 and "--out" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_abbreviated_flag_exits_2(self, dataset, tmp_path):
        # An abbreviation is not recognised as explicit, so the config value
        # would silently win; abbreviations are refused instead.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"box_radius": 1}))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run_cli("--config", cfg, "sweep", "--dataset", dataset, "--out", out, "--box-rad", 5)
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("values", [{"speckle": 10**400}, {"background": -10**400}])
    def test_integer_too_large_for_float_flag_exits_2(self, tmp_path, capsys, values):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        out = tmp_path / "out"
        assert run_cli("--config", cfg, "simulate", "--out", out, "--seed", 1) == 2
        err = capsys.readouterr().err
        assert next(iter(values)) in err and "Traceback" not in err
        assert not out.exists()

    def test_mistyped_list_value_exits_2(self, tmp_path, rng):
        write_pgm(tmp_path / "in.pgm", rng.integers(0, 256, (2, 2), dtype=np.uint8))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t1": [1, 1]}))
        assert run_cli("--config", cfg, "turbidity", "--input", tmp_path / "in.pgm",
                       "--out", tmp_path / "o.pgm") == 2
        assert not (tmp_path / "o.pgm").exists()


def _with_calibration(section, key, value, command="sweep"):
    """Argv maker: sweep the dataset, or simulate one, with one calibration value replaced."""
    def make(dataset, tmp_path, out):
        data = default_rig().to_dict()
        data[section][key] = value
        path = tmp_path / "calibration.json"
        path.write_text(json.dumps(data))  # writes NaN / Infinity literals
        if command == "simulate":
            return ["simulate", "--calibration", path, "--out", out]
        return ["sweep", "--dataset", dataset, "--calibration", path, "--out", out]
    return make


def _with_scene(kind, key, value):
    """Argv maker: simulate the dataset's scene with one value of its `kind` primitive replaced."""
    def make(dataset, tmp_path, out):
        scene = json.loads((dataset / "scene.json").read_text())
        next(p for p in scene["primitives"] if p["type"] == kind)[key] = value
        (tmp_path / "scene.json").write_text(json.dumps(scene))
        return ["simulate", "--scene", tmp_path / "scene.json", "--out", out]
    return make


def _turbidity_d_nan(dataset, tmp_path, out):
    write_pgm(tmp_path / "in.pgm", np.full((2, 2), 128, dtype=np.uint8))
    return ["turbidity", "--input", tmp_path / "in.pgm", "--out", out / "t.pgm", "--type", "1C",
            "--d", "nan"]


def _eval_with_inf(side):
    """Argv maker: evaluate the ground truth against itself, +inf at one pixel of one side."""
    def make(dataset, tmp_path, out):
        depth = read_pfm(dataset / "depth_gt.pfm")
        depth[120, 160] = np.inf
        write_pfm(tmp_path / "inf.pfm", depth)
        paths = {"pred": dataset / "depth_gt.pfm", "gt": dataset / "depth_gt.pfm",
                 side: tmp_path / "inf.pfm"}
        return ["eval", "--pred", paths["pred"], "--gt", paths["gt"], "--json", out / "m.json",
                "--csv", out / "bins.csv", "--bin-edges", "0,2,5"]
    return make


class TestNonFiniteValues:
    @pytest.mark.parametrize("argv, code", [
        pytest.param(lambda ds, tmp, out: ["sweep", "--dataset", ds, "--out", out,
                                           "--cost-scale", "nan"], 2, id="sweep-cost-scale-nan"),
        pytest.param(lambda ds, tmp, out: ["sweep", "--dataset", ds, "--out", out,
                                           "--cost-scale", "inf"], 2, id="sweep-cost-scale-inf"),
        pytest.param(lambda ds, tmp, out: ["simulate", "--out", out, "--speckle", "nan"], 2,
                     id="simulate-speckle-nan"),
        pytest.param(_turbidity_d_nan, 2, id="turbidity-d-nan"),
        pytest.param(_with_scene("sphere", "radius", float("nan")), 3, id="scene-radius-nan"),
        pytest.param(_with_scene("sphere", "radius", 10**400), 3, id="scene-radius-overflow"),
        pytest.param(lambda ds, tmp, out: ["eval", "--pred", ds / "depth_gt.pfm",
                                           "--gt", ds / "depth_gt.pfm", "--json", out / "m.json",
                                           "--csv", out / "bins.csv", "--bin-edges", "0,nan,5"],
                     2, id="eval-bin-edges-nan"),
        pytest.param(_eval_with_inf("pred"), 3, id="eval-pred-inf"),
        pytest.param(_eval_with_inf("gt"), 3, id="eval-gt-inf"),
        pytest.param(_with_calibration("extrinsics", "translation", [float("nan"), 0.0, 0.0]), 3,
                     id="calibration-translation-nan"),
        pytest.param(_with_calibration("extrinsics", "rotation",
                                       [[1.0, 0.0, 0.0], [0.0, float("nan"), 0.0],
                                        [0.0, 0.0, 1.0]]), 3, id="calibration-rotation-nan"),
        pytest.param(_with_calibration("intrinsics", "fx", float("inf")), 3,
                     id="calibration-fx-inf"),
        pytest.param(_with_calibration("planes", "d0", float("inf")), 3, id="calibration-d0-inf"),
        pytest.param(_with_calibration("planes", "k", float("inf")), 3, id="calibration-k-inf"),
        pytest.param(_with_calibration("sonar", "range_max", float("inf")), 3,
                     id="calibration-range-max-inf"),
        pytest.param(_with_calibration("planes", "k", 1e10), 3, id="calibration-k-overflow"),
        pytest.param(_with_calibration("intrinsics", "width", float("inf")), 3,
                     id="calibration-width-inf"),
        pytest.param(_with_calibration("intrinsics", "fx", 10**400), 3,
                     id="calibration-fx-overflow"),
        # Past the work limits; simulate would render these cheaply if they passed.
        pytest.param(_with_calibration("planes", "n", 14000, "simulate"), 3,
                     id="calibration-n-past-limit"),
        pytest.param(_with_calibration("sonar", "range_bins", 10**4, "simulate"), 3,
                     id="calibration-range-bins-past-limit"),
        # Past the scene extent: simulate once wrote an all-+inf depth_gt.pfm.
        pytest.param(_with_calibration("extrinsics", "translation", [0.0, 0.0, 3.9e38],
                                       "simulate"), 3, id="simulate-translation-past-extent"),
        pytest.param(_with_calibration("extrinsics", "translation", [0.0, 0.0, 3.9e38]), 3,
                     id="sweep-translation-past-extent"),
    ])
    def test_rejected_without_traceback_or_output(self, dataset, tmp_path, capsys, argv, code):
        out = tmp_path / "out"
        assert run_cli(*argv(dataset, tmp_path, out)) == code
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists()


def _preprocess(frames=True, background=True, camera=None, calibration=None):
    """Argv maker: preprocess a frames and a background directory, each holding one zero
    384x224 sonar.pfm unless told not to; ``camera``, an (H, W) shape, adds a gray
    camera.pgm to the frames, and ``calibration`` is passed as the rig."""
    def make(dataset, tmp_path, out):
        dirs = {"frames": tmp_path / "target", "background": tmp_path / "object-free"}
        for path, filled in zip(dirs.values(), (frames, background)):
            path.mkdir()
            if filled:
                write_pfm(path / "sonar.pfm", np.zeros((384, 224), dtype=np.float32))
        if camera is not None:
            write_pgm(dirs["frames"] / "camera.pgm", np.full(camera, 128, dtype=np.uint8))
        argv = ["preprocess", "--frames", dirs["frames"], "--background", dirs["background"],
                "--out", out]
        if calibration is not None:
            calibration.save(tmp_path / "calibration.json")
            argv += ["--calibration", tmp_path / "calibration.json"]
        return argv
    return make


def _sweep_camera_of_wrong_size(dataset, tmp_path, out):
    """Argv maker: sweep a copy of the dataset whose camera.pgm is one column wider than
    the intrinsics."""
    copy_dir = tmp_path / "dataset"
    copy_dir.mkdir()
    for name in ("calibration.json", "sonar.pfm"):
        shutil.copy(dataset / name, copy_dir / name)
    write_pgm(copy_dir / "camera.pgm", np.zeros((240, 321), dtype=np.uint8))
    return ["sweep", "--dataset", copy_dir, "--out", out]


def _eval_mismatch(what):
    """Argv maker: evaluate a 2x3 prediction against a 2x3 ground truth with a 3x2
    prediction mask, or against a 2x4 ground truth."""
    def make(dataset, tmp_path, out):
        write_pfm(tmp_path / "pred.pfm", np.ones((2, 3), dtype=np.float32))
        write_pfm(tmp_path / "gt.pfm", np.ones((2, 3) if what == "mask" else (2, 4),
                                               dtype=np.float32))
        argv = ["eval", "--pred", tmp_path / "pred.pfm", "--gt", tmp_path / "gt.pfm",
                "--json", out / "m.json"]
        if what == "mask":
            write_pgm(tmp_path / "mask.pgm", np.full((3, 2), 255, dtype=np.uint8))
            argv += ["--pred-mask", tmp_path / "mask.pgm"]
        return argv
    return make


def _turbidity_type_and_t1(dataset, tmp_path, out):
    write_pgm(tmp_path / "in.pgm", np.full((2, 2), 128, dtype=np.uint8))
    return ["turbidity", "--input", tmp_path / "in.pgm", "--out", out / "t.pgm", "--type", "1C",
            "--t1", 0.7, 0.8, 0.9]


class TestValidationExits:
    """Each command's own validation exits: the exit code, one error line, no traceback
    and no output."""

    @pytest.mark.parametrize("argv, code, says", [
        pytest.param(lambda ds, tmp, out: ["sweep", "--dataset", tmp / "missing", "--out", out],
                     2, "dataset directory not found", id="sweep-missing-dataset"),
        pytest.param(_preprocess(frames=False), 2, "/target",
                     id="preprocess-frames-without-sonar"),
        pytest.param(_preprocess(background=False), 2, "/object-free",
                     id="preprocess-background-without-sonar"),
        pytest.param(_preprocess(camera=(10, 12)), 3, "(10, 12) does not match intrinsics",
                     id="preprocess-camera-of-wrong-size"),
        pytest.param(_preprocess(camera=(240, 320), calibration=turned_camera(default_rig())), 4,
                     "behind the camera", id="preprocess-camera-facing-away"),
        pytest.param(_sweep_camera_of_wrong_size, 3, "(240, 321) does not match intrinsics",
                     id="sweep-camera-of-wrong-size"),
        pytest.param(lambda ds, tmp, out: ["sweep", "--dataset", ds, "--out", out,
                                           "--extractor", "intensity"],
                     2, "intensity", id="sweep-neg-zncc-on-intensity"),
        pytest.param(lambda ds, tmp, out: ["sweep", "--dataset", ds, "--out", out,
                                           "--patch-radius", 0],
                     2, "patch radius", id="sweep-zncc-patch-radius-0"),
        pytest.param(lambda ds, tmp, out: ["sweep", "--dataset", ds, "--out", out,
                                           "--cost-scale", 1e-50],
                     2, "cost_scale", id="sweep-cost-scale-underflow"),
        pytest.param(_eval_mismatch("mask"), 3, "mask shape (3, 2)", id="eval-pred-mask-shape"),
        pytest.param(_eval_mismatch("size"), 3, "differ in size", id="eval-pred-and-gt-sizes"),
        pytest.param(lambda ds, tmp, out: ["eval", "--pred", ds / "depth_gt.pfm",
                                           "--gt", ds / "depth_gt.pfm", "--json", out / "m.json",
                                           "--csv", out / "bins.csv"],
                     2, "--csv requires --bin-edges", id="eval-csv-without-bin-edges"),
        pytest.param(_turbidity_type_and_t1, 2, "mutually exclusive", id="turbidity-type-and-t1"),
    ])
    def test_exits_with_one_error_line(self, dataset, tmp_path, capsys, argv, code, says):
        out = tmp_path / "out"
        assert run_cli(*argv(dataset, tmp_path, out)) == code
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error:") and says in err
        assert "Traceback" not in err
        assert not out.exists()


class TestJSONTypeRule:
    """Counts are JSON integers, other numbers any JSON number: a calibration or scene value
    once coerced with int() or float() exits 3, naming its key, and writes nothing."""

    @pytest.mark.parametrize("argv, key", [
        pytest.param(_with_calibration("intrinsics", "width", 320.9), "width", id="width-fraction"),
        pytest.param(_with_calibration("planes", "n", 48.7), "n", id="n-fraction"),
        pytest.param(_with_calibration("intrinsics", "fx", True), "fx", id="fx-true"),
        pytest.param(_with_calibration("intrinsics", "cx", "159.5"), "cx", id="cx-string"),
        pytest.param(_with_scene("plane", "reflectance", "0.5"), "reflectance",
                     id="reflectance-string"),
        pytest.param(_with_scene("sphere", "radius", True), "radius", id="radius-true"),
        pytest.param(_with_scene("sphere", "center", ["-0.4", "1.65", "0"]), "center",
                     id="center-strings"),
    ])
    def test_coercible_value_exits_3(self, dataset, tmp_path, capsys, argv, key):
        out = tmp_path / "out"
        assert run_cli(*argv(dataset, tmp_path, out)) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and f" {key}: expected" in err and "Traceback" not in err
        assert not out.exists()


class TestOutOfMemory:
    """A failed allocation in any command exits 4, as a numerical failure."""

    @pytest.mark.parametrize("command, module, stage", [
        ("sweep", sweep, "run_pipeline"),
        ("simulate", simulator, "render_camera"),
    ], ids=["sweep", "simulate"])
    def test_memory_error_exits_4(self, dataset, tmp_path, capsys, monkeypatch,
                                  command, module, stage):
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 557. GiB for an array")
        monkeypatch.setattr(module, stage, out_of_memory)
        out = tmp_path / "out"
        argv = [command, "--out", out] + (["--dataset", dataset] if command == "sweep" else [])
        assert run_cli(*argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: out of memory:") and "Traceback" not in err
        assert not out.exists()


class TestUnusableOutputPath:
    """An output path that cannot take the files exits 2, naming it, before any write."""

    def test_simulate_below_a_file_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_bytes(b"x")
        assert run_cli("simulate", "--out", blocker / "ds") == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(blocker / "ds") in err
        assert blocker.read_bytes() == b"x"

    def test_sweep_output_taken_by_a_directory_exits_2(self, dataset, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "depth_mask.pgm").mkdir(parents=True)
        assert run_cli("sweep", "--dataset", dataset, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(out / "depth_mask.pgm") in err
        assert [p.name for p in out.iterdir()] == ["depth_mask.pgm"]
        assert not any((out / "depth_mask.pgm").iterdir())


# Commands that write several files: how many, and an argv maker of (dataset, calibration,
# output dir).
_MULTI_FILE = {
    "simulate": (8, lambda ds, cal, out: ["simulate", "--calibration", cal, "--out", out,
                                          "--frames", 2]),
    "preprocess": (3, lambda ds, cal, out: ["preprocess", "--frames", ds, "--background", ds,
                                            "--out", out]),
    "sweep": (4, lambda ds, cal, out: ["sweep", "--dataset", ds, "--out", out,
                                       "--export-cost-volume"]),
    "eval": (2, lambda ds, cal, out: ["eval", "--pred", ds / "depth_gt.pfm", "--gt",
                                      ds / "depth_gt.pfm", "--json", out / "metrics.json",
                                      "--csv", out / "bins.csv", "--bin-edges", "0.5,2,5"]),
}


class TestAllOrNothingOutputs:
    """A command that fails while writing its outputs leaves the output directory as it was."""

    @staticmethod
    def argv(command, dataset, tmp_path, out):
        default_rig(32, 24).save(tmp_path / "calibration.json")
        return _MULTI_FILE[command][1](dataset, tmp_path / "calibration.json", out)

    @pytest.mark.parametrize("command", sorted(_MULTI_FILE))
    def test_write_count(self, dataset, tmp_path, command):
        assert run_cli(*self.argv(command, dataset, tmp_path, tmp_path / "out")) == 0
        assert len(list((tmp_path / "out").iterdir())) == _MULTI_FILE[command][0]

    @pytest.mark.parametrize("command, j", [(command, j) for command in sorted(_MULTI_FILE)
                                            for j in range(2 * _MULTI_FILE[command][0])])
    def test_failed_write_leaves_nothing(self, dataset, tmp_path, capsys, monkeypatch,
                                         command, j):
        # Of n files, j < n fails rename j, which ends staged write j under the file's own
        # name, and j >= n fails the temporary file of staged write j - n; both come before
        # renames n .. 2n-1 move the files into place.
        n, calls = _MULTI_FILE[command][0], itertools.count()
        module, name = (os, "replace") if j < n else (tempfile, "mkstemp")
        real = getattr(module, name)

        def fail_jth(*args, **kwargs):
            if next(calls) == j % n:
                raise OSError(28, "No space left on device (injected)")
            return real(*args, **kwargs)

        out = tmp_path / "out"
        out.mkdir()
        # The outputs go two directories below out/, which the command makes and must
        # remove again.
        argv = self.argv(command, dataset, tmp_path, out / "new" / "deeper")
        monkeypatch.setattr(module, name, fail_jth)
        code = run_cli(*argv)
        monkeypatch.undo()
        assert code == 2 and "injected" in capsys.readouterr().err
        assert sorted(out.rglob("*")) == []

    @pytest.mark.parametrize("csv", ["m.json", "./m.json", "sub/../m.json"])
    def test_two_outputs_on_one_path_exit_2(self, dataset, tmp_path, capsys, csv):
        out = tmp_path / "out"
        assert run_cli("eval", "--pred", dataset / "depth_gt.pfm", "--gt", dataset / "depth_gt.pfm",
                       "--json", out / "m.json", "--csv", f"{out}/{csv}",
                       "--bin-edges", "0.5,2,5") == 2
        assert "output path named twice" in capsys.readouterr().err
        assert not out.exists()

    def test_name_too_long_leaves_nothing(self, dataset, tmp_path, capsys):
        # The csv's name passes the 255-byte name limit; neither the json written before
        # it nor the output directory made for them may stay behind.
        out = tmp_path / "out"
        assert run_cli("eval", "--pred", dataset / "depth_gt.pfm", "--gt", dataset / "depth_gt.pfm",
                       "--json", out / "metrics.json", "--csv", out / ("c" * 252 + ".csv"),
                       "--bin-edges", "0.5,2,5") == 2
        assert "cannot write" in capsys.readouterr().err
        assert not out.exists()

    def test_longest_names_are_written(self, dataset, tmp_path):
        # A 254-byte name is legal, although a temporary name built from it would not be.
        out, name = tmp_path / "out", "c" * 250 + ".csv"
        assert run_cli("eval", "--pred", dataset / "depth_gt.pfm", "--gt", dataset / "depth_gt.pfm",
                       "--json", out / "metrics.json", "--csv", out / name,
                       "--bin-edges", "0.5,2,5") == 0
        assert sorted(p.name for p in out.iterdir()) == sorted([name, "metrics.json"])


class TestDegenerateRig:
    """A camera facing away from the sonar, and a camera image with no texture."""

    @pytest.fixture
    def turned(self, tmp_path):
        path = tmp_path / "turned.json"
        turned_camera(default_rig()).save(path)
        return path

    def test_camera_facing_away_exits_4(self, dataset, turned, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("sweep", "--dataset", dataset, "--calibration", turned, "--out", out) == 4
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    def test_camera_facing_away_unprepared_no_valid_pixel(self, dataset, turned, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("sweep", "--dataset", dataset, "--calibration", turned, "--out", out,
                       "--no-prepare") == 0
        assert "(0 valid pixels)" in capsys.readouterr().out
        assert not read_pgm(out / "depth_mask.pgm").any()
        assert not read_pfm(out / "depth.pfm").any()

    def test_grazing_rays_unprepared_exits_0(self, dataset, tmp_path, capsys):
        # Pixel row v = cy runs parallel to the plane family.
        calibration, out = tmp_path / "grazing.json", tmp_path / "out"
        grazing_rig().save(calibration)
        assert run_cli("sweep", "--dataset", dataset, "--calibration", calibration, "--out", out,
                       "--no-prepare") == 0
        assert "Traceback" not in capsys.readouterr().err
        mask = read_pgm(out / "depth_mask.pgm")
        assert mask.any() and not mask[int(grazing_rig().intrinsics.cy)].any()

    def test_textureless_camera_empty_mask(self, dataset, tmp_path):
        ds, out = tmp_path / "ds", tmp_path / "out"
        ds.mkdir()
        for name in ("calibration.json", "sonar.pfm"):
            (ds / name).write_bytes((dataset / name).read_bytes())
        write_pgm(ds / "camera.pgm", np.full(read_pgm(dataset / "camera.pgm").shape, 128, np.uint8))
        assert run_cli("sweep", "--dataset", ds, "--out", out) == 0
        assert not read_pgm(out / "depth_mask.pgm").any()


# Any calibration, scene or --config file, and any damaged dataset file, ends
# in exit 0, 2, 3 or 4 with no traceback; a failed command writes nothing.
# A 32x24 camera keeps the inputs that do parse fast to run.

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                 max_size=4),
    max_leaves=8)
_TURBIDITY_CONFIGS = st.dictionaries(
    st.sampled_from(["type", "t1", "d", "b", "input", "out", "help"]) | st.text(max_size=8),
    st.sampled_from(["1C", "5C"]) | _JSON, max_size=4)
_FILES = st.binary(max_size=200) | _JSON.map(json.dumps).map(str.encode)

# Bytes that are not UTF-8, and nesting deeper than the interpreter's recursion limit.
_NOT_UTF8 = b"\xff\xfe\x00garbage"
_DEEP = b"[" * 100000


def _leaves(doc, path=()):
    """Key paths of every scalar in a JSON document."""
    if isinstance(doc, (dict, list)):
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
        return [leaf for key, value in items for leaf in _leaves(value, path + (key,))]
    return [path]


def _replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


_CALIBRATION = default_rig(32, 24).to_dict()
_SCENE = default_scene().to_dict()
_SPHERE = next(i for i, p in enumerate(_SCENE["primitives"]) if p["type"] == "sphere")
_PLANE = next(i for i, p in enumerate(_SCENE["primitives"]) if p["type"] == "plane")


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    """A 32x24-camera dataset and a fresh-path maker for each example."""
    root = tmp_path_factory.mktemp("small")
    (root / "calibration.json").write_text(json.dumps(_CALIBRATION))
    assert run_cli("simulate", "--calibration", root / "calibration.json",
                   "--out", root / "ds") == 0
    counter = itertools.count()
    return root, lambda: root / f"case{next(counter)}"


def _holds_contract(argv, out):
    """Run the CLI: exit 0/2/3/4 (argparse's SystemExit(2) included), and no output on failure."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = run_cli(*argv)
        except SystemExit as exc:
            assert exc.code == 2
            code = 2
    assert code in (0, 2, 3, 4) and "Traceback" not in err.getvalue()
    if code != 0:
        assert not out.exists()
    if out.is_dir():
        shutil.rmtree(out)


class TestAnyInputFile:
    @given(data=_FILES)
    @example(data=_NOT_UTF8)
    @example(data=_DEEP)
    @settings(max_examples=40, deadline=None)
    def test_calibration_file(self, small, data):
        root, fresh = small
        case = fresh()
        case.mkdir()
        (case / "calibration.json").write_bytes(data)
        _holds_contract(["sweep", "--dataset", root / "ds", "--calibration",
                         case / "calibration.json", "--out", case / "out"], case / "out")

    @given(data=_FILES)
    @example(data=_NOT_UTF8)
    @example(data=_DEEP)
    @settings(max_examples=40, deadline=None)
    def test_scene_file(self, small, data):
        root, fresh = small
        case = fresh()
        case.mkdir()
        (case / "scene.json").write_bytes(data)
        _holds_contract(["simulate", "--calibration", root / "calibration.json",
                         "--scene", case / "scene.json", "--out", case / "out"], case / "out")

    @given(data=_FILES | _TURBIDITY_CONFIGS.map(json.dumps).map(str.encode))
    @example(data=_NOT_UTF8)
    @example(data=_DEEP)
    @settings(max_examples=60, deadline=None)
    def test_config_file(self, small, data):
        root, fresh = small
        case = fresh()
        case.mkdir()
        (case / "cfg.json").write_bytes(data)
        _holds_contract(["--config", case / "cfg.json", "turbidity",
                         "--input", root / "ds" / "camera.pgm", "--out", case / "out.pgm"],
                        case / "out.pgm")

    @given(path=st.sampled_from(_leaves(_CALIBRATION)), value=_JSON)
    @settings(max_examples=40, deadline=None)
    def test_calibration_with_one_leaf_replaced(self, small, path, value):
        root, fresh = small
        case = fresh()
        case.mkdir()
        (case / "calibration.json").write_text(json.dumps(_replaced(_CALIBRATION, path, value)))
        _holds_contract(["sweep", "--dataset", root / "ds", "--calibration",
                         case / "calibration.json", "--out", case / "out"], case / "out")

    @given(path=st.sampled_from(_leaves(_SCENE)), value=_JSON)
    @example(path=("primitives", _SPHERE, "center"), value="abc")
    @example(path=("primitives", _SPHERE, "center"), value=[1, 2])
    @example(path=("primitives", _SPHERE, "radius"), value="x")
    # Past the scene extent: a depth beyond float32 (once written as +inf),
    # and squared lengths beyond float64 (once overflow warnings).
    @example(path=("primitives", _PLANE, "point", 1), value=3.917661775723211e38)
    @example(path=("primitives", _SPHERE, "center", 0), value=1.3407807929942597e154)
    @example(path=("primitives", _PLANE, "normal", 0), value=1.3407807929942597e154)
    @settings(max_examples=40, deadline=None)
    def test_scene_with_one_leaf_replaced(self, small, path, value):
        root, fresh = small
        case = fresh()
        case.mkdir()
        (case / "scene.json").write_text(json.dumps(_replaced(_SCENE, path, value)))
        _holds_contract(["simulate", "--calibration", root / "calibration.json",
                         "--scene", case / "scene.json", "--out", case / "out"], case / "out")

    @given(name=st.sampled_from(["camera.pgm", "sonar.pfm", "calibration.json"]),
           keep=st.none() | st.floats(0.0, 1.0))
    @example(name="calibration.json", keep=0.0)
    @settings(max_examples=40, deadline=None)
    def test_dataset_file_missing_empty_or_truncated(self, small, name, keep):
        # keep: None deletes the file, else the kept fraction of its bytes.
        root, fresh = small
        case = fresh()
        shutil.copytree(root / "ds", case)
        if keep is None:
            (case / name).unlink()
        else:
            data = (case / name).read_bytes()
            (case / name).write_bytes(data[:round(keep * len(data))])
        _holds_contract(["sweep", "--dataset", case, "--out", case / "out"], case / "out")


@pytest.mark.skipif(not Path("/proc/self/mem").is_file(), reason="needs /proc/self/mem")
class TestUnreadableInputFile:
    """A file that exists but cannot be read (here: EIO) exits 2 naming it, no traceback."""

    @pytest.mark.parametrize("argv", [
        lambda ds, out: ["eval", "--pred", "/proc/self/mem", "--gt", "/proc/self/mem",
                         "--json", out / "m.json"],
        lambda ds, out: ["--config", "/proc/self/mem", "sweep", "--dataset", ds, "--out", out],
    ], ids=["eval-pred", "config"])
    def test_exits_2_naming_the_path(self, dataset, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert run_cli(*argv(dataset, out)) == 2
        err = capsys.readouterr().err
        assert "cannot read /proc/self/mem" in err and "Traceback" not in err
        assert not out.exists()


class TestNotARegularFile:
    """A path that exists but is no regular file is refused before it is opened (so a
    FIFO never blocks and a device is never read), naming that cause, not "not found"."""

    @pytest.mark.parametrize("kind", ["directory", "fifo"])
    @pytest.mark.parametrize("argv, what", [
        (lambda ds, path, out: ["--config", path, "sweep", "--dataset", ds, "--out", out],
         "config file"),
        (lambda ds, path, out: ["eval", "--pred", path, "--gt", ds / "depth_gt.pfm",
                                "--json", out / "m.json"], "predicted depth"),
    ], ids=["config", "eval-pred"])
    def test_exits_2_naming_the_cause(self, dataset, tmp_path, capsys, kind, argv, what):
        path = tmp_path / kind
        if kind == "directory":
            path.mkdir()
        elif hasattr(os, "mkfifo"):
            os.mkfifo(path)
        else:
            pytest.skip("needs os.mkfifo")
        out = tmp_path / "out"
        assert run_cli(*argv(dataset, path, out)) == 2
        err = capsys.readouterr().err
        assert f"{what} is not a regular file: {path}" in err
        assert "not found" not in err and "Traceback" not in err
        assert not out.exists()


class TestSubprocessEntrypoint:
    def test_module_invocation_and_help(self):
        proc = subprocess.run([sys.executable, "-m", "oasweep", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        for sub in ("simulate", "preprocess", "sweep", "eval", "turbidity"):
            assert sub in proc.stdout

    def test_console_script_targets_main(self):
        tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
        project = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
        module, _, name = project["project"]["scripts"]["oasweep"].partition(":")
        assert getattr(importlib.import_module(module), name) is main

    def test_every_subcommand_help_lists_flags(self):
        for sub, probe in (("simulate", "--seed"), ("preprocess", "--median-radius"),
                           ("sweep", "--cost-scale"), ("eval", "--bin-edges"),
                           ("turbidity", "--d")):
            proc = subprocess.run([sys.executable, "-m", "oasweep", sub, "--help"],
                                  capture_output=True, text=True)
            assert proc.returncode == 0
            assert probe in proc.stdout

    @pytest.mark.parametrize("component, code", [(1e6, 0), (3.9e38, 3)],
                             ids=["at-scene-extent", "past-scene-extent"])
    def test_translation_bound_under_runtime_warning_errors(self, tmp_path, component, code):
        data = default_rig(32, 24).to_dict()
        data["extrinsics"]["translation"] = [0.0, 0.0, component]
        (tmp_path / "calibration.json").write_text(json.dumps(data))
        out = tmp_path / "out"
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "oasweep",
                               "simulate", "--calibration", tmp_path / "calibration.json",
                               "--out", out], capture_output=True, text=True)
        assert proc.returncode == code and "Traceback" not in proc.stderr
        if code:
            assert "extrinsics.translation" in proc.stderr and not out.exists()
        else:
            assert np.all(np.isfinite(read_pfm(out / "depth_gt.pfm")))
