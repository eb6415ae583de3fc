import dataclasses
import errno
import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oasweep.config import CalibrationBundle, default_rig
from oasweep.formats import (
    SSCV_INVALID_COST,
    FileFormatError,
    atomic_write,
    encode_cost_volume,
    encode_json,
    encode_pfm,
    encode_pgm,
    from_record,
    json_fits,
    read_cost_volume,
    read_json,
    read_pfm,
    read_pgm,
    to_record,
    write_pfm,
    write_pgm,
)
from oasweep.geometry import CameraIntrinsics, PlaneHypothesisSet
from oasweep.simulator import SpherePrimitive
from oasweep.sweep import CostVolume, SweepConfig, run_pipeline

from conftest import compact_volume, dense_encode_cost_volume, entry_lists, stock_inputs


class TestPGM:
    def test_round_trip_uint8(self, tmp_path, rng):
        img = rng.integers(0, 256, size=(7, 11), dtype=np.uint8)
        path = tmp_path / "x.pgm"
        write_pgm(path, img)
        np.testing.assert_array_equal(read_pgm(path), img)

    def test_float_input_quantized(self, tmp_path):
        img = np.array([[0.0, 0.5, 1.0]])
        path = tmp_path / "x.pgm"
        write_pgm(path, img)
        np.testing.assert_array_equal(read_pgm(path), [[0, 128, 255]])

    def test_header_bytes(self, tmp_path):
        path = tmp_path / "x.pgm"
        write_pgm(path, np.zeros((2, 3), dtype=np.uint8))
        assert path.read_bytes() == b"P5\n3 2\n255\n" + b"\x00" * 6

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(FileFormatError):
            read_pgm(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00")
        with pytest.raises(FileFormatError):
            read_pgm(path)

    @pytest.mark.parametrize("dims", [b"-3 4", b"0 4", b"3 -4", b"3 0", b"-3 -4"])
    def test_non_positive_dimensions(self, tmp_path, dims):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P5\n" + dims + b"\n255\n" + b"\x00" * 64)
        with pytest.raises(FileFormatError):
            read_pgm(path)


class TestPFM:
    def test_round_trip(self, tmp_path, rng):
        values = rng.normal(size=(5, 9)).astype(np.float32)
        path = tmp_path / "x.pfm"
        write_pfm(path, values)
        np.testing.assert_array_equal(read_pfm(path), values)

    def test_header_and_row_order(self, tmp_path):
        path = tmp_path / "x.pfm"
        write_pfm(path, np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32))
        raw = path.read_bytes()
        assert raw.startswith(b"Pf\n2 2\n-1.0\n")
        # Bottom row first.
        body = np.frombuffer(raw.split(b"\n", 3)[3], dtype="<f4")
        np.testing.assert_array_equal(body, [3.0, 4.0, 1.0, 2.0])

    def test_corrupted_raises(self, tmp_path):
        path = tmp_path / "x.pfm"
        path.write_bytes(b"Pf\n5 5\n-1.0\n\x00\x00")
        with pytest.raises(FileFormatError):
            read_pfm(path)

    @pytest.mark.parametrize("dims", [b"-3 4", b"0 4", b"3 -4", b"3 0", b"-3 -4"])
    def test_non_positive_dimensions(self, tmp_path, dims):
        path = tmp_path / "x.pfm"
        path.write_bytes(b"Pf\n" + dims + b"\n-1.0\n" + b"\x00" * 256)
        with pytest.raises(FileFormatError):
            read_pfm(path)


    @pytest.mark.parametrize("scale", [b"0", b"-0.0", b"nan", b"inf", b"-inf"])
    def test_zero_or_non_finite_scale(self, tmp_path, scale):
        # The scale's sign gives the byte order, so it must be non-zero and finite.
        path = tmp_path / "x.pfm"
        path.write_bytes(b"Pf\n2 2\n" + scale + b"\n" + b"\x00" * 16)
        with pytest.raises(FileFormatError, match="scale"):
            read_pfm(path)


class TestCostVolume:
    def test_round_trip(self, tmp_path, rng):
        # The file holds the costs at valid entries and 1e9 everywhere else.
        costs = rng.normal(size=(4, 6, 5)).astype(np.float32)
        valid = rng.random(size=(4, 6, 5)) > 0.3
        path = tmp_path / "x.sscv"
        atomic_write(path, encode_cost_volume(compact_volume(costs, valid)))
        got_costs, got_valid = read_cost_volume(path)
        np.testing.assert_array_equal(got_costs, np.where(valid, costs, np.float32(1e9)))
        np.testing.assert_array_equal(got_valid, valid)

    def test_compact_costs_must_match_mask(self):
        lists = entry_lists(np.array([[[True, False, True]]]))
        for costs in (np.zeros(1, np.float32), np.zeros(3, np.float32), np.float32(0.0)):
            with pytest.raises(ValueError, match="one value per entry"):
                encode_cost_volume(CostVolume(*lists, costs=costs))

    def test_layout_u_major_then_v_then_i(self):
        # 1x2x2 volume: u index varies slowest in the payload.
        costs = np.array([[[0.0, 1.0], [2.0, 3.0]]], dtype=np.float32)
        valid = np.ones((1, 2, 2), dtype=bool)
        raw = b"".join(encode_cost_volume(compact_volume(costs, valid)))
        assert raw[:5] == b"SSCV1"
        h, w, n = np.frombuffer(raw, dtype="<u4", count=3, offset=5)
        assert (h, w, n) == (1, 2, 2)
        payload = np.frombuffer(raw, dtype="<f4", count=4, offset=17)
        np.testing.assert_array_equal(payload, [0.0, 1.0, 2.0, 3.0])

    def test_truncated_raises(self, tmp_path):
        path = tmp_path / "x.sscv"
        path.write_bytes(b"SSCV1" + np.array([2, 2, 2], dtype="<u4").tobytes() + b"\x00" * 3)
        with pytest.raises(FileFormatError):
            read_cost_volume(path)

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "x.sscv"
        path.write_bytes(b"NOPE!" + b"\x00" * 32)
        with pytest.raises(FileFormatError):
            read_cost_volume(path)


_WRITERS = {
    "write_pgm": lambda path: write_pgm(path, np.zeros((2, 3), dtype=np.uint8)),
    "write_pfm": lambda path: write_pfm(path, np.zeros((2, 3), dtype=np.float32)),
    "CalibrationBundle.save": lambda path: default_rig(32, 24).save(path),
}


class TestFileNames:
    """The writers' temporary names do not grow with the target's, so every legal name is
    written, and a name past the limit fails without leaving a temporary file."""

    @pytest.mark.parametrize("writer", sorted(_WRITERS))
    def test_longest_legal_name_is_written(self, tmp_path, writer):
        name = "x" * (os.pathconf(tmp_path, "PC_NAME_MAX") - 1)  # 254 bytes on most file systems
        _WRITERS[writer](tmp_path / name)
        assert [path.name for path in tmp_path.iterdir()] == [name]

    @pytest.mark.parametrize("writer", sorted(_WRITERS))
    def test_name_past_the_limit_leaves_nothing(self, tmp_path, writer):
        name = "x" * (os.pathconf(tmp_path, "PC_NAME_MAX") + 1)
        with pytest.raises(OSError) as raised:
            _WRITERS[writer](tmp_path / name)
        assert raised.value.errno == errno.ENAMETOOLONG
        assert list(tmp_path.iterdir()) == []


class TestJSON:
    def test_bytes(self):
        assert encode_json({"b": [1, 2.5], "a": "x"}) == (
            b'{\n  "a": "x",\n  "b": [\n    1,\n    2.5\n  ]\n}\n')

    def test_calibration_save_round_trip(self, tmp_path, rig):
        path = tmp_path / "calibration.json"
        rig.save(path)
        assert path.read_bytes() == encode_json(rig.to_dict())
        assert CalibrationBundle.from_dict(read_json(path)).to_dict() == json.loads(path.read_bytes())
        assert [p.name for p in tmp_path.iterdir()] == ["calibration.json"]

    @pytest.mark.parametrize("rig", [
        default_rig(),
        default_rig(640, 480),
        # perfbench's fine-planes rig: 95 planes over the stock span, k**(N-1) unchanged.
        dataclasses.replace(default_rig(), planes=PlaneHypothesisSet(
            alpha=default_rig().planes.alpha, d0=0.5, k=1.05 ** (47 / 94), n=95)),
    ], ids=["stock", "640x480", "fine-planes"])
    def test_calibration_bytes_round_trip(self, rig):
        encoded = encode_json(rig.to_dict())
        assert encode_json(CalibrationBundle.from_dict(json.loads(encoded)).to_dict()) == encoded

    @pytest.mark.parametrize("data", [
        b"", b"\xff\xfe\x00garbage", b"\x80{}", b"[" * 100000, b"{} {}", b'{"a": 1',
    ], ids=["empty", "utf16-garbage", "not-utf8", "deep", "trailing", "truncated"])
    def test_undecodable_raises(self, tmp_path, data):
        path = tmp_path / "x.json"
        path.write_bytes(data)
        with pytest.raises(FileFormatError, match="not valid JSON"):
            read_json(path)


class TestRecords:
    """One type rule for every JSON document: counts are JSON integers, other numbers any
    JSON number, arrays nested lists of JSON numbers."""

    @pytest.mark.parametrize("value, kind, fits", [
        (3, int, True), (3.0, int, False), (True, int, False), (False, int, False),
        (3, float, True), (2.5, float, True), (10**400, float, True), (True, float, False),
        ("3", float, False), (None, float, False), ("a", str, True), (1, str, False),
    ])
    def test_json_fits(self, value, kind, fits):
        assert json_fits(value, kind) is fits

    @pytest.mark.parametrize("center", [
        [True, 0, 0], ["1", "2", "3"], [[1, 2], [3]], [1, [2], 3], [[1, 2, 3], 4], 1.0, None,
        [10**400, 0, 0],
    ], ids=["bool", "strings", "ragged", "mixed-depth", "mixed-tail", "scalar", "null",
            "overflow"])
    def test_array_field_refuses(self, center):
        with pytest.raises(ValueError, match=r"^center: "):
            from_record(SpherePrimitive, {"center": center, "radius": 0.3, "reflectance": 0.5})

    @pytest.mark.parametrize("key, value", [
        ("radius", 10**400), ("radius", True), ("radius", "0.3"), ("reflectance", [0.5]),
    ])
    def test_float_field_refuses(self, key, value):
        record = {"center": [0, 2, 0], "radius": 0.3, "reflectance": 0.5, key: value}
        with pytest.raises(ValueError, match=f"^{key}: "):
            from_record(SpherePrimitive, record)

    @pytest.mark.parametrize("value", [240.0, 240.5, True, "240"])
    def test_int_field_refuses(self, value):
        record = {"fx": 200, "fy": 200, "cx": 159.5, "cy": 119.5, "width": 320, "height": value}
        with pytest.raises(ValueError, match=r"^height: expected int"):
            from_record(CameraIntrinsics, record)

    def test_round_trip_types(self):
        sphere = from_record(SpherePrimitive, {"center": [0, 2, 0], "radius": 1, "reflectance": 0,
                                               "type": "ignored"})
        assert type(sphere.radius) is float and sphere.center.dtype == np.float64
        assert to_record(sphere) == {"center": [0.0, 2.0, 0.0], "radius": 1.0,
                                     "reflectance": 0.0}

    def test_degrees(self):
        planes = default_rig().planes
        record = to_record(planes, degrees=("alpha",))
        assert set(record) == {"alpha_deg", "d0", "k", "n"} and record["alpha_deg"] == 45.0
        assert from_record(PlaneHypothesisSet, record, degrees=("alpha",)) == planes


# Any byte string fed to a reader yields an array of the shape its header
# declares or a FileFormatError; never another exception.

def _header_file(magic: bytes, dims, fields, body_size: int):
    return st.tuples(dims, st.sampled_from(fields), st.binary(max_size=body_size)).map(
        lambda t: (magic + t[0][1] + t[1] + t[2], t[0][0]))


def _dims(lo: int, hi: int, count: int):
    """(declared shape, header text) with the shape listed in file order reversed."""
    return st.lists(st.integers(lo, hi), min_size=count, max_size=count).map(
        lambda d: (tuple(reversed(d)), " ".join(map(str, d)).encode() + b"\n"))


_PGM_FILES = st.one_of(
    st.binary(max_size=64).map(lambda b: (b, None)),
    st.binary(max_size=64).map(lambda b: (b"P5" + b, None)),
    _header_file(b"P5\n", _dims(-3, 6, 2), [b"255\n", b"65535\n", b"-1\n", b"x\n"], 48),
)
_PFM_FILES = st.one_of(
    st.binary(max_size=64).map(lambda b: (b, None)),
    st.binary(max_size=64).map(lambda b: (b"Pf" + b, None)),
    _header_file(b"Pf\n", _dims(-3, 6, 2), [b"-1.0\n", b"1.0\n", b"nan\n", b"x\n"], 160),
)
_SSCV_FILES = st.one_of(
    st.binary(max_size=64).map(lambda b: (b, None)),
    st.tuples(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
              st.binary(max_size=400)).map(
        lambda t: (b"SSCV1" + np.array(t[0], dtype="<u4").tobytes() + t[1], t[0])),
)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


def _read_or_reject(reader, path, data):
    path.write_bytes(data)
    try:
        return reader(path)
    except FileFormatError:
        return None


class TestArbitraryBytes:
    @given(file=_PGM_FILES)
    @settings(max_examples=300, deadline=None)
    def test_read_pgm(self, fuzz_path, file):
        data, shape = file
        image = _read_or_reject(read_pgm, fuzz_path, data)
        if image is not None:
            assert image.dtype == np.uint8 and image.ndim == 2 and min(image.shape) > 0
            assert shape is None or image.shape == shape

    @given(file=_PFM_FILES)
    @settings(max_examples=300, deadline=None)
    def test_read_pfm(self, fuzz_path, file):
        data, shape = file
        values = _read_or_reject(read_pfm, fuzz_path, data)
        if values is not None:
            assert values.dtype == np.float32 and values.ndim == 2 and min(values.shape) > 0
            assert shape is None or values.shape == shape

    @given(file=_SSCV_FILES)
    @settings(max_examples=300, deadline=None)
    def test_read_cost_volume(self, fuzz_path, file):
        data, shape = file
        volume = _read_or_reject(read_cost_volume, fuzz_path, data)
        if volume is not None:
            costs, valid = volume
            assert costs.dtype == np.float32 and valid.dtype == bool
            assert costs.shape == valid.shape and costs.ndim == 3
            assert shape is None or costs.shape == shape


# Exact round trips at arbitrary small shapes (every side 1..5, so 1x1 and 1xN
# occur; the examples pin them). Bytes are compared, so -0.0 must survive too.

_FINITE_F32 = st.floats(width=32, allow_nan=False, allow_infinity=False)


def _shapes(dims: int):
    return hnp.array_shapes(min_dims=dims, max_dims=dims, min_side=1, max_side=5)


_VOLUMES = _shapes(3).flatmap(lambda shape: st.tuples(
    hnp.arrays(np.float32, shape, elements=_FINITE_F32), hnp.arrays(np.bool_, shape)))


class TestExactRoundTrips:
    @given(values=hnp.arrays(np.float32, _shapes(2), elements=_FINITE_F32))
    @example(values=np.array([[-0.0]], dtype=np.float32))
    @example(values=np.array([[3.4e38, -1e-45, 0.0, -2.5]], dtype=np.float32))
    @settings(max_examples=200, deadline=None)
    def test_pfm(self, fuzz_path, values):
        fuzz_path.write_bytes(encode_pfm(values))
        got = read_pfm(fuzz_path)
        assert got.dtype == np.float32 and got.shape == values.shape
        assert got.tobytes() == values.tobytes()

    @given(image=hnp.arrays(np.uint8, _shapes(2)))
    @example(image=np.array([[255]], dtype=np.uint8))
    @example(image=np.array([[0, 10, 32, 255]], dtype=np.uint8))
    @settings(max_examples=200, deadline=None)
    def test_pgm(self, fuzz_path, image):
        fuzz_path.write_bytes(encode_pgm(image))
        got = read_pgm(fuzz_path)
        assert got.dtype == np.uint8 and got.shape == image.shape
        assert got.tobytes() == image.tobytes()

    @given(volume=_VOLUMES)
    @example(volume=(np.array([[[-0.0]]], dtype=np.float32), np.array([[[True]]])))
    @example(volume=(np.array([[[1.0], [2.0], [-3.0]]], dtype=np.float32),
                     np.array([[[True], [False], [True]]])))
    @settings(max_examples=200, deadline=None)
    def test_cost_volume(self, fuzz_path, volume):
        costs, valid = volume
        header, file_costs, flags = pieces = encode_cost_volume(compact_volume(costs, valid))
        # The header, then H*W*N float32 costs, then H*W*N u8 flags.
        assert len(header) == 17
        assert file_costs.dtype == np.dtype("<f4") and file_costs.size == costs.size
        assert flags.dtype == np.uint8 and flags.size == costs.size
        assert b"".join(pieces) == dense_encode_cost_volume(compact_volume(costs, valid))
        atomic_write(fuzz_path, pieces)
        got_costs, got_valid = read_cost_volume(fuzz_path)
        assert got_costs.dtype == np.float32 and got_costs.shape == costs.shape
        assert got_costs.tobytes() == np.where(valid, costs, SSCV_INVALID_COST).tobytes()
        np.testing.assert_array_equal(got_valid, valid)
        assert got_valid.dtype == bool


class TestEncodeMemory:
    def test_dense_volume_peak_is_bounded(self):
        # A stock neg-dot volume keeps every warp-valid entry, a quarter of
        # H W N. Encoding holds the file's 5 bytes per slot and one int64 slot
        # per entry, and no entry-sized array beside them through the fills.
        rig = default_rig()
        prepared, window, frame = stock_inputs(rig)
        _, volume = run_pipeline(prepared, frame, rig, SweepConfig(metric="neg-dot"),
                                 origin=(window.u0, window.v0))
        h, w, n = volume.shape
        tracemalloc.start()
        try:
            encode_cost_volume(volume)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert volume.costs.size > h * w * n / 5
        assert peak <= 5 * h * w * n + 8 * volume.costs.size + 2**20
