"""File formats: JSON documents, PGM images, PFM float maps, and the SSCV1 cost volume.

All writers go through :func:`atomic_write`, so a crashed command never
leaves a partial file behind.

Formats:
  - PGM: binary P5, 8-bit, rows top to bottom.
  - PFM: grayscale "Pf", little-endian (scale line "-1.0"), rows bottom to
    top per the PFM convention.
  - SSCV1: magic ``SSCV1``, then u32 H, W, N (little-endian), then H*W*N
    float32 costs ordered u-major then v then i, invalid entries holding
    SSCV_INVALID_COST (1e9), then H*W*N u8 validity flags in the same order.
"""

import dataclasses
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np

SSCV_MAGIC = b"SSCV1"
SSCV_INVALID_COST = np.float32(1e9)  # the cost an SSCV1 file holds at invalid entries


class FileFormatError(ValueError):
    """Input file is malformed or does not match its declared format."""


def atomic_write(path, data) -> None:
    """Write bytes, or a list of bytes-like blocks in order, to ``path`` via a
    short-named temp file beside it, then rename."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".oasweep.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.writelines(data if isinstance(data, list) else [data])
        os.chmod(tmp, 0o644)  # mkstemp defaults to 0600
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def encode_json(data) -> bytes:
    """Indented, key-sorted JSON bytes with a trailing newline."""
    return (json.dumps(data, indent=2, sort_keys=True) + "\n").encode()


def read_json(path):
    """Decode a JSON file; bytes that are not JSON raise FileFormatError."""
    try:
        return json.loads(Path(path).read_bytes())
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError
        raise FileFormatError(f"{path}: not valid JSON: {exc}") from exc


def json_fits(value, kind) -> bool:
    """Whether a decoded JSON value fits a field of type ``kind``: int takes JSON integers
    only (not true/false, not 3.0), float any JSON number, str a string."""
    return type(value) in ((int, float) if kind is float else (kind,))


def to_record(obj, degrees=()) -> dict:
    """A dataclass as a JSON object, one key per field. Arrays become nested lists; the
    radian fields named in ``degrees`` are written in degrees under ``<name>_deg``."""
    record = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    for name in [name for name in degrees if name in record]:
        record[f"{name}_deg"] = math.degrees(record.pop(name))
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in record.items()}


def from_record(cls, record, degrees=()):
    """The inverse of :func:`to_record`. Each value must fit its field's annotation: an
    int or a float as :func:`json_fits` says, an np.ndarray a nested list of JSON numbers
    whose every level has one length. A value that does not fit raises ValueError naming
    its key."""
    values = {}
    for field in dataclasses.fields(cls):
        key = f"{field.name}_deg" if field.name in degrees else field.name
        value = record[key]
        try:
            if field.type is np.ndarray:
                value = _json_array(value)
            elif json_fits(value, field.type):
                value = field.type(value)  # a float field reads 3 as 3.0
            else:
                raise ValueError(f"expected {field.type.__name__}")
        except (ValueError, OverflowError) as exc:  # OverflowError: an integer past float
            raise ValueError(f"{key}: {exc}, got {value!r}") from None
        values[field.name] = math.radians(value) if field.name in degrees else value
    return cls(**values)


def _json_array(value) -> np.ndarray:
    """A float array from a nested list of JSON numbers, walked one level at a time, so
    no nesting that json.loads returns can exhaust the stack."""
    shape, cells = [], [value] if type(value) is list else None
    while cells and all(type(c) is list for c in cells):
        if len({len(c) for c in cells}) > 1:
            raise ValueError("ragged list")
        shape.append(len(cells[0]))
        cells = [item for c in cells for item in c]
    if cells is None or not all(json_fits(c, float) for c in cells):
        raise ValueError("expected a nested list of JSON numbers")
    return np.array(cells, dtype=float).reshape(shape)


def encode_pgm(image: np.ndarray) -> bytes:
    """8-bit binary PGM bytes from a float image in [0, 1] or a uint8 image."""
    image = np.asarray(image)
    if image.ndim != 2:
        raise ValueError(f"PGM wants a 2-D image, got shape {image.shape}")
    if image.dtype != np.uint8:
        image = (np.clip(image, 0.0, 1.0) * 255.0).round().astype(np.uint8)
    h, w = image.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + image.tobytes()


def write_pgm(path, image: np.ndarray) -> None:
    atomic_write(path, encode_pgm(image))


def read_pgm(path) -> np.ndarray:
    """Read a binary P5 PGM into a uint8 array of shape (H, W)."""
    data = Path(path).read_bytes()
    try:
        header, image = _parse_pnm_header(data, b"P5")
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    w, h, maxval = header
    if w <= 0 or h <= 0:
        raise FileFormatError(f"{path}: image dimensions must be positive, got {w}x{h}")
    if maxval != 255:
        raise FileFormatError(f"{path}: only 8-bit PGM supported, maxval={maxval}")
    if len(image) < w * h:
        raise FileFormatError(f"{path}: truncated pixel data")
    return np.frombuffer(image[: w * h], dtype=np.uint8).reshape(h, w).copy()


def _parse_pnm_header(data: bytes, magic: bytes):
    if not data.startswith(magic):
        raise ValueError(f"bad magic, expected {magic.decode()}")
    fields = []
    pos = len(magic)
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValueError("truncated header")
        fields.append(int(data[start:pos]))
    pos += 1  # single whitespace byte after the header
    return (fields[0], fields[1], fields[2]), data[pos:]


def encode_pfm(values: np.ndarray) -> bytes:
    """Grayscale little-endian PFM bytes (scale -1.0, rows bottom to top)."""
    values = np.asarray(values, dtype=np.float32)
    if values.ndim != 2:
        raise ValueError(f"PFM wants a 2-D map, got shape {values.shape}")
    h, w = values.shape
    header = f"Pf\n{w} {h}\n-1.0\n".encode("ascii")
    return header + values[::-1].astype("<f4").tobytes()


def write_pfm(path, values: np.ndarray) -> None:
    atomic_write(path, encode_pfm(values))


def read_pfm(path) -> np.ndarray:
    """Read a grayscale PFM into a float32 array of shape (H, W)."""
    data = Path(path).read_bytes()
    if not data.startswith(b"Pf"):
        raise FileFormatError(f"{path}: bad magic, expected Pf")
    parts = data.split(b"\n", 3)
    if len(parts) < 4:
        raise FileFormatError(f"{path}: truncated header")
    try:
        w, h = (int(x) for x in parts[1].split())
        scale = float(parts[2])
    except ValueError as exc:
        raise FileFormatError(f"{path}: malformed header: {exc}") from exc
    if w <= 0 or h <= 0:
        raise FileFormatError(f"{path}: map dimensions must be positive, got {w}x{h}")
    if not (np.isfinite(scale) and scale != 0):  # its sign gives the byte order
        raise FileFormatError(f"{path}: scale must be finite and non-zero, got {scale}")
    dtype = "<f4" if scale < 0 else ">f4"
    body = parts[3]
    if len(body) < w * h * 4:
        raise FileFormatError(f"{path}: truncated pixel data")
    values = np.frombuffer(body[: w * h * 4], dtype=dtype).reshape(h, w)
    return values[::-1].astype(np.float32)


def encode_cost_volume(volume) -> list:
    """SSCV1 bytes from a sweep CostVolume (its (H, W, N) mask and one cost per valid
    entry), as a list of blocks in file order: the header, then one block of H*N
    float32 costs per u, then one block of H*N u8 flags per u, each v-major.

    No allocation has the volume's dense size: the valid entries, in the costs'
    (i, v, u) order, are grouped by u with a stable sort, and each block is
    filled at its entries' slots v N + i. :func:`atomic_write` writes the list."""
    h, w, n = volume.shape
    header = SSCV_MAGIC + np.array([h, w, n], dtype="<u4").tobytes()
    # Each entry's u, in the narrowest type that holds it, so that the stable
    # sort runs as a radix sort, and its slot, one plane at a time.
    columns, slots = [np.empty(0, np.min_scalar_type(w))], [np.empty(0, int)]
    for i, mask in enumerate(np.moveaxis(volume.valid, 2, 0).reshape(n, h * w)):
        row, column = np.divmod(np.flatnonzero(mask), w)
        columns.append(column.astype(columns[0].dtype))
        slots.append(row * n + i)
    column = np.concatenate(columns)
    order = np.argsort(column, kind="stable")
    slots, costs = np.concatenate(slots)[order], volume.costs[order]
    ends = np.cumsum(np.bincount(column, minlength=w))
    cost_blocks, flag_blocks = [], []
    for start, end in zip(np.append(0, ends[:-1]), ends):
        block = np.full(h * n, SSCV_INVALID_COST, dtype="<f4")
        block[slots[start:end]] = costs[start:end]
        flags = np.zeros(h * n, dtype=np.uint8)
        flags[slots[start:end]] = 1
        cost_blocks.append(block)
        flag_blocks.append(flags)
    return [header, *cost_blocks, *flag_blocks]


def read_cost_volume(path):
    """Read an SSCV1 file; returns (costs, valid) of shape (H, W, N).

    Each block is read in one call, in the file's (W, H, N) order, and returned
    as an (H, W, N) view; any nonzero flag marks a valid entry."""
    with open(path, "rb") as handle:
        head = handle.read(len(SSCV_MAGIC) + 12)
        if not head.startswith(SSCV_MAGIC):
            raise FileFormatError(f"{path}: bad magic, expected SSCV1")
        if len(head) < len(SSCV_MAGIC) + 12:
            raise FileFormatError(f"{path}: truncated header")
        h, w, n = (int(x) for x in np.frombuffer(head, dtype="<u4", offset=len(SSCV_MAGIC)))
        count = h * w * n
        if os.fstat(handle.fileno()).st_size < len(head) + count * 5:
            raise FileFormatError(f"{path}: truncated payload for {h}x{w}x{n}")
        costs = np.fromfile(handle, "<f4", count=count).reshape(w, h, n)
        flags = np.fromfile(handle, np.uint8, count=count).reshape(w, h, n)
    np.minimum(flags, 1, out=flags)  # as a bool view, only 0 and 1 are defined
    return costs.transpose(1, 0, 2), flags.view(bool).transpose(1, 0, 2)
