"""Golden outputs: storage, the tolerance check, and its self-test.

A golden record holds, per pool input, the arrays an op must reproduce:
``depth``/``valid`` (the full-frame depth map and its mask), optionally
``ablation_depth``/``ablation_valid`` (the camera-only pass of turbid-pair)
and ``sscv_valid`` (the validity flags of the exported SSCV1 cost volume).

Tolerances. The accuracy bounds of AC-5 sit at the 1e-3 level of Abs Rel, so
a depth change of 0.1 mm is invisible to them but far above the float32
round-off a faster implementation may introduce (about 1e-5 m at 5 m).
Masks may differ only on a handful of boundary entries.
"""

import numpy as np

DEPTH_ATOL_M = 1e-4
PIXEL_MASK_TOL = 1e-4  # share of pixels whose validity may differ
ENTRY_MASK_TOL = 1e-5  # share of cost-volume entries whose validity may differ

_DEPTH_PREFIXES = ("", "ablation_")


def save(path, records) -> None:
    """Write one dict of arrays per pool index into a compressed .npz."""
    flat = {f"{key}.{k}": np.asarray(value) for k, record in enumerate(records)
            for key, value in record.items()}
    np.savez_compressed(path, pool_size=len(records), **flat)


def load(path) -> list:
    with np.load(path) as data:
        records = [{} for _ in range(int(data["pool_size"]))]
        for name in data.files:
            if name != "pool_size":
                key, k = name.rsplit(".", 1)
                records[int(k)][key] = data[name]
    return records


def _mask_problems(name, got, want, tolerance) -> list:
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != golden {want.shape}"]
    differ = int(np.count_nonzero(got != want))
    allowed = int(tolerance * want.size)
    if differ > allowed:
        return [f"{name}: {differ} entries differ from golden (allowed {allowed})"]
    return []


def compare(outputs: dict, golden: dict) -> list:
    """Problems found comparing op outputs with a golden record; empty when within tolerance."""
    problems = []
    for prefix in _DEPTH_PREFIXES:
        if prefix + "depth" not in golden:
            continue
        depth = np.asarray(outputs[prefix + "depth"], dtype=np.float64)
        valid = np.asarray(outputs[prefix + "valid"], dtype=bool)
        want_depth = golden[prefix + "depth"].astype(np.float64)
        want_valid = golden[prefix + "valid"]
        mask_problems = _mask_problems(prefix + "valid", valid, want_valid, PIXEL_MASK_TOL)
        problems += mask_problems
        if mask_problems:
            continue
        both = valid & want_valid
        err = float(np.max(np.abs(depth[both] - want_depth[both]), initial=0.0))
        if not err <= DEPTH_ATOL_M:
            problems.append(f"{prefix}depth: max |error| {err:.3g} m > {DEPTH_ATOL_M} m")
    if "sscv_valid" in golden:
        problems += _mask_problems("sscv_valid", np.asarray(outputs["sscv_valid"], dtype=bool),
                                   golden["sscv_valid"], ENTRY_MASK_TOL)
    return problems


def perturbations(golden: dict) -> dict:
    """Copies of a golden record, each nudged just past one tolerance."""
    out = {}
    valid = golden["valid"]
    pixel = np.flatnonzero(valid)[valid.sum() // 2]
    depth = golden["depth"].copy()
    depth.flat[pixel] += 2 * DEPTH_ATOL_M
    out["depth+2atol"] = dict(golden, depth=depth)
    flipped = valid.copy()
    flipped.flat[: int(PIXEL_MASK_TOL * valid.size) + 1] ^= True
    out["valid-flips"] = dict(golden, valid=flipped)
    if "sscv_valid" in golden:
        entries = golden["sscv_valid"].copy()
        entries.flat[: int(ENTRY_MASK_TOL * entries.size) + 1] ^= True
        out["sscv-flips"] = dict(golden, sscv_valid=entries)
    return out


def self_check(outputs: dict, golden: dict) -> dict:
    """Each perturbed golden must be rejected against outputs that match the real one."""
    return {name: bool(compare(outputs, record)) for name, record in perturbations(golden).items()}
