#!/usr/bin/env python3
"""Mutation checks: every proof in the code has a test that kills its mutant.

Each row of MUTANTS names a file under src/oasweep, a snippet of it, the
snippet's replacement and the pytest selection that must catch the change.
The script copies src/, tests/ and pyproject.toml to a temporary directory
and runs the union of the selections there first, unmutated: it must pass.
Then, for each row, it mutates a fresh copy and runs the row's selection
with PYTHONPATH pointing at that copy: the tests must fail (pytest exit code
1; an import or collection error does not count as a kill). A snippet must
occur exactly once in its file, so a refactor that moves the code fails this
script loudly and updates the table.

    python3 scripts/mutants.py

Hypothesis runs with a fixed seed, so every run draws the same examples.
Exits 0 when the unmutated selection passes and every mutant is killed.
A change that adds a margin or a skip rule adds its row here.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GEOMETRY, SWEEP, FORMATS = "geometry.py", "sweep.py", "formats.py"
WARP_GRID = "tests/test_geometry.py::TestWarpGrid::"
PIPELINE = "tests/test_sweep.py::TestRunPipeline::"
SPARSE_SONAR = "tests/test_sweep.py::TestBuildCostVolume::test_sparse_sonar_matches_dense_oracle"
PYTEST = ["-q", "-x", "-p", "no:cacheprovider", "--hypothesis-seed=0"]
TIMEOUT_S = 300

# (name, file, snippet, replacement, pytest selection)
MUTANTS = [
    ("wedge margin 0", GEOMETRY,
     "WEDGE_MARGIN = 1e-6", "WEDGE_MARGIN = 0.0",
     [WARP_GRID + "test_matches_dense_oracle_at_the_wedge_edge"]),
    ("range widening 0", GEOMETRY,
     "low = (np.sqrt(np.maximum(least, 0.0)) - widen) * scale\n"
     "        high = (np.sqrt(most) + widen) * scale",
     "low = np.sqrt(np.maximum(least, 0.0)) * scale\n"
     "        high = np.sqrt(most) * scale",
     [WARP_GRID + "test_matches_dense_oracle_at_an_echo_edge"]),
    ("west bearing margin 0", GEOMETRY,
     "west = turns.min(axis=0) - widen / nearest", "west = turns.min(axis=0)",
     [WARP_GRID + "test_matches_dense_oracle_at_a_bearing_edge"]),
    ("east bearing margin 0", GEOMETRY,
     "east = turns.max(axis=0) + widen / nearest", "east = turns.max(axis=0)",
     [WARP_GRID + "test_matches_dense_oracle_at_a_bearing_edge"]),
    ("forward > 0 guard dropped", GEOMETRY,
     "facing = ahead & (nearest > widen)", "facing = ahead",
     [WARP_GRID + "test_row_across_the_sonar_axis_kept_like_oracle"]),
    ("summed-area box without its last row", GEOMETRY,
     "box = (held[bottom + 1, right + 1] - held[top, right + 1] - held[bottom + 1, left]",
     "box = (held[bottom, right + 1] - held[top, right + 1] - held[bottom, left]",
     [WARP_GRID + "test_matches_dense_oracle_with_echo_cells_on_full_frame_random_rigs"]),
    ("summed-area box without its last column", GEOMETRY,
     "box = (held[bottom + 1, right + 1] - held[top, right + 1] - held[bottom + 1, left]\n"
     "               + held[top, left])",
     "box = (held[bottom + 1, right] - held[top, right] - held[bottom + 1, left]\n"
     "               + held[top, left])",
     [WARP_GRID + "test_matches_dense_oracle_with_echo_cells_on_full_frame_random_rigs"]),
    ("live-cell dilation without its (r+1, c+1) corner", SWEEP,
     "held[:-1, :-1] | held[1:, :-1] | held[:-1, 1:] | held[1:, 1:]",
     "held[:-1, :-1] | held[1:, :-1] | held[:-1, 1:]",
     [SPARSE_SONAR]),
    ("round for floor in the live-cell lookup", SWEEP,
     "hit = live[rb.astype(int), bb.astype(int)]",
     "hit = live[np.rint(rb).astype(int), np.rint(bb).astype(int)]",
     [SPARSE_SONAR]),
    ("coordinate check without its lower bound", SWEEP,
     "if not all(0 <= coords.min(initial=0) and coords.max(initial=0) <= size - 1",
     "if not all(coords.max(initial=0) <= size - 1",
     ["tests/test_sweep.py::TestWarpSonarFeatures::"
      "test_lookups_off_the_map_rejected_before_sampling"]),
    ("regularizer divides before it scales by the area", SWEEP,
     "sums * area / np.maximum(cnts, 1.0)", "sums / np.maximum(cnts, 1.0) * area",
     ["tests/test_sweep.py::TestRegularizeCostVolume::test_crops_match_dense_oracle"]),
    ("soft-argmin peak from the last plane only", SWEEP,
     "peak[px] = np.maximum(peak[px], own)", "peak[px] = own",
     ["tests/test_sweep.py::TestSoftArgminMatchesFlatOracle"]),
    ("SSCV1 slot with u and v swapped", FORMATS,
     "(column * h + row)", "(row * w + column)",
     ["tests/test_formats.py::TestExactRoundTrips::test_cost_volume"]),
    ("sonar-frame check removed", SWEEP,
     "if sonar_image.spec != spec:",
     "if False:",
     [PIPELINE + "test_sonar_frame_must_match_the_rig",
      PIPELINE + "test_frame_of_another_sonar_refused"]),
    ("zncc row skip keeps only rows with a positive value", SWEEP,
     "held = np.pad(np.any(image != 0, axis=1), r)",
     "held = np.pad(np.any(image > 0, axis=1), r)",
     ["tests/test_sweep.py::TestExtractFeatures::test_zncc_matches_whole_image_oracle"]),
]


def copy_tree(dest: Path) -> Path:
    """The files a selection reads, copied under ``dest``; returns the copy's src/."""
    shutil.copytree(ROOT / "src", dest / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copytree(ROOT / "tests", dest / "tests", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "pyproject.toml", dest)
    return dest / "src"


def pytest(tree: Path, selection) -> subprocess.CompletedProcess:
    """The selection run in ``tree`` (so hypothesis's example database stays
    there) against the oasweep package in ``tree``/src."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "pytest", *PYTEST, *selection], cwd=tree,
                          env=env, capture_output=True, text=True, timeout=TIMEOUT_S)


def mutated(file: str, snippet: str, replacement: str) -> str:
    """The text of src/oasweep/``file`` with its one ``snippet`` replaced."""
    text = (ROOT / "src" / "oasweep" / file).read_text()
    count = text.count(snippet)
    if count != 1:
        raise SystemExit(f"{file}: the snippet occurs {count} times, want 1:\n{snippet}")
    return text.replace(snippet, replacement)


def main() -> int:
    started = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="oasweep-mutants-") as scratch:
        scratch = Path(scratch)
        texts = [mutated(file, snippet, replacement)  # first: a moved snippet fails at once
                 for _, file, snippet, replacement, _ in MUTANTS]
        base = scratch / "base"
        copy_tree(base)
        env = dict(os.environ, PYTHONPATH=str(base / "src"))
        where = subprocess.run([sys.executable, "-c", "import oasweep; print(oasweep.__file__)"],
                               cwd=base, env=env, capture_output=True, text=True, check=True)
        if not Path(where.stdout.strip()).is_relative_to(base):
            raise SystemExit(f"oasweep imports from {where.stdout.strip()}, not the copy")
        union = list(dict.fromkeys(node for *_, selection in MUTANTS for node in selection))
        run = pytest(base, union)
        if run.returncode != 0:
            print(run.stdout[-4000:], run.stderr[-2000:], sep="\n")
            print(f"FAIL: the unmutated selection exits {run.returncode}")
            return 1
        print(f"unmutated selection passes ({len(union)} node ids)", flush=True)
        survivors = []
        for k, ((name, file, _, _, selection), text) in enumerate(zip(MUTANTS, texts)):
            tree = scratch / f"mutant-{k}"
            (copy_tree(tree) / "oasweep" / file).write_text(text)
            begin = time.monotonic()
            run = pytest(tree, selection)
            killed = run.returncode == 1
            print(f"{'killed' if killed else 'SURVIVED'}  {name} ({file}, pytest exit "
                  f"{run.returncode}, {time.monotonic() - begin:.1f} s)", flush=True)
            if not killed:
                print(run.stdout[-2000:], run.stderr[-2000:], sep="\n")
                survivors.append(name)
            shutil.rmtree(tree)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed in "
          f"{time.monotonic() - started:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
