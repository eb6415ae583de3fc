#!/usr/bin/env python3
"""Record the golden outputs of every workload's pool, once, from trusted code.

Usage, from the root of a source checkout:

    python3 perfbench/make_golden.py [--force]

A change that claims a speed-up must not regenerate these files: its outputs
are checked against the goldens recorded before it. Only a change that
redefines the benchmark (its inputs or workloads) may record them again.
"""

import argparse
import sys

from run import GOLDEN_DIR, WORK_DIR, _import_program


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--force", action="store_true", help="overwrite existing goldens")
    args = parser.parse_args()
    _import_program()

    import shutil

    import numpy as np

    import golden
    import workloads

    existing = [GOLDEN_DIR / f"{name}.npz" for name in workloads.WORKLOADS
                if (GOLDEN_DIR / f"{name}.npz").exists()]
    if existing and not args.force:
        print(f"goldens exist ({', '.join(map(str, existing))}); pass --force to overwrite",
              file=sys.stderr)
        return 1
    inputs = workloads.make_inputs()
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in workloads.WORKLOADS:
        path = GOLDEN_DIR / f"{name}.npz"
        work = WORK_DIR / f"golden-{name}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            workload = workloads.WORKLOADS[name](inputs, work)
            records = []
            for k in range(workloads.POOL_SIZE):
                outputs, accuracy = workload.outputs(workload.op(k))
                records.append({key: value.astype(np.float32) if value.dtype.kind == "f" else value
                                for key, value in outputs.items()})
                print(f"{name} frame {k}: abs_rel {accuracy[0]:.5f} a1 {accuracy[1]:.5f}")
        finally:
            shutil.rmtree(work, ignore_errors=True)
        golden.save(path, records)
        print(f"wrote {path} ({path.stat().st_size} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
