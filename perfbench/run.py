#!/usr/bin/env python3
"""oasweep benchmark: one workload, one closed-loop client, one fresh process.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload stock --seed 1 --seconds 24 --trace 0

The run renders its inputs with the simulator, loads the golden outputs and
runs one warm-up op; all of that is set-up. It then runs ops back to back
(the next op starts when the previous one returns) while the next op, at the
median duration so far, would end within ``--seconds``, and at least MIN_OPS
ops. Every op's output is checked against the golden record of its pool
frame; an op that raises, exits non-zero or leaves the tolerance counts as
failed.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates traced
and untraced ops and reports the per-layer metrics (medians over the traced
ops) plus the tracing overhead; it also writes the spans to a trace file.
The last line of stdout is one JSON object; the lines above it are for
people. A copy of the result, with the environment record, goes to
``--results-dir`` for ``perfbench/compare.py``.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here, before numpy is imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN_DIR = HERE / "golden"
WORK_DIR = ROOT / ".bench_work"
# Untraced runs need one timed op; traced runs alternate traced and untraced
# ops and need one of each for the overhead ratio.
MIN_OPS = {0: 1, 1: 2}


def _import_program():
    """Import oasweep from this checkout's src/, never from anywhere else."""
    if not (SRC / "oasweep" / "__init__.py").is_file():
        raise SystemExit(f"error: no oasweep sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import oasweep
    if Path(oasweep.__file__).resolve().parent != (SRC / "oasweep").resolve():
        raise SystemExit(f"error: imported oasweep from {oasweep.__file__}, not {SRC}")


def _blas_threads():
    import ctypes
    import glob

    import numpy as np
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_digest() -> str:
    """sha256 over src/ so a run names the code it measured even outside git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "machine": platform.machine(),
    }


def _median(values):
    return statistics.median(values) if values else float("nan")


def _mean(values):
    return sum(values) / len(values) if values else float("nan")


def _run_op(workload, k: int, golden_record: dict, tracer=None, index=None):
    """Run one op on pool frame k, time it, then check it; returns (record, outputs)."""
    import golden

    failure, outputs, accuracy, problems = None, None, None, []
    t0, c0 = time.perf_counter(), time.process_time()
    faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    try:
        with tracer.record(index) if tracer else contextlib.nullcontext():
            result = workload.op(k)
    except Exception as exc:  # a failed op is counted, not fatal
        failure = exc
    seconds = time.perf_counter() - t0
    cpu_s = time.process_time() - c0
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults0
    if failure is None:
        try:
            outputs, accuracy = workload.outputs(result)
            problems = golden.compare(outputs, golden_record)
        except Exception as exc:
            failure = exc
    if failure is not None:
        traceback.print_exception(failure, file=sys.stderr)
        problems = [f"{type(failure).__name__}: {failure}"]
    record = {"index": index, "frame": k, "traced": tracer is not None,
              "seconds": seconds, "cpu_s": cpu_s, "minor_faults": faults,
              "ok": not problems, "problems": problems,
              "abs_rel": accuracy[0] if accuracy else None,
              "a1": accuracy[1] if accuracy else None}
    return record, outputs


def run(args) -> dict:
    import numpy as np

    import golden
    import tracing
    import workloads

    loadavg_before = os.getloadavg()
    tracer = tracing.Tracer() if args.trace else None
    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        with tracer.record(tracing.SETUP) if tracer else contextlib.nullcontext():
            inputs = workloads.make_inputs()
            workload = workloads.WORKLOADS[args.workload](inputs, work)
        goldens = golden.load(GOLDEN_DIR / f"{args.workload}.npz")
        if len(goldens) != workloads.POOL_SIZE:
            raise SystemExit(f"error: golden pool holds {len(goldens)} records, "
                             f"want {workloads.POOL_SIZE}")
        order = [int(k) for k in np.random.default_rng(args.seed).permutation(len(goldens))]

        warm, warm_outputs = _run_op(workload, order[0], goldens[order[0]])
        self_check = (golden.self_check(warm_outputs, goldens[order[0]])
                      if warm_outputs is not None else {"warm-up ran": False})
        setup_s = time.perf_counter() - _T0

        ops = []
        start = time.perf_counter()
        # Closed loop: start another op while one of median length still fits.
        while len(ops) < MIN_OPS[args.trace] or (
                time.perf_counter() - start + _median([op["seconds"] for op in ops])
                <= args.seconds):
            index = len(ops)
            k = order[(index + 1) % len(order)]
            traced = tracer is not None and index % 2 == 0
            ops.append(_run_op(workload, k, goldens[k], tracer if traced else None, index)[0])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env = dict(environment(), loadavg_before=loadavg_before, loadavg_after=os.getloadavg())

    timed = [op for op in ops if not op["traced"]]
    failed = sum(not op["ok"] for op in ops)
    good = [op for op in timed if op["ok"]]
    summary = {
        "timed_ops": len(timed),
        "error_rate": failed / len(ops),
        "warmup_problems": warm["problems"],
        "perturbed_golden_rejected": self_check,
    }
    if args.trace:
        traced_ops = [op["index"] for op in ops if op["traced"]]
        metrics = tracing.layer_metrics(tracer, traced_ops)
        metrics["trace.overhead_ratio"] = (
            _median([op["seconds"] for op in ops if op["traced"]])
            / _median([op["seconds"] for op in timed]) - 1.0)
    else:
        metrics = {
            "op_s_p50": _median([op["seconds"] for op in timed]),
            "ops_per_min": 60.0 * len(good) / sum(op["seconds"] for op in timed),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "abs_rel": _mean([op["abs_rel"] for op in good]),
            "a1": _mean([op["a1"] for op in good]),
        }
    correct = failed == 0 and warm["ok"] and all(self_check.values())
    return {"correct": correct, "attempted": len(ops), "failed": failed, "metrics": metrics,
            "summary": summary, "ops": ops, "env": env, "tracer": tracer}


def _number(value):
    return value if value == value and abs(value) != float("inf") else None


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="oasweep benchmark")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results-dir", type=Path, default=WORK_DIR / "results",
                        help="where the full result record (and trace file) go")
    args = parser.parse_args(argv)
    # The metrics this mode must print, with their units, as BENCHMARK.json declares them.
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    _import_program()
    sys.path.insert(0, str(HERE))

    outcome = run(args)
    summary, metrics = outcome["summary"], outcome["metrics"]
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise SystemExit(f"error: metrics declared in BENCHMARK.json were not measured: {missing}")
    metrics = {name: metrics[name] for name in units}
    outcome["metrics"] = metrics
    stamp = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
             f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    args.results_dir.mkdir(parents=True, exist_ok=True)
    record = {key: outcome[key] for key in ("correct", "attempted", "failed", "metrics",
                                            "summary", "ops", "env")}
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    (args.results_dir / f"{stamp}.json").write_text(json.dumps(record, indent=1) + "\n")
    if outcome["tracer"] is not None:
        (args.results_dir / f"{stamp}.trace.json").write_text(
            json.dumps(outcome["tracer"].dump()) + "\n")

    print(f"# env {json.dumps(outcome['env'])}")
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{outcome['attempted']} ops attempted, {outcome['failed']} failed, "
          f"error_rate {summary['error_rate']:.4g} ratio")
    print(f"# perturbed golden rejected: {summary['perturbed_golden_rejected']}")
    for problem in summary["warmup_problems"]:
        print(f"# warm-up op: {problem}")
    for op in outcome["ops"]:
        for problem in op["problems"]:
            print(f"# op {op['index']} (frame {op['frame']}): {problem}")
    print(f"{'error_rate':34s} {summary['error_rate']:14.6g} ratio")
    for name, value in metrics.items():
        extra = f"  (ops = {summary['timed_ops']})" if name == "op_s_p50" else ""
        print(f"{name:34s} {value:14.6g} {units[name]}{extra}")
    print(json.dumps({
        "correct": outcome["correct"], "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": _number(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
