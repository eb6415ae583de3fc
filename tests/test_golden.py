"""The benchmark's ops, checked in the suite against their recorded golden outputs.

Runs each workload of ``perfbench/workloads.py`` (stock: preprocess, sweep with
cost-volume export and eval through the CLI; turbid-pair: the fused sweep and
the camera-only neg-dot ablation through the library; fine-planes: a 95-plane
CLI sweep) on pool frame 0 and compares the result with
``perfbench/golden/<workload>.npz`` at the benchmark's own tolerances, so a
refactor proves equivalence without a benchmark run. Only reads ``perfbench/``.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import golden  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def inputs():
    return workloads.make_inputs()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_op_matches_golden(name, inputs, tmp_path):
    workload = workloads.WORKLOADS[name](inputs, tmp_path)
    outputs, _ = workload.outputs(workload.op(0))
    record = golden.load(PERFBENCH / "golden" / f"{name}.npz")[0]
    assert golden.compare(outputs, record) == []
    # The tolerances are tight enough to reject a golden nudged past each of them.
    assert all(golden.self_check(outputs, record).values())
