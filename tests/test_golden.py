"""The benchmark's stock op, checked in the suite against its recorded golden output.

Runs the ``stock`` workload (preprocess, sweep with cost-volume export, eval,
all through the CLI) on pool frame 0 and compares the result with
``perfbench/golden/stock.npz`` at the benchmark's own tolerances, so a
refactor proves equivalence without a benchmark run. Only reads ``perfbench/``.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import golden  # noqa: E402
import workloads  # noqa: E402


def test_stock_op_matches_golden(tmp_path):
    stock = workloads.Stock(workloads.make_inputs(), tmp_path)
    stock.op(0)
    outputs, _ = stock.outputs(None)
    record = golden.load(PERFBENCH / "golden" / "stock.npz")[0]
    assert golden.compare(outputs, record) == []
    # The tolerances are tight enough to reject a golden nudged past each of them.
    assert all(golden.self_check(outputs, record).values())
