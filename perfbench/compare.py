#!/usr/bin/env python3
"""Compare a parent commit's benchmark runs with a change's, metric by metric.

Usage:

    python3 perfbench/compare.py PARENT_RESULTS_DIR CHANGE_RESULTS_DIR
    python3 perfbench/compare.py RESULTS_DIR          # spread of one set only

Each directory holds the result records ``run.py --results-dir DIR`` writes.
To make a pair of sets, run the same seeds on both checkouts with the
``run_seconds`` of BENCHMARK.json, alternating which side goes first, for
example:

    for seed in $(seq 1 10); do
      (cd parent && python3 perfbench/run.py --workload stock --seed $seed \\
          --seconds 24 --results-dir /tmp/parent)
      (cd change && python3 perfbench/run.py --workload stock --seed $seed \\
          --seconds 24 --results-dir /tmp/change)
    done   # and swap the order of the two lines on every other seed

Interleave the sides like this. Machine speed on a shared host drifts for
minutes at a time, so two sets run one after the other can differ with
identical code.

For every workload and end-to-end metric of BENCHMARK.json it prints each
side's median and quartiles, the share of pairs the change wins (ties count
for neither) and a verdict:

- worse: the change's median is worse than the parent's by more than the
  metric's bound, or the change's outputs are worse: it has more failed ops
  than the parent, or a run that reports ``"correct": false`` (a failed
  warm-up op or a perturbed golden that was not caught);
- improved: at least 10 pairs, the change wins at least 9 in 10 of them, and
  the medians differ by more than the parent's interquartile distance;
- unresolved: a gain shown on fewer than 10 pairs, or the parent's own
  spread (interquartile distance over median) is wider than the bound and
  not every change run beats every parent run;
- unchanged: none of the above.

Runs pair by seed when both sides ran the same seeds, else in file order.
The exit code is 1 when any verdict is "worse".
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(directory: Path) -> dict:
    """Untraced result records by workload, in file-name (time) order."""
    runs = {}
    for path in sorted(directory.glob("*.json")):
        if path.name.endswith(".trace.json"):
            continue
        record = json.loads(path.read_text())
        if record.get("trace") == 0:
            runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs_of(parent, change):
    by_seed_p = {r["seed"]: r for r in parent}
    by_seed_c = {r["seed"]: r for r in change}
    common = sorted(set(by_seed_p) & set(by_seed_c))
    if len(common) == min(len(parent), len(change)):
        return [(by_seed_p[s], by_seed_c[s]) for s in common]
    return list(zip(parent, change))


def verdict(metric, parent, change, pairs, broken) -> tuple:
    lower = metric["better"] == "lower"
    bound = metric["bound"]

    def better(a, b):
        return a < b if lower else a > b

    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    wins = sum(better(c, p) for p, c in pairs)
    share = wins / len(pairs) if pairs else 0.0
    worse_by = ((c_med - p_med) if lower else (p_med - c_med)) / abs(p_med)
    spread = (p_q3 - p_q1) / abs(p_med)
    all_better = all(better(c, p) for c in change for p in parent)
    gain = share >= WIN_SHARE and abs(c_med - p_med) > (p_q3 - p_q1) and worse_by < 0
    if broken or worse_by > bound:
        return "worse", wins
    if gain and len(pairs) >= MIN_PAIRS:
        return "improved", wins
    if gain or (spread > bound and not all_better):
        return "unresolved", wins
    return "unchanged", wins


def spread_report(spec, runs) -> int:
    print(f"{'workload':12s} {'metric':12s} {'n':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>7s} {'bound':>6s}  status")
    for workload, records in sorted(runs.items()):
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]] for r in records]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / abs(med)
            bound = metric["bound"]
            status = ("steady" if spread < bound / 3 else "within bound" if spread <= bound
                      else "TOO WIDE")
            print(f"{workload:12s} {metric['name']:12s} {len(values):3d} {med:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {spread:7.4f} {bound:6.3f}  {status}")
        failed = sum(r["failed"] for r in records)
        print(f"{workload:12s} failed ops {failed} of {sum(r['attempted'] for r in records)}; "
              f"incorrect runs {sum(not r['correct'] for r in records)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path,
                        help="results directory of the parent (or the only set)")
    parser.add_argument("change", type=Path, nargs="?", help="results directory of the change")
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    parent = load_runs(args.parent)
    if args.change is None:
        return spread_report(spec, parent)
    change = load_runs(args.change)

    any_worse = False
    print(f"{'workload':12s} {'metric':12s} {'parent median [q1, q3]':>36s} "
          f"{'change median [q1, q3]':>36s} {'delta':>8s} {'wins':>9s}  verdict")
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        p_failed = sum(r["failed"] for r in p_runs)
        c_failed = sum(r["failed"] for r in c_runs)
        c_incorrect = sum(not r["correct"] for r in c_runs)
        broken = c_failed > p_failed or c_incorrect > 0
        run_pairs = pairs_of(p_runs, c_runs)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p_values = [r["metrics"][name] for r in p_runs]
            c_values = [r["metrics"][name] for r in c_runs]
            value_pairs = [(p["metrics"][name], c["metrics"][name]) for p, c in run_pairs]
            result, wins = verdict(metric, p_values, c_values, value_pairs, broken)
            any_worse |= result == "worse"
            p_q1, p_med, p_q3 = quartiles(p_values)
            c_q1, c_med, c_q3 = quartiles(c_values)
            print(f"{workload:12s} {name:12s} "
                  f"{p_med:12.6g} [{p_q1:9.4g}, {p_q3:9.4g}] "
                  f"{c_med:12.6g} [{c_q1:9.4g}, {c_q3:9.4g}] "
                  f"{(c_med - p_med) / abs(p_med):+8.2%} "
                  f"{wins:>3d}/{len(value_pairs):<3d}  {result}")
        print(f"{workload:12s} failed ops: parent {p_failed}, change {c_failed}; "
              f"incorrect change runs: {c_incorrect}")
    for workload in sorted(set(parent) ^ set(change)):
        print(f"{workload:12s} runs on one side only; not compared")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
