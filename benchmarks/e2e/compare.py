"""Compare two sets of benchmark results: a parent commit and a change.

Usage::

    python3 benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the result files that ``run.py --out DIR`` writes,
one per run; run both sides with the same ``--seconds`` and the same
seeds, alternating which side runs first.  For every (workload,
end-to-end metric) the report gives each side's median and quartiles
and a verdict:

* ``REGRESSION`` -- the change's median is worse than the parent's by
  more than the metric's bound in ``BENCHMARK.json``;
* ``unresolved`` -- the parent's own quartile spread is wider than the
  bound, so "no regression" cannot be told from noise, unless every
  change run reads better than every parent run;
* ``gain`` -- better, and the change wins at least nine tenths of the
  runs paired by seed, and the medians differ by more than the
  parent's quartile spread;
* ``ok`` -- none of these.

The exit code is 1 when any metric regressed.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parents[2]


def load(directory: Path) -> dict[tuple[str, str], dict[int, list[float]]]:
    """(workload, metric) -> seed -> values, from untraced result files."""
    runs: dict[tuple[str, str], dict[int, list[float]]] = defaultdict(
        lambda: defaultdict(list)
    )
    for path in sorted(directory.glob("*.json")):
        report = json.loads(path.read_text())
        if report.get("trace") is not False or "metrics" not in report:
            continue
        for name, metric in report["metrics"].items():
            runs[report["workload"], name][report["seed"]].append(metric["value"])
    return runs


def verdict(parent: dict[int, list[float]], change: dict[int, list[float]],
            bound: float, lower_is_better: bool) -> tuple[str, float]:
    """The verdict and the change's relative move (positive = worse)."""
    before = [v for values in parent.values() for v in values]
    after = [v for values in change.values() for v in values]
    sign = 1.0 if lower_is_better else -1.0
    _, parent_median, _ = stats.quartiles(before)
    _, change_median, _ = stats.quartiles(after)
    worse = sign * (change_median - parent_median) / parent_median

    def better(a: float, b: float) -> bool:
        return sign * (a - b) < 0

    all_better = all(better(a, b) for a in after for b in before)
    if worse > bound:
        return "REGRESSION", worse
    if stats.spread(before) > bound and not all_better:
        return "unresolved", worse
    pairs = [
        (a, b)
        for seed in parent.keys() & change.keys()
        for a, b in zip(change[seed], parent[seed])
    ]
    wins = sum(better(a, b) for a, b in pairs)
    parent_q1, _, parent_q3 = stats.quartiles(before)
    if (
        pairs
        and wins >= 0.9 * len(pairs)
        and abs(change_median - parent_median) > parent_q3 - parent_q1
    ):
        return "gain", worse
    return "ok", worse


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = (load(Path(arg)) for arg in args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    print(f"{'workload':<14} {'metric':<14} {'parent q1/med/q3':>30} "
          f"{'change q1/med/q3':>30} {'worse':>8}  verdict")
    regressed = False
    for key in sorted(parent.keys() & change.keys()):
        workload, name = key
        if name not in metrics:
            continue
        metric = metrics[name]
        result, worse = verdict(
            parent[key], change[key], metric["bound"], metric["better"] == "lower"
        )
        regressed |= result == "REGRESSION"
        sides = []
        for side in (parent[key], change[key]):
            values = [v for vs in side.values() for v in vs]
            q1, median, q3 = stats.quartiles(values)
            sides.append(f"{q1:.4g}/{median:.4g}/{q3:.4g} (n={len(values)})")
        print(f"{workload:<14} {name:<14} {sides[0]:>30} {sides[1]:>30} "
              f"{worse:>+8.1%}  {result}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
