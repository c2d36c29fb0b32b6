"""Compare two sets of benchmark results, metric by metric.

    python3 bench/compare.py --base old/*.json --new new/*.json

Each file is a result written under ``.bench_out/`` or the saved standard
output of a run (its last line is the JSON summary).  Give one workload per
call.  For every metric the table shows each side's median and quartile
spread and the change of the median; an end-to-end metric is marked
``worse`` when its median moved the wrong way by more than its bound in
``BENCHMARK.json``, and ``unresolved`` when the base's own spread is wider
than the bound.  Simulated counts must match exactly; any difference is
listed.  Exits 1 if any metric is worse or any count differs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import stats
from run import count_differences

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict:
    text = Path(path).read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return json.loads(text.strip().splitlines()[-1])


def summary(values: list[float]) -> tuple[float, float]:
    """Median and quartile distance as a share of the median."""
    med = stats.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    return med, stats.relative_iqr(values)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rules = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base = [load(p) for p in args.base]
    new = [load(p) for p in args.new]

    bad = False
    print(f"{'metric':34s} {'base':>12s} {'iqr':>6s} {'new':>12s} {'iqr':>6s} {'change':>8s}")
    names = [n for n in rules if any(n in r["metrics"] for r in base + new)]
    for name in names:
        old_values = [r["metrics"][name]["value"] for r in base if name in r["metrics"]]
        new_values = [r["metrics"][name]["value"] for r in new if name in r["metrics"]]
        if not old_values or not new_values:
            print(f"{name:34s} missing on one side")
            bad = True
            continue
        old_med, old_iqr = summary(old_values)
        new_med, new_iqr = summary(new_values)
        change = (new_med - old_med) / old_med if old_med else 0.0
        rule = rules[name]
        verdict = ""
        if "bound" in rule:
            worse = change if rule["better"] == "lower" else -change
            if old_iqr > rule["bound"]:
                verdict = "unresolved"
            elif worse > rule["bound"]:
                verdict = "worse"
                bad = True
        print(
            f"{name:34s} {old_med:12.6g} {old_iqr:6.1%} {new_med:12.6g} {new_iqr:6.1%} "
            f"{change:+8.1%} {verdict}"
        )

    counts = [r["counts"] for r in base + new if r.get("counts")]
    for other in counts[1:]:
        for diff in count_differences(counts[0], other):
            print(f"count differs: {diff}")
            bad = True
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
