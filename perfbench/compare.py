"""Compare two sets of benchmark records, one workload row at a time.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds records appended by ``run.py --out``.  The i-th parent
run of a workload is paired with the i-th change run of that workload, so
record them alternately (parent, change, parent, ...) with the same
--seconds.  For every end-to-end metric of every workload the verdict is:

  improved    the change wins at least 9 of every 10 pairs (ties count for
              neither side), its median is better than the parent's by
              more than the parent's interquartile range, at least ten
              pairs were run, and the share of failed operations is no
              higher than at the parent;
  unresolved  the relative interquartile range of either side exceeds the
              metric's bound, unless every change run beats every parent
              run;
  regressed   the change's median is worse than the parent's by more than
              the bound fixed in BENCHMARK.json;
  within bound  otherwise.

Metrics are never combined into one score.  Traced records are listed as
per-layer medians without a verdict; counters compare as counts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path) -> dict:
    """{(workload, trace): [record, ...]} in file order."""
    groups = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                groups.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return groups


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, better, bound, more_failures) -> dict:
    sign = 1.0 if better == "higher" else -1.0
    n = min(len(parent), len(change))
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    mp, mc = statistics.median(parent), statistics.median(change)
    (p1, p3), (c1, c3) = quartiles(parent), quartiles(change)
    spread = max((p3 - p1) / abs(mp) if mp else 0.0, (c3 - c1) / abs(mc) if mc else 0.0)
    worse_by = -sign * (mc - mp) / abs(mp) if mp else 0.0
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if (n >= MIN_PAIRS and wins >= WIN_SHARE * n and sign * (mc - mp) > p3 - p1
            and not more_failures):
        label = "improved"
    elif spread > bound and not all_better:
        label = "unresolved"
    elif worse_by > bound:
        label = "regressed"
    else:
        label = "within bound"
    return {"parent": (mp, p1, p3), "change": (mc, c1, c3), "wins": wins,
            "losses": losses, "pairs": n, "spread": spread, "worse_by": worse_by,
            "verdict": label}


def compare(parent_groups, change_groups, spec) -> list:
    rows = []
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    for (workload, trace), parents in sorted(parent_groups.items()):
        changes = change_groups.get((workload, trace), [])
        if not changes:
            continue
        n = min(len(parents), len(changes))
        parents, changes = parents[:n], changes[:n]
        failed_p = sum(r["failed"] for r in parents)
        failed_c = sum(r["failed"] for r in changes)
        more_failures = (failed_c / sum(r["attempted"] for r in changes)
                         > failed_p / sum(r["attempted"] for r in parents))
        for name in parents[0]["metrics"]:
            pv = [r["metrics"][name]["value"] for r in parents]
            cv = [r["metrics"][name]["value"] for r in changes]
            row = {"workload": workload, "trace": trace, "metric": name,
                   "unit": parents[0]["metrics"][name]["unit"]}
            if trace == 0 and name in metrics:
                m = metrics[name]
                row.update(verdict(pv, cv, m["better"], m["bound"], more_failures))
            else:
                row.update(parent=(statistics.median(pv),) + quartiles(pv),
                           change=(statistics.median(cv),) + quartiles(cv),
                           pairs=n, verdict="count" if row["unit"] == "count" else "-")
            row["failed"] = (failed_p, failed_c)
            row["correct"] = all(r["correct"] for r in changes)
            rows.append(row)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare benchmark record sets.")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    rows = compare(load(args.parent), load(args.change), spec)
    last = None
    for r in rows:
        if (r["workload"], r["trace"]) != last:
            last = (r["workload"], r["trace"])
            print(f"\n== {r['workload']} ({'traced' if r['trace'] else 'end to end'}), "
                  f"{r['pairs']} pairs, failed ops parent {r['failed'][0]} "
                  f"change {r['failed'][1]}, change correct: {r['correct']}")
        (mp, p1, p3), (mc, c1, c3) = r["parent"], r["change"]
        extra = (f"  wins {r['wins']}/{r['pairs']}  spread {r['spread']:.3f}"
                 if "wins" in r else "")
        print(f"{r['metric']:32s} {mp:12.6g} [{p1:.6g}, {p3:.6g}] -> "
              f"{mc:12.6g} [{c1:.6g}, {c3:.6g}] {r['unit']:6s} {r['verdict']}{extra}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
