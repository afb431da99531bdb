"""Self-test of the benchmark; run from the checkout root:

    python3 perfbench/selftest.py

Checks that the same seed gives the same inputs and a different seed
different ones, and that two traced passes over the first block of every
workload, with the same seed, give identical machine-independent counters.
Each counter it checks must also be non-zero on the workload that
exercises it, so a hook that silently stopped counting fails the test.
Takes about a minute.
"""

from __future__ import annotations

import sys
import run
import workloads

sys.path.insert(0, str(run.SRC))

COUNTERS = ("quadrature.evals", "quadrature.panel_evals", "extrapolation.samples",
            "series.orders_built", "sums.bernoulli_steps", "distributions.comb_terms")
EXERCISED = {
    "cli-exact": ("series.orders_built", "sums.bernoulli_steps"),
    "lib-pairings": ("quadrature.evals", "quadrature.panel_evals",
                     "extrapolation.samples"),
    "cli-ladders": ("distributions.comb_terms", "quadrature.evals",
                    "extrapolation.samples"),
}


def traced_counts(workload: str, seed: int) -> dict:
    import libops

    in_process = workload == "lib-pairings"
    if in_process:
        libops.warm_up(workloads.Schedule(workload, 0).block())
    ops = workloads.Schedule(workload, seed).block()
    outcomes, _, _, counts, _ = run.traced_pass(ops, run.child_env(), in_process)
    run.verify(outcomes)
    wrong = [o.reason for o in outcomes if o.status != "ok" and not o.known]
    if wrong:
        raise AssertionError(f"{workload}: unexpected failures: {wrong[:3]}")
    return {name: counts.get(name, 0) for name in COUNTERS}


def main() -> int:
    problems = []
    for workload in workloads.WORKLOADS:
        keys = [[op.key() for op in workloads.Schedule(workload, seed).ops(60)]
                for seed in (1, 1, 2)]
        if keys[0] != keys[1]:
            problems.append(f"{workload}: seed 1 gave two different schedules")
        if keys[0] == keys[2]:
            problems.append(f"{workload}: seeds 1 and 2 gave the same inputs")

        first, second = traced_counts(workload, 7), traced_counts(workload, 7)
        print(f"{workload}: {first}")
        if first != second:
            problems.append(f"{workload}: counters differ between runs: {first} vs {second}")
        for name in EXERCISED[workload]:
            if not first[name]:
                problems.append(f"{workload}: counter {name} stayed 0")
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
