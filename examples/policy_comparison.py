#!/usr/bin/env python3
"""Compare all five policies on a custom workload mix (Figure 5 style).

Builds a workload that is not in the paper's Table 2 — two MVAs plus a
GRAVITY — and compares every policy with replications and confidence
intervals, printing a relative-response-time table against Equipartition
and the Table 3 style affinity metrics.  Sweep specs name Table 2 mixes
only, so a custom mix runs as a plain serial loop of ``run_mix`` calls.

Run:  python examples/policy_comparison.py
"""

from repro import (
    DYN_AFF,
    DYN_AFF_DELAY,
    DYN_AFF_NOPRI,
    DYNAMIC,
    EQUIPARTITION,
    run_mix,
)
from repro.measure.runner import Replication, comparison_from_replications
from repro.measure.workloads import WorkloadMix
from repro.reporting.tables import render_relative_rt_table, render_table3

CUSTOM_MIX = WorkloadMix(
    mix_id=7, copies={"MVA": 2, "MATRIX": 0, "GRAVITY": 1}, note="custom: 2 MVA + 1 GRAVITY"
)


def main() -> None:
    print(f"Running custom mix {dict(CUSTOM_MIX.copies)} under 5 policies x 3 seeds ...")
    policies = [EQUIPARTITION, DYNAMIC, DYN_AFF, DYN_AFF_NOPRI, DYN_AFF_DELAY]
    # Every policy on each shared seed: common random numbers.
    replications = [
        Replication(jobs={
            policy.name: dict(run_mix(CUSTOM_MIX, policy, seed=seed).jobs)
            for policy in policies
        })
        for seed in range(3)
    ]
    comparison = comparison_from_replications(CUSTOM_MIX, replications)
    print()
    print(render_relative_rt_table(comparison))
    print()
    print(render_table3(comparison, policies=("Dynamic", "Dyn-Aff", "Dyn-Aff-Delay")))
    print()
    for policy in comparison.policies():
        mean = comparison.mean_response_time(policy)
        print(f"  mean job response time under {policy:14s}: {mean:6.1f} s")
    print()
    print(
        "Things to notice: the fair dynamic policies cluster tightly below\n"
        "Equipartition, while Dyn-Aff-NoPri is erratic — it favours whichever\n"
        "job happened to grab processors first (Figure 6's lesson)."
    )


if __name__ == "__main__":
    main()
