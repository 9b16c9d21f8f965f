#!/usr/bin/env python3
"""Quickstart: mesh → placement → simulated run in ~60 lines.

Builds a small adaptively refined 3D mesh (the Fig. 5 structure: octree
+ Z-order SFC block IDs), places its blocks with the baseline and CPLX
policies, and simulates a few hundred AMR timesteps on a virtual
cluster, printing the phase breakdown and the CPLX improvement.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.amr import DriverConfig, SedovWorkload, run_trajectory, scaled_config
from repro.core import contiguity_fraction, get_policy, load_stats
from repro.simnet import Cluster


def main() -> None:
    # --- a Sedov workload at reduced geometry (512 ranks, short run) ----
    config = scaled_config(n_ranks=512, scale=8, steps=500)
    workload = SedovWorkload(config)
    trajectory = workload.full_trajectory()
    print(f"Sedov trajectory: {len(trajectory)} epochs, "
          f"{len(trajectory[0].keys)} -> {len(trajectory[-1].keys)} blocks")

    # --- placement policies share one interface -------------------------
    epoch = trajectory[len(trajectory) // 2]
    costs = epoch.base_costs
    for name in ("baseline", "cplx:0", "cplx:50", "lpt"):
        result = get_policy(name).place(costs, 512)
        stats = load_stats(costs, result.assignment, 512)
        print(
            f"  {name:10s} makespan={stats.makespan:7.2f} "
            f"imbalance={stats.imbalance:5.2f} "
            f"SFC-contiguity={contiguity_fraction(result.assignment):5.2f} "
            f"placement={result.elapsed_s * 1e3:6.2f} ms"
        )

    # --- end-to-end simulated runs ---------------------------------------
    cluster = Cluster(n_ranks=512)
    driver = DriverConfig()
    baseline = run_trajectory(get_policy("baseline"), trajectory, cluster, driver)
    cplx = run_trajectory(get_policy("cplx:50"), trajectory, cluster, driver)
    print("\nSimulated end-to-end runs:")
    print(" ", baseline.row())
    print(" ", cplx.row())
    gain = (baseline.wall_s - cplx.wall_s) / baseline.wall_s
    print(f"\nCPL50 runtime reduction vs baseline: {gain:.1%} "
          f"(paper: up to 21.6% at full scale)")


if __name__ == "__main__":
    main()
