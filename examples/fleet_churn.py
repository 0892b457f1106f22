"""Dynamic fleet lifecycle walkthrough: churn, fragmentation, rebalancing.

A one-shot stream (examples/fleet_scheduling.py) only has arrivals.
This example runs the same lifecycle engine on a churning stream —
Poisson arrivals, heavy-tailed lifetimes, real departures — and shows the
problem that regime creates: free capacity *fragments*.  Mostly-1-node
containers scatter across hosts, each host keeps a couple of free nodes,
and the occasional 4-node container is rejected even though the fleet as a
whole has dozens of free nodes.

The rebalancer closes that gap.  On a fragmentation reject it consolidates
the host closest to fitting: the cheapest-to-move containers (migration
cost is proportional to memory footprint — the paper's Section 7 guidance,
priced through ``repro.migration.MigrationPlanner``) are migrated to other
hosts, but only when the whole plan's migration time beats the configured
rejection penalty.  The same stream is run with and without the rebalancer
so the recovered rejects are visible side by side.

Run:  python examples/fleet_churn.py
"""

from repro.scheduler import (
    Fleet,
    LifecycleScheduler,
    RebalanceConfig,
    SpreadFleetPolicy,
    generate_churn_stream,
)
from repro.topology import amd_opteron_6272


def main() -> None:
    # Mostly 1-node (8 vCPU) containers with occasional 4-node (32 vCPU)
    # ones: the small ones fragment the fleet, the big ones expose it.
    requests = generate_churn_stream(
        300,
        seed=11,
        arrival_rate=1.0,
        mean_lifetime=30.0,
        heavy_tail=True,
        vcpus_choices=(8, 8, 8, 32),
        goal_choices=(None, 0.9, 1.0),
    )
    lifetimes = [r.lifetime for r in requests if r.lifetime is not None]
    print(
        f"stream: {len(requests)} requests over "
        f"{requests[-1].arrival_time:.0f} simulated seconds, "
        f"lifetimes {min(lifetimes):.1f}s .. {max(lifetimes):.1f}s"
    )
    print()

    for label, config in (
        ("no rebalancing (baseline)", RebalanceConfig(enabled=False)),
        ("migration-driven rebalancing", RebalanceConfig(enabled=True)),
    ):
        engine = LifecycleScheduler(
            Fleet.homogeneous(amd_opteron_6272(), 8),
            SpreadFleetPolicy(),  # spreads load — and fragments fastest
            config=config,
        )
        report = engine.run(requests)
        print(f"--- {label} ---")
        print(report.describe())
        for record in report.churn.migrations[:3]:
            print(f"    {record.describe()}")
        print()


if __name__ == "__main__":
    main()
