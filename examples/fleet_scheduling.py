"""Fleet scheduling walkthrough: a request stream over a mixed fleet.

Builds a small mixed fleet (AMD Opteron and Intel Xeon shapes), generates a
deterministic stream of heterogeneous container requests (nothing ever
departs: a one-shot stream, for the lifecycle engine with its rebalancer
off), and runs it through all three fleet policies — first-fit
bin-packing, load-balanced spread, and the paper's goal-aware ML policy —
printing each fleet report and a few per-request decision traces.

Watch two things in the output:

* the ML policy's violation count against the heuristics' — the fleet-scale
  version of the paper's Figure 5 story;
* the enumeration-cache line: thousands of requests, two machine shapes,
  a handful of pipeline runs.

Run:  python examples/fleet_scheduling.py
"""

from repro.scheduler import (
    POLICIES,
    Fleet,
    LifecycleScheduler,
    ModelRegistry,
    RebalanceConfig,
    generate_request_stream,
    make_policy,
)
from repro.topology import amd_opteron_6272, intel_xeon_e7_4830_v3


def build_fleet() -> Fleet:
    # One topology object per shape, shared by all hosts of that shape —
    # which is what lets the enumeration memo cache collapse the fleet to
    # two distinct keys per container size.
    return Fleet.mixed([(amd_opteron_6272(), 10), (intel_xeon_e7_4830_v3(), 6)])


def main() -> None:
    requests = generate_request_stream(
        60, seed=3, vcpus_choices=(8, 16), goal_choices=(None, 0.9, 1.0)
    )
    print(f"stream: {len(requests)} requests, e.g.")
    for request in requests[:4]:
        print(f"  {request.describe()}")
    print()

    registry = ModelRegistry(seed=3)
    # Every registered policy through the one factory the CLI and the
    # sharded service also use — a new policy added to POLICIES shows up
    # here with no further wiring.
    for name in ("ml", "first-fit", "spread"):
        assert name in POLICIES
        policy = make_policy(name, registry=registry)
        engine = LifecycleScheduler(
            build_fleet(),
            policy,
            registry=registry,
            config=RebalanceConfig(enabled=False),
        )
        report = engine.run(requests, window=32)
        print(report.describe())
        for graded in report.decisions[:3]:
            print(f"    {graded.describe()}")
        print()


if __name__ == "__main__":
    main()
