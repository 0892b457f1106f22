"""Tests for available space derived from the free-node histograms.

The contract mirrors the fleet index's (``test_index.py``): after any
sequence of allocations, releases, and migrations, the per-class counts
:func:`~repro.scheduler.capacity.available` derives from the index's
per-shape histograms must equal what a from-scratch brute-force
re-enumeration over the hosts produces — at every step, not just at the
end.  The oracle walks hosts and shares no code with the histogram path.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.blockscores import mask_nodes
from repro.core.placements import Placement
from repro.scheduler import (
    Fleet,
    GoalAwareFleetPolicy,
    LifecycleScheduler,
    ModelRegistry,
    RebalanceConfig,
    ScheduleConfig,
    ShardSummary,
    available,
    brute_force_capacity,
    generate_churn_stream,
    minimal_shape,
    needed_nodes,
)
from repro.scheduler.events import events_from_requests
from repro.scheduler.service import SchedulerService
from repro.topology import PRESETS, amd_opteron_6272, intel_xeon_e7_4830_v3

#: 10 vCPUs is shape-dependent and 1024 fits nowhere — the interesting
#: feasibility edges ride along with the common classes.
CLASSES = (4, 8, 16, 32, 10, 1024)


def _mixed_fleet():
    return Fleet.mixed(
        [(amd_opteron_6272(), 6), (intel_xeon_e7_4830_v3(), 5)]
    )


def _counts(shapes, machines, classes):
    """Per-class counts from ``shapes`` (name -> histogram)."""
    by_name = {machine.name: machine for machine in machines}
    return {
        vcpus: available(
            shapes, lambda name: needed_nodes(by_name[name], vcpus)
        ).count
        for vcpus in classes
    }


def _fleet_counts(fleet, classes):
    return _counts(fleet.index.histograms(), fleet.index.shapes(), classes)


def _coverable_by_hosts(hosts, vcpus):
    """Host-walking oracle for ``Space.coverable``: some shape's free
    nodes, summed over its hosts, cover the class's minimal block."""
    free, needed = {}, {}
    for host in hosts:
        fingerprint = host.machine.fingerprint()
        free[fingerprint] = free.get(fingerprint, 0) + host.n_free_nodes
        try:
            needed[fingerprint] = minimal_shape(host.machine, vcpus)[0]
        except ValueError:
            needed[fingerprint] = None
    return any(
        nodes is not None and free[fingerprint] >= nodes
        for fingerprint, nodes in needed.items()
    )


def _random_step(rng, fleet, live, next_id):
    """One random allocate (55 %), release (30 %) or same-shape
    migration (15 %); returns the next free request id."""
    action = rng.random()
    if action < 0.55 or not live:
        host = rng.choice(fleet.hosts)
        vcpus = rng.choice([4, 8, 16, 32])
        try:
            n_nodes, l2_share = minimal_shape(host.machine, vcpus)
        except ValueError:
            return next_id
        free = mask_nodes(host.free_mask)
        if len(free) < n_nodes:
            return next_id
        nodes = tuple(rng.sample(free, n_nodes))
        host.allocate(
            next_id,
            Placement(host.machine, nodes, vcpus, l2_share=l2_share),
        )
        live[next_id] = host.host_id
        return next_id + 1
    request_id = rng.choice(list(live))
    source = fleet.hosts[live[request_id]]
    _, placement = fleet.release(request_id)
    del live[request_id]
    if action < 0.85:
        return next_id
    same_shape = [
        h
        for h in fleet.hosts
        if h.machine.fingerprint() == source.machine.fingerprint()
        and h.n_free_nodes >= placement.n_nodes
    ]
    if not same_shape:
        return next_id
    dest = rng.choice(same_shape)
    nodes = tuple(rng.sample(mask_nodes(dest.free_mask), placement.n_nodes))
    dest.allocate(
        request_id,
        Placement(
            dest.machine, nodes, placement.vcpus, l2_share=placement.l2_share
        ),
    )
    live[request_id] = dest.host_id
    return next_id


class TestCapacityVector:
    """The per-class counts (the available-space vector) over a fresh
    mixed fleet: every class gets an exact answer."""

    def test_tracked_untracked_and_infeasible(self):
        fleet = _mixed_fleet()
        # 24 is outside the default --vcpus: exact all the same.
        classes = (8, 24, 1024)
        counts = _fleet_counts(fleet, classes)
        assert counts == brute_force_capacity(fleet.hosts, classes)
        # AMD: 8 nodes of 8 threads; Intel: 4 nodes of 16 threads — the
        # one-node class count is just total nodes.
        assert counts[8] == 6 * 8 + 5 * 4
        assert counts[24] > 0
        assert counts[1024] == 0  # infeasible on every shape: explicit 0


class TestInitialCapacity:
    def test_empty_fleet_matches_brute_force(self):
        fleet = _mixed_fleet()
        machines = [host.machine for host in fleet.hosts]
        shapes = ShardSummary.initial(0, machines).shapes
        counts = _counts(shapes, machines, CLASSES)
        assert counts == brute_force_capacity(fleet.hosts, CLASSES)
        assert counts[1024] == 0
        assert counts[8] == 6 * 8 + 5 * 4

    def test_fresh_tracker_matches_initial(self):
        # The index's buckets are what track free space: a fresh fleet's
        # histograms are exactly what the router assumes of a new shard.
        fleet = _mixed_fleet()
        machines = [host.machine for host in fleet.hosts]
        shapes = fleet.index.histograms()
        assert shapes == ShardSummary.initial(0, machines).shapes
        assert shapes == {
            "amd-opteron-6272": [0] * 8 + [6],
            "intel-xeon-e7-4830-v3": [0] * 4 + [5],
        }
        fleet.index.assert_consistent(fleet.hosts)

    def test_live_fleet_histogram_counts_allocations(self):
        fleet = _mixed_fleet()
        machine = fleet.hosts[0].machine
        fleet.hosts[0].allocate(
            1, Placement(machine, (0, 1, 2), 24, l2_share=2)
        )
        assert fleet.index.histograms()[machine.name] == [0] * 5 + [1, 0, 0, 5]
        counts = _fleet_counts(fleet, CLASSES)
        assert counts == brute_force_capacity(fleet.hosts, CLASSES)
        assert counts[8] == 6 * 8 + 5 * 4 - 3


class TestRandomizedReplay:
    """Replay random allocate/release/migration sequences and compare
    the histogram counts against brute force after every step."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_replay(self, seed):
        rng = random.Random(seed)
        fleet = _mixed_fleet()
        live = {}  # request_id -> host_id
        next_id = 1
        for step in range(300):
            next_id = _random_step(rng, fleet, live, next_id)
            assert _fleet_counts(fleet, CLASSES) == brute_force_capacity(
                fleet.hosts, CLASSES
            )
            fleet.index.assert_consistent(fleet.hosts)

    @settings(max_examples=25, deadline=None)
    @given(
        machine=st.sampled_from(sorted(PRESETS) + ["mixed"]),
        hosts=st.integers(1, 6),
        seed=st.integers(0, 10_000),
        classes=st.lists(st.integers(1, 130), min_size=1, max_size=4),
    )
    def test_every_preset_and_the_mixed_fleet(
        self, machine, hosts, seed, classes
    ):
        fleet = ScheduleConfig(machine=machine, hosts=hosts).build_fleet()
        rng = random.Random(seed)
        live = {}
        next_id = 1
        by_name = {machine.name: machine for machine in fleet.index.shapes()}
        for step in range(40):
            next_id = _random_step(rng, fleet, live, next_id)
            expected = brute_force_capacity(fleet.hosts, classes)
            for vcpus in classes:
                space = available(
                    fleet.index.histograms(),
                    lambda name: needed_nodes(by_name[name], vcpus),
                )
                assert space.count == expected[vcpus]
                assert space.coverable == _coverable_by_hosts(
                    fleet.hosts, vcpus
                )


class TestChurnConsistency:
    def test_tracker_survives_lifecycle_churn(self):
        # A real engine run: arrivals, departures, and rebalancer
        # migrations all move hosts between the index's buckets.
        requests = generate_churn_stream(
            80, seed=2, arrival_rate=1.0, mean_lifetime=20.0
        )
        fleet = Fleet.homogeneous(amd_opteron_6272(), 3)
        registry = ModelRegistry(seed=5)
        engine = LifecycleScheduler(
            fleet,
            GoalAwareFleetPolicy(registry),
            registry=registry,
            config=RebalanceConfig(enabled=True),
        )
        engine.begin()
        for event in events_from_requests(requests).drain():
            engine.step(event)
            assert _fleet_counts(fleet, CLASSES) == brute_force_capacity(
                fleet.hosts, CLASSES
            )
        assert engine.stats.migrations  # the rebalancer did move hosts
        fleet.index.assert_consistent(fleet.hosts)

    def test_drift_is_reported_per_class(self, monkeypatch, capsys):
        # ``repro capacity`` holds the histogram counts to brute force on
        # every run and names each class that disagrees.
        from repro import cli

        def off_by_one(hosts, classes):
            counts = brute_force_capacity(hosts, classes)
            counts[8] += 1
            return counts

        monkeypatch.setattr(
            "repro.scheduler.brute_force_capacity", off_by_one
        )
        with pytest.raises(SystemExit, match="vcpus 8: histogram 16 != actual 17"):
            cli.main(["capacity", "--machine", "amd", "--hosts", "2"])


class TestFrontEndView:
    """The router's free-space view is the shards' truth.

    A seeded churn run in admission mode that saturates its fleet: after
    every dispatch, for each shard whose outbox is empty (no departure
    the shard has not seen yet), the front end's count for every
    configured class, one class outside them and an infeasible one
    equals brute force over the worker's hosts.  A shard the front end
    calls hopeless has no host with a big-enough free block and, with
    the rebalancer on, no hostable shape whose free total covers the
    class's minimal block either.
    """

    @pytest.mark.parametrize("no_rebalance", [False, True])
    def test_front_end_view_matches_shard_truth(self, no_rebalance):
        config = ScheduleConfig(
            machine="mixed",
            hosts=6,
            requests=60,
            seed=11,
            churn=True,
            policy="first-fit",
            arrival_rate=5.0,
            mean_lifetime=30.0,
            heavy_tail=True,
            vcpus=(8, 16, 32),
            shards=2,
            window=4,
            admission=True,
            no_rebalance=no_rebalance,
        )
        classes = (*config.vcpus, 24, 1024)
        seen = {"checked": 0, "cannot_place": 0}
        with SchedulerService(config) as service:
            dispatch = service._dispatch

            def checked_dispatch(sends):
                outcomes = dispatch(sends)
                for shard, client in enumerate(service.clients):
                    if service._outbox[shard]:
                        continue
                    fleet = client.worker.fleet
                    truth = brute_force_capacity(fleet.hosts, classes)
                    for vcpus in classes:
                        seen["checked"] += 1
                        assert service._space(shard, vcpus).count == truth[vcpus]
                        if service._shard_cannot_place(shard, vcpus):
                            seen["cannot_place"] += 1
                            _assert_hopeless(
                                fleet.index, vcpus, not no_rebalance
                            )
                return outcomes

            service._dispatch = checked_dispatch
            service.serve()
        assert seen["checked"] > 100
        assert seen["cannot_place"] > 0


def _assert_hopeless(index, vcpus, rebalance):
    for fingerprint, machine in index.machines():
        needed = needed_nodes(machine, vcpus)
        if needed is None:
            continue
        buckets = index.buckets(fingerprint)
        assert max(buckets) < needed, f"a {machine.name} host has room"
        if rebalance:
            free = sum(k * len(ids) for k, ids in buckets.items())
            assert free < needed, (
                f"{machine.name} has {free} free nodes for a {needed}-node "
                "block: the rebalancer could consolidate them"
            )
