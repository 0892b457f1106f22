"""Tests for the dynamic lifecycle engine: departures, fragmentation,
and migration-driven rebalancing."""

import pytest

from repro.core.blockscores import mask_nodes
from repro.perfsim import workload_by_name
from repro.scheduler import (
    FirstFitFleetPolicy,
    Fleet,
    LifecycleScheduler,
    PlacementRequest,
    RebalanceConfig,
    generate_churn_stream,
)
from repro.topology import amd_opteron_6272


def _request(request_id, *, arrival, lifetime=None, vcpus=8, workload="gcc"):
    return PlacementRequest(
        request_id=request_id,
        profile=workload_by_name(workload),
        vcpus=vcpus,
        arrival_time=arrival,
        lifetime=lifetime,
    )


def _engine(n_hosts, **config_kwargs):
    fleet = Fleet.homogeneous(amd_opteron_6272(), n_hosts)
    return LifecycleScheduler(
        fleet,
        FirstFitFleetPolicy(),
        config=RebalanceConfig(**config_kwargs) if config_kwargs else None,
    )


class TestDepartures:
    def test_departures_free_capacity(self):
        """One 8-node host, a sequence of full-machine containers that
        each leave before the next arrives: all must place."""
        engine = _engine(1)
        requests = [
            _request(i, arrival=10.0 * i, lifetime=5.0, vcpus=64)
            for i in range(1, 6)
        ]
        report = engine.run(requests)
        assert report.placed == 5
        assert report.churn.departures == 5
        assert report.churn.arrivals == 5
        assert engine.fleet.free_nodes_total == 8  # everything released

    def test_without_departures_only_one_fits(self):
        engine = _engine(1)
        requests = [
            _request(i, arrival=10.0 * i, vcpus=64) for i in range(1, 6)
        ]
        report = engine.run(requests)
        assert report.placed == 1
        assert report.churn.departures == 0

    def test_departure_of_rejected_request_is_noop(self):
        engine = _engine(1)
        requests = [
            _request(1, arrival=0.0, vcpus=64),  # immortal, hogs the host
            _request(2, arrival=1.0, lifetime=5.0, vcpus=64),  # rejected
        ]
        report = engine.run(requests)
        assert report.placed == 1
        assert report.rejected == 1
        assert report.churn.departures == 0  # req 2's departure is ignored
        assert engine.fleet._locations.get(1) == 0

    def test_fragmentation_timeline_sampled_per_event(self):
        engine = _engine(1)
        requests = [
            _request(1, arrival=0.0, lifetime=5.0, vcpus=32),
            _request(2, arrival=1.0, vcpus=16),
        ]
        report = engine.run(requests)
        timeline = report.churn.fragmentation_timeline
        assert len(timeline) == 3  # two arrivals + one departure
        assert [s.time for s in timeline] == [0.0, 1.0, 5.0]
        assert [s.largest_free_block for s in timeline] == [4, 2, 6]
        assert [s.active_containers for s in timeline] == [1, 2, 1]


class TestRebalancer:
    def _fragmented_scenario(self):
        """Two hosts, each filled with eight 1-node containers; three on
        each host depart at t=10, leaving 3+3 free nodes.  The 4-node
        arrival at t=20 cannot fit anywhere without consolidation."""
        requests = []
        for i in range(16):
            lifetime = 10.0 if i % 8 < 3 else None
            requests.append(
                _request(i + 1, arrival=0.001 * i, lifetime=lifetime)
            )
        requests.append(_request(100, arrival=20.0, vcpus=32))
        return requests

    def test_fragmentation_triggered_migration_recovers_reject(self):
        engine = _engine(2)
        report = engine.run(self._fragmented_scenario())
        churn = report.churn
        assert report.placed == 17
        assert churn.rebalance_attempts == 1
        assert churn.rebalance_recovered == 1
        assert churn.n_migrations == 1
        record = churn.migrations[0]
        assert record.triggered_by == 100
        assert record.source_host != record.dest_host
        assert record.moved_gb > 0
        assert record.seconds > 0
        assert record.engine in ("fast", "throttled")
        assert "migrate" in record.describe()
        # The big request landed on the consolidated host.
        big = next(
            g for g in report.decisions if g.decision.request.request_id == 100
        )
        assert big.decision.placed
        assert big.decision.host_id == record.source_host
        # The migrated victim's graded decision follows it to the new
        # host (and was re-graded there), so the report describes the
        # final fleet, not the pre-migration one.
        moved = next(
            g
            for g in report.decisions
            if g.decision.request.request_id == record.request_id
        )
        assert moved.decision.host_id == record.dest_host
        assert moved.achieved_relative is not None
        host = engine.fleet.hosts[record.dest_host]
        assert moved.decision.placement is host.placements[record.request_id]

    def test_rebalancer_disabled_leaves_reject(self):
        engine = _engine(2, enabled=False)
        report = engine.run(self._fragmented_scenario())
        assert report.placed == 16
        assert report.rejected == 1
        assert report.churn.n_migrations == 0
        assert report.churn.fit_failures == 1

    def test_cost_gate_blocks_expensive_plans(self):
        """With a budget below any engine's migration time, the plan is
        rejected and the request stays rejected."""
        engine = _engine(2, reject_penalty_seconds=1e-6)
        report = engine.run(self._fragmented_scenario())
        assert report.rejected == 1
        assert report.churn.n_migrations == 0
        assert report.churn.rebalance_attempts == 0

    def test_no_rebalance_on_genuine_capacity_shortage(self):
        """When the fleet is simply full, no amount of shuffling helps —
        the rebalancer must not move anything."""
        engine = _engine(1)
        requests = [
            _request(1, arrival=0.0, vcpus=64),
            _request(2, arrival=1.0, vcpus=32),
        ]
        report = engine.run(requests)
        assert report.rejected == 1
        assert report.churn.n_migrations == 0

    def test_migration_preserves_accounting(self):
        engine = _engine(2)
        report = engine.run(self._fragmented_scenario())
        fleet = engine.fleet
        # 16 placed, 6 departed -> 10 survivors (one of them migrated),
        # plus the recovered 4-node container: thread counts must agree.
        assert fleet.used_threads == 10 * 8 + 32
        for host in fleet.hosts:
            claimed = set()
            for placement in host.placements.values():
                assert not claimed & set(placement.nodes), "node double-booked"
                claimed |= set(placement.nodes)
            assert claimed | set(mask_nodes(host.free_mask)) == set(host.machine.nodes)
        assert report.churn.migrated_gb == pytest.approx(
            sum(r.moved_gb for r in report.churn.migrations)
        )


    def test_destination_search_over_one_candidate_list(self, monkeypatch):
        """The plan hands every victim the same fullest-first candidates:
        a host with too few free nodes is skipped without a block search
        (its free count is never even listed), a block scoring like the
        victim's wins over a fuller host's mismatched one, and nodes
        claimed for an earlier victim are not offered twice."""
        from repro.core.blockscores import block_state_memo
        from repro.core.placements import Placement
        from repro.scheduler.fleet import FleetHost
        from repro.scheduler.lifecycle import _FullestFirst

        machine = amd_opteron_6272()
        scorer = machine.interconnect.aggregate_bandwidth
        table = block_state_memo(machine, "interconnect")
        pairs = {
            (a, b): scorer(frozenset((a, b)))
            for a in range(8)
            for b in range(a + 1, 8)
        }
        victim_nodes = max(pairs, key=pairs.get)
        other_nodes = next(p for p in pairs if pairs[p] != pairs[victim_nodes])
        victim = Placement(machine, victim_nodes, 16, l2_share=2)

        def host_with_free(host_id, free_nodes):
            host = FleetHost(host_id, machine)
            busy = [n for n in range(8) if n not in free_nodes]
            host.allocate(
                host_id, Placement(machine, busy, 8 * len(busy), l2_share=2)
            )
            return host

        spare = next(n for n in range(8) if n not in victim_nodes)
        hosts = [
            host_with_free(0, victim_nodes[:1]),  # cramped
            host_with_free(1, other_nodes),  # mismatched
            host_with_free(2, victim_nodes + (spare,)),  # matching
        ]
        candidates = _FullestFirst(
            hosts, {host.n_free_nodes: {host.host_id} for host in hosts}, None
        )
        searched = []
        find_block = FleetHost.find_block

        def counted(self, *args, **kwargs):
            searched.append(self.host_id)
            return find_block(self, *args, **kwargs)

        monkeypatch.setattr(FleetHost, "find_block", counted)
        find = LifecycleScheduler._find_destination
        dest, block = find(candidates, victim, {}, scorer, table)
        assert (dest.host_id, block) == (2, victim_nodes)
        assert 0 not in searched
        # With the matching block claimed, the fuller host's mismatched
        # one is the fallback; with that claimed too, nothing is left.
        claimed = {2: set(victim_nodes)}
        dest, block = find(candidates, victim, claimed, scorer, table)
        assert (dest.host_id, block) == (1, other_nodes)
        claimed[1] = set(other_nodes)
        assert find(candidates, victim, claimed, scorer, table) is None
        assert 0 not in searched
        assert 1 not in candidates  # the cramped host's count

    def test_candidates_keep_the_eager_order(self):
        """Listed count by count, the candidates are what one sorted list
        of every same-shape host was: fullest first, lowest id first
        within a free count, the source left out."""
        import random

        from repro.core.placements import Placement
        from repro.scheduler.lifecycle import _FullestFirst

        machine = amd_opteron_6272()
        fleet = Fleet.homogeneous(machine, 16)
        rng = random.Random(5)
        for host in fleet.hosts:
            busy = rng.sample(range(8), rng.randint(0, 8))
            if busy:
                host.allocate(
                    host.host_id,
                    Placement(machine, busy, 8 * len(busy), l2_share=2),
                )
        buckets = fleet.index.buckets(machine.fingerprint())
        source = 3
        eager = [
            (free, fleet.hosts[host_id])
            for free in sorted(buckets)
            if free
            for host_id in sorted(buckets[free])
            if host_id != source
        ]
        assert len(eager) > 4 and len({free for free, _ in eager}) > 2
        lazy = _FullestFirst(fleet.hosts, buckets, source)
        assert not lazy  # nothing listed before a search asks
        assert [
            (free, host)
            for free in lazy.free_counts
            if free
            for host in lazy[free]
        ] == eager


class TestMinBlockNodes:
    def test_heuristic_policy_uses_minimal_shape(self):
        machine = amd_opteron_6272()
        policy = FirstFitFleetPolicy()
        assert policy.min_block_nodes(machine, 8) == 1
        assert policy.min_block_nodes(machine, 32) == 4
        assert policy.min_block_nodes(machine, 65) is None  # unhostable


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            RebalanceConfig(reject_penalty_seconds=0)
        with pytest.raises(ValueError):
            RebalanceConfig(max_migrations_per_reject=0)


class TestChurnReport:
    def test_describe_includes_churn_lines(self):
        engine = _engine(2)
        requests = generate_churn_stream(
            20, seed=3, arrival_rate=1.0, mean_lifetime=10.0
        )
        report = engine.run(requests)
        text = report.describe()
        assert "churn:" in text
        assert "rebalancer:" in text
        assert "fragmentation" in text
        assert report.churn.fit_failure_rate <= 1.0

    def test_churn_stream_determinism(self):
        first = generate_churn_stream(30, seed=9, heavy_tail=True)
        second = generate_churn_stream(30, seed=9, heavy_tail=True)
        assert [(r.arrival_time, r.lifetime) for r in first] == [
            (r.arrival_time, r.lifetime) for r in second
        ]
        third = generate_churn_stream(30, seed=10, heavy_tail=True)
        assert [r.arrival_time for r in first] != [
            r.arrival_time for r in third
        ]

    def test_churn_stream_validation(self):
        with pytest.raises(ValueError):
            generate_churn_stream(0)
        with pytest.raises(ValueError):
            generate_churn_stream(5, arrival_rate=0.0)
        with pytest.raises(ValueError):
            generate_churn_stream(5, mean_lifetime=-1.0)
        with pytest.raises(ValueError):
            generate_churn_stream(5, heavy_tail=True, pareto_shape=1.0)
        with pytest.raises(ValueError):
            generate_churn_stream(5, immortal_fraction=1.0)

    def test_immortal_fraction(self):
        stream = generate_churn_stream(
            60, seed=2, immortal_fraction=0.5
        )
        immortal = [r for r in stream if r.lifetime is None]
        assert 0 < len(immortal) < len(stream)
        assert all(r.departure_time is None for r in immortal)

    def test_arrivals_are_increasing(self):
        stream = generate_churn_stream(40, seed=5, arrival_rate=2.0)
        times = [r.arrival_time for r in stream]
        assert times == sorted(times)
        assert all(t > 0 for t in times)
