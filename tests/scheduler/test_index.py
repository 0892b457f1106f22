"""Tests for the incremental fleet index.

Two contracts:

* **consistency** — after any sequence of allocations, releases, and
  migrations, every index counter and bucket equals what a from-scratch
  recomputation over the hosts produces, and the state-keyed host query
  equals a brute-force scan over the hosts (randomized replay on a fleet
  that includes a shape too large to tabulate);
* **equivalence** — policies running on the index pick exactly the hosts
  and placements their linear-scan oracles (``oracle_linear.py``) pick,
  on both the one-shot reference request stream and the churning
  lifecycle stream.
"""

import itertools
import random

import pytest

from repro.core.blockscores import (
    MAX_TABLE_NODES,
    BlockScoreCache,
    BlockScoreTable,
    mask_nodes,
    scores_match,
)
from repro.core.memo import cached_enumerate_important_placements
from repro.core.placements import Placement
from repro.scheduler import (
    Fleet,
    FleetIndex,
    FirstFitFleetPolicy,
    GoalAwareFleetPolicy,
    LifecycleScheduler,
    ModelRegistry,
    RebalanceConfig,
    SpreadFleetPolicy,
    generate_churn_stream,
    generate_request_stream,
    minimal_shape,
)
from repro.topology import (
    TopologyBuilder,
    amd_opteron_6272,
    intel_xeon_e7_4830_v3,
)
from tests.scheduler.oracle_linear import (
    LinearFirstFitPolicy,
    LinearGoalAwarePolicy,
    LinearSpreadPolicy,
    UnmemoizedRegistry,
)
from tests.scheduler.oracle_one_shot import one_shot_engine


def _mixed_fleet():
    return Fleet.mixed(
        [(amd_opteron_6272(), 6), (intel_xeon_e7_4830_v3(), 5)]
    )


def _jumbo():
    """A shape above MAX_TABLE_NODES (no block-score table exists for it):
    a ring with alternating link bandwidths, so block scores differ."""
    n = MAX_TABLE_NODES + 1
    return (
        TopologyBuilder("jumbo")
        .nodes(n)
        .l2_groups_per_node(2, threads_per_l2=2)
        .dram_bandwidth(10000.0)
        .cache_sizes(l3_mb=8.0, l2_kb=512.0)
        .asymmetric_interconnect(
            {(i, (i + 1) % n): 4000.0 + 1500.0 * (i % 3) for i in range(n)}
        )
        .build()
    )


def _naive_find(free, size, scorer, target):
    """The pre-table find_block loop, verbatim: the oracle."""
    nodes = sorted(free)
    if size > len(nodes):
        return None
    best, best_score = None, float("-inf")
    for combo in itertools.combinations(nodes, size):
        score = scorer(frozenset(combo))
        if target is not None:
            if scores_match(score, target):
                return combo
            continue
        if score > best_score:
            best_score, best = score, combo
    return best


def _state_queries(machine):
    """Every ``(size, target)`` the state-keyed query is checked for on one
    shape: each block size with no target, plus the interconnect scores of
    the shape's important placements (of hand-picked blocks on the jumbo
    shape, whose enumeration would take minutes)."""
    scorer = machine.interconnect.aggregate_bandwidth
    if machine.n_nodes > MAX_TABLE_NODES:
        sizes = (1, 2, machine.n_nodes)
        blocks = [(0,), (0, 1), (1, 2), (0, 2), (0, 1, 2, 3), (1, 4, 7, 10)]
    else:
        sizes = range(1, machine.n_nodes + 1)
        blocks = [
            placement.nodes
            for vcpus in (8, 16, 32)
            for placement in cached_enumerate_important_placements(
                machine, vcpus
            )
        ]
    queries = {(size, None) for size in sizes}
    queries.update((len(block), scorer(block)) for block in blocks)
    return sorted(queries, key=lambda q: (q[0], q[1] is not None, q[1] or 0.0))


class TestIndexCounters:
    def test_fresh_fleet_counters(self):
        fleet = _mixed_fleet()
        index = fleet.index
        index.assert_consistent(fleet.hosts)
        assert index.used_threads == 0
        assert index.free_nodes_total == 6 * 8 + 5 * 4
        assert index.largest_free_block == 8
        assert len(list(index.machines())) == 2

    def test_allocate_and_release_update_counters(self):
        machine = amd_opteron_6272()
        fleet = Fleet.homogeneous(machine, 3)
        placement = Placement(machine, (0, 1), 16, l2_share=2)
        fleet.hosts[1].allocate(5, placement)
        assert fleet.index.used_threads == 16
        assert fleet.index.free_nodes_total == 3 * 8 - 2
        assert fleet.free_nodes_total == 3 * 8 - 2
        fleet.index.assert_consistent(fleet.hosts)
        fleet.release(5)
        assert fleet.index.used_threads == 0
        fleet.index.assert_consistent(fleet.hosts)

    def test_largest_free_block_tracks_max(self):
        machine = amd_opteron_6272()
        fleet = Fleet.homogeneous(machine, 2)
        fleet.hosts[0].allocate(
            1, Placement(machine, range(8), 64, l2_share=2)
        )
        fleet.hosts[1].allocate(
            2, Placement(machine, range(6), 48, l2_share=2)
        )
        assert fleet.largest_free_block == 2
        fleet.release(1)  # host 0 fully free again
        assert fleet.largest_free_block == 8
        fleet.index.assert_consistent(fleet.hosts)

    def test_largest_free_is_per_shape(self):
        amd, intel = amd_opteron_6272(), intel_xeon_e7_4830_v3()
        fleet = Fleet.mixed([(amd, 2), (intel, 2)])
        index = fleet.index
        by_shape = {
            key: [h for h in fleet.hosts if h.machine.fingerprint() == key]
            for key, _ in index.machines()
        }
        assert index.largest_free(amd.fingerprint()) == 8
        assert index.largest_free(intel.fingerprint()) == 4
        for host in by_shape[amd.fingerprint()]:
            host.allocate(
                host.host_id, Placement(amd, range(7), 56, l2_share=2)
            )
        full, spare = by_shape[intel.fingerprint()]
        full.allocate(100, Placement(intel, range(4), 48, l2_share=2))
        assert index.largest_free(amd.fingerprint()) == 1
        assert index.largest_free(intel.fingerprint()) == 4
        assert index.emptiest_host(intel.fingerprint()) == (4, spare.host_id)
        assert index.emptiest_host(amd.fingerprint()) == (
            1,
            min(h.host_id for h in by_shape[amd.fingerprint()]),
        )
        spare.allocate(101, Placement(intel, range(4), 48, l2_share=2))
        assert index.largest_free(intel.fingerprint()) == 0
        fleet.release(100)
        assert index.emptiest_host(intel.fingerprint()) == (4, full.host_id)
        index.assert_consistent(fleet.hosts)
        with pytest.raises(KeyError):
            index.largest_free(_jumbo().fingerprint())

    def test_empty_fleet_reports_zero_largest_block(self):
        # An empty host list used to raise ValueError from max(); the
        # aggregate must degrade to 0 instead (a drained fleet is a valid
        # observable state for monitoring, not an error).
        fleet = Fleet.homogeneous(amd_opteron_6272(), 1)
        fleet.hosts.clear()
        assert fleet.largest_free_block == 0

    def test_double_registration_rejected(self):
        fleet = Fleet.homogeneous(amd_opteron_6272(), 1)
        with pytest.raises(ValueError, match="already indexed"):
            fleet.index.register(fleet.hosts[0])

    def test_fit_failure_counter(self):
        index = FleetIndex()
        assert index.fit_failures == 0
        index.record_fit_failure()
        index.record_fit_failure()
        assert index.fit_failures == 2


class TestRandomizedReplayConsistency:
    """Replay random allocate/release/migration sequences and recompute
    every counter from scratch — and every state-keyed host query by a
    brute-force scan over ``fleet.hosts`` — after each step."""

    @staticmethod
    def _assert_queries_match_scan(fleet, cache, queries, oracle):
        for fingerprint, machine in fleet.index.machines():
            scorer = machine.interconnect.aggregate_bandwidth
            memo = cache.states(machine, "interconnect")
            for size, target in queries[fingerprint]:
                expected = None
                for host in fleet.hosts:
                    if host.machine.fingerprint() != fingerprint:
                        continue
                    key = (fingerprint, frozenset(mask_nodes(host.free_mask)), size, target)
                    if key not in oracle:
                        oracle[key] = _naive_find(
                            frozenset(mask_nodes(host.free_mask)), size, scorer, target
                        )
                    if oracle[key] is not None:
                        expected = host.host_id
                        break
                assert (
                    fleet.index.lowest_host(fingerprint, memo, size, target)
                    == expected
                ), (machine.name, size, target)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_replay(self, seed):
        rng = random.Random(seed)
        fleet = Fleet.mixed(
            [
                (amd_opteron_6272(), 6),
                (intel_xeon_e7_4830_v3(), 5),
                (_jumbo(), 2),
            ]
        )
        index = fleet.index
        cache = BlockScoreCache()
        queries = {
            fingerprint: _state_queries(machine)
            for fingerprint, machine in index.machines()
        }
        assert [
            isinstance(cache.states(machine), BlockScoreTable)
            for _, machine in index.machines()
        ] == [True, True, False]
        oracle = {}  # the brute-force scan's own per-state memo
        live = {}  # request_id -> host_id
        next_id = 1
        for step in range(300):
            action = rng.random()
            if action < 0.55 or not live:
                # Allocate a random balanced placement on a random host
                # with room.
                host = rng.choice(fleet.hosts)
                vcpus = rng.choice([4, 8, 16, 32])
                try:
                    n_nodes, l2_share = minimal_shape(host.machine, vcpus)
                except ValueError:
                    continue
                free = mask_nodes(host.free_mask)
                if len(free) < n_nodes:
                    continue
                nodes = tuple(rng.sample(free, n_nodes))
                host.allocate(
                    next_id,
                    Placement(host.machine, nodes, vcpus, l2_share=l2_share),
                )
                live[next_id] = host.host_id
                next_id += 1
            elif action < 0.85:
                request_id = rng.choice(list(live))
                fleet.release(request_id)
                del live[request_id]
            else:
                # Migration: release then re-allocate on a same-shape host.
                request_id = rng.choice(list(live))
                source = fleet.hosts[live[request_id]]
                _, placement = fleet.release(request_id)
                del live[request_id]
                same_shape = [
                    h
                    for h in fleet.hosts
                    if h.machine.fingerprint()
                    == source.machine.fingerprint()
                    and h.n_free_nodes >= placement.n_nodes
                ]
                if not same_shape:
                    continue
                dest = rng.choice(same_shape)
                nodes = tuple(
                    rng.sample(mask_nodes(dest.free_mask), placement.n_nodes)
                )
                dest.allocate(
                    request_id,
                    Placement(
                        dest.machine,
                        nodes,
                        placement.vcpus,
                        l2_share=placement.l2_share,
                    ),
                )
                live[request_id] = dest.host_id
            index.assert_consistent(fleet.hosts)
            self._assert_queries_match_scan(fleet, cache, queries, oracle)


class TestLongChurnStaysBounded:
    """The state buckets and the per-shape state memo are the structures
    this index adds; neither may grow with the length of the run."""

    def test_bucket_storage_and_state_memo_bounded(self):
        rng = random.Random(7)
        machine = amd_opteron_6272()
        fleet = Fleet.homogeneous(machine, 12)
        index = fleet.index
        memo = BlockScoreCache().states(machine, "interconnect")
        queries = _state_queries(machine)
        live = []
        events = peak_storage = 0
        next_id = 1
        while events < 20_000:
            host = rng.choice(fleet.hosts)
            if live and (rng.random() < 0.5 or host.n_free_nodes == 0):
                fleet.release(live.pop(rng.randrange(len(live))))
            elif host.n_free_nodes:
                n_nodes = rng.randint(1, min(4, host.n_free_nodes))
                nodes = rng.sample(mask_nodes(host.free_mask), n_nodes)
                host.allocate(
                    next_id, Placement(machine, nodes, 8 * n_nodes, l2_share=2)
                )
                live.append(next_id)
                next_id += 1
            else:
                continue
            events += 1
            size, target = rng.choice(queries)
            index.lowest_host(machine.fingerprint(), memo, size, target)
            if events % 500 == 0:
                index.assert_consistent(fleet.hosts)
            peak_storage = max(
                peak_storage,
                sum(
                    len(bucket.heap)
                    for bucket in index._states[machine.fingerprint()].values()
                ),
            )
        index.assert_consistent(fleet.hosts)
        # Lazy-deletion heaps are compacted once stale ids outnumber
        # live ones, so storage is O(hosts) however long the run.
        assert peak_storage <= 2 * len(fleet.hosts)
        targets = {target for _, target in queries}
        assert len(memo._states) <= (
            2**machine.n_nodes * machine.n_nodes * len(targets)
        )
        # ... and it is the states, not the events, that fill the memo.
        assert len(memo._states) <= 2**machine.n_nodes * len(queries)


def _decision_fingerprints(report):
    out = []
    for graded in report.decisions:
        decision = graded.decision
        out.append(
            (
                decision.request.request_id,
                decision.host_id,
                None
                if decision.placement is None
                else (
                    decision.placement.nodes,
                    decision.placement.l2_share,
                ),
                decision.placement_id,
                decision.block_exact,
                decision.reject_reason,
                graded.achieved_relative,
                graded.violated,
            )
        )
    return out


#: The production policy, and its linear-scan oracle, of each policy.
_FIRST_FIT = (FirstFitFleetPolicy, LinearFirstFitPolicy)
_SPREAD = (SpreadFleetPolicy, LinearSpreadPolicy)
_ML = (
    lambda: GoalAwareFleetPolicy(ModelRegistry(seed=5)),
    lambda: LinearGoalAwarePolicy(ModelRegistry(seed=5)),
)


class TestIndexedLinearEquivalence:
    """Production and linear-oracle scans must be decision-for-decision
    identical."""

    @pytest.mark.parametrize(
        "policy_factories",
        [_FIRST_FIT, _SPREAD, _ML],
        ids=["first-fit", "spread", "ml"],
    )
    def test_one_shot_reference_stream(self, policy_factories):
        # Mixed shapes, awkward sizes (10 has no important placement on
        # AMD), and enough requests to fill hosts and hit capacity paths.
        requests = generate_request_stream(
            120, seed=3, vcpus_choices=(4, 8, 16, 10)
        )
        production, oracle = policy_factories
        indexed = one_shot_engine(_mixed_fleet(), production()).run(
            requests, window=32
        )
        linear = one_shot_engine(_mixed_fleet(), oracle()).run(
            requests, window=32
        )
        assert _decision_fingerprints(indexed) == _decision_fingerprints(
            linear
        )
        assert indexed.thread_utilization == linear.thread_utilization
        assert indexed.node_utilization == linear.node_utilization

    @pytest.mark.parametrize(
        "policy_factories", [_SPREAD, _ML], ids=["spread", "ml"]
    )
    def test_churn_reference_stream(self, policy_factories):
        requests = generate_churn_stream(
            100,
            seed=11,
            arrival_rate=1.0,
            mean_lifetime=25.0,
            heavy_tail=True,
            vcpus_choices=(8, 8, 8, 32),
        )

        def run(policy_factory):
            return LifecycleScheduler(
                Fleet.homogeneous(amd_opteron_6272(), 4),
                policy_factory(),
                config=RebalanceConfig(),
            ).run(requests)

        indexed, linear = map(run, policy_factories)
        assert _decision_fingerprints(indexed) == _decision_fingerprints(
            linear
        )
        assert [
            (m.request_id, m.source_host, m.dest_host, m.engine)
            for m in indexed.churn.migrations
        ] == [
            (m.request_id, m.source_host, m.dest_host, m.engine)
            for m in linear.churn.migrations
        ]
        assert (
            indexed.churn.fragmentation_timeline
            == linear.churn.fragmentation_timeline
        )

    def test_index_consistent_after_churn(self):
        requests = generate_churn_stream(
            80, seed=2, arrival_rate=1.0, mean_lifetime=20.0
        )
        fleet = Fleet.homogeneous(amd_opteron_6272(), 3)
        LifecycleScheduler(
            fleet, SpreadFleetPolicy(), config=RebalanceConfig()
        ).run(requests)
        fleet.index.assert_consistent(fleet.hosts)


class TestModelServerEquivalence:
    """With online learning off, a ModelServer is the registry: every
    indexed decision must stay bit-for-bit identical to the frozen
    pipeline's on the reference streams (the PR-3 equivalence contract,
    extended across the serving refactor)."""

    def test_one_shot_reference_stream(self):
        from repro.serving import ModelServer

        requests = generate_request_stream(
            120, seed=3, vcpus_choices=(4, 8, 16, 10)
        )

        def run(registry):
            return one_shot_engine(
                _mixed_fleet(), GoalAwareFleetPolicy(registry)
            ).run(requests, window=32)

        served = run(ModelServer(seed=5))
        frozen = run(ModelRegistry(seed=5))
        assert _decision_fingerprints(served) == _decision_fingerprints(
            frozen
        )

    def test_churn_reference_stream(self):
        from repro.serving import ModelServer

        requests = generate_churn_stream(
            100,
            seed=11,
            arrival_rate=1.0,
            mean_lifetime=25.0,
            heavy_tail=True,
            vcpus_choices=(8, 8, 8, 32),
        )

        def run(registry):
            return LifecycleScheduler(
                Fleet.homogeneous(amd_opteron_6272(), 4),
                GoalAwareFleetPolicy(registry),
                config=RebalanceConfig(),
            ).run(requests)

        served = run(ModelServer(seed=5))
        frozen = run(ModelRegistry(seed=5))
        assert _decision_fingerprints(served) == _decision_fingerprints(
            frozen
        )
        assert (
            served.churn.fragmentation_timeline
            == frozen.churn.fragmentation_timeline
        )


class TestGradingIpcMemo:
    """The grading denominator (and deterministic numerator) must be
    simulated once per distinct key, not once per placed container."""

    def test_baseline_ipc_cached_per_key(self, monkeypatch):
        registry = ModelRegistry(seed=0)
        machine = amd_opteron_6272()
        registry.model(machine, 8)  # prefit: training sims don't count
        simulator = registry.simulator(machine)
        calls = {"n": 0}
        original = type(simulator).measured_ipc
        original_batch = type(simulator).measured_ipc_batch

        def counting(self, *args, **kwargs):
            calls["n"] += 1
            return original(self, *args, **kwargs)

        def counting_batch(self, profiles, placements, *args, **kwargs):
            # Probe misses run the scalar path; a grid cell here would be
            # a second miss path, and is counted like one.
            calls["n"] += len(profiles) * len(placements)
            return original_batch(self, profiles, placements, *args, **kwargs)

        monkeypatch.setattr(type(simulator), "measured_ipc", counting)
        monkeypatch.setattr(
            type(simulator), "measured_ipc_batch", counting_batch
        )
        requests = generate_request_stream(
            30, seed=4, vcpus_choices=(8,), goal_choices=(0.9,)
        )
        fleet = Fleet.homogeneous(machine, 4)
        report = one_shot_engine(
            fleet, GoalAwareFleetPolicy(registry), registry=registry
        ).run(requests, window=64)
        placed = report.placed
        assert placed > 10
        # Without the memo the grader alone would run 2 simulations per
        # placed container; with it, noise-free runs happen once per
        # distinct (shape, profile, placement) / (shape, vcpus, profile).
        info = registry.ipc_cache_info()
        assert info.hits > 0
        assert calls["n"] < 2 * placed
        assert calls["n"] == info.misses

    def test_memoized_grades_equal_unmemoized(self):
        requests = generate_request_stream(
            25, seed=9, vcpus_choices=(8, 16)
        )

        def run(registry):
            return one_shot_engine(
                Fleet.homogeneous(amd_opteron_6272(), 4),
                GoalAwareFleetPolicy(registry),
                registry=registry,
            ).run(requests, window=64)

        assert _decision_fingerprints(
            run(ModelRegistry(seed=0))
        ) == _decision_fingerprints(run(UnmemoizedRegistry(seed=0)))
