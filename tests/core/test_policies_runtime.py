"""Unit tests for placement policies, the packing experiment, and the
scheduler prototype."""

import numpy as np
import pytest

from repro.containers import SimulatedHost, VirtualContainer
from repro.core import (
    AggressivePolicy,
    ConservativePolicy,
    MlPolicy,
    PlacementModel,
    PlacementScheduler,
    SmartAggressivePolicy,
    best_min_node_sets,
    build_training_set,
    evaluate_policy,
)
from repro.perfsim import (
    PerformanceSimulator,
    WorkloadGenerator,
    paper_workloads,
    workload_by_name,
)
from repro.experiments import (
    CANONICAL_PAIRS,
    fitted_model,
    paper_vcpus,
    standard_training_set,
)
from repro.topology import amd_opteron_6272, intel_xeon_e7_4830_v3
from tests.core.oracle_goal_rule import choose_placement


@pytest.fixture(scope="module")
def amd():
    return amd_opteron_6272()


@pytest.fixture(scope="module")
def amd_sim(amd):
    return PerformanceSimulator(amd)


@pytest.fixture(scope="module")
def amd_model(amd):
    """A model on a reduced corpus with the canonical input pair."""
    corpus = paper_workloads() + WorkloadGenerator(seed=7, jitter=0.25).sample(24)
    ts = build_training_set(amd, 16, corpus, baseline_index=CANONICAL_PAIRS["amd-opteron-6272"][0])
    model = PlacementModel(
        input_pair=CANONICAL_PAIRS["amd-opteron-6272"],
        n_estimators=40,
        random_state=0,
    ).fit(ts)
    return model, ts


class TestSimplePolicies:
    def test_conservative_is_one_unpinned_instance(self, amd):
        plan = ConservativePolicy().assignments(amd, workload_by_name("gcc"), 16, 1.0)
        assert plan == [None]

    def test_aggressive_fills_machine(self, amd):
        plan = AggressivePolicy().assignments(amd, workload_by_name("gcc"), 16, 1.0)
        assert plan == [None] * 4

    def test_smart_aggressive_pins_disjoint_min_sets(self, amd):
        plan = SmartAggressivePolicy().assignments(
            amd, workload_by_name("gcc"), 16, 1.0
        )
        assert len(plan) == 4
        seen = set()
        for placement in plan:
            assert placement.n_nodes == 2  # 16 vCPUs need >= 2 AMD nodes
            assert not (seen & set(placement.nodes))
            seen |= set(placement.nodes)

    def test_smart_aggressive_prefers_best_interconnect(self, amd):
        plan = SmartAggressivePolicy().assignments(
            amd, workload_by_name("gcc"), 16, 1.0
        )
        node_sets = {tuple(p.nodes) for p in plan}
        # The best pair partition on the calibrated AMD topology uses the
        # two A-links and the two C-links.
        assert (2, 3) in node_sets
        assert (4, 5) in node_sets


class TestBestMinNodeSets:
    def test_single_node_sets(self, amd):
        assert best_min_node_sets(amd, 1, 3) == [(0,), (1,), (2,)]

    def test_pair_partition_maximizes_bandwidth(self, amd):
        sets = best_min_node_sets(amd, 2, 4)
        ic = amd.interconnect
        total = sum(ic.aggregate_bandwidth(s) for s in sets)
        # A,A,C,C is the best full-pair partition: 2*3250 + 2*1500.
        assert total == pytest.approx(9500.0)

    def test_too_many_sets_rejected(self, amd):
        with pytest.raises(ValueError):
            best_min_node_sets(amd, 4, 3)


class TestMlPolicy:
    def test_choose_placement_meets_goal(self, amd, amd_sim, amd_model):
        model, ts = amd_model
        policy = MlPolicy(model, ts.placements, amd_sim)
        chosen = policy.choose_placement(workload_by_name("WTbtree"), 1.0)
        vector = policy.predict_vector(workload_by_name("WTbtree"))
        index = ts.placements.placements.index(chosen)
        assert vector[index] >= 1.0

    def test_choice_is_the_former_rule(self, amd_sim, amd_model):
        """The shared goal rule picks what the policy's own body picked,
        the best prediction included when no placement meets the goal."""
        model, ts = amd_model
        policy = MlPolicy(model, ts.placements, amd_sim)
        sizes = [placement.n_nodes for placement in policy.placements]
        for name in ("WTbtree", "swaptions", "gcc"):
            vector = policy.predict_vector(workload_by_name(name))
            for goal in (0.5, 0.9, 1.0, 1.1, 99.0):
                threshold = goal * (1.0 + policy.safety_margin)
                expected = policy.placements[choose_placement(sizes, vector, threshold)]
                assert policy.choose_placement(workload_by_name(name), goal) is expected

    def test_impossible_goal_falls_back_to_best(self, amd, amd_sim, amd_model):
        model, ts = amd_model
        policy = MlPolicy(model, ts.placements, amd_sim)
        plan = policy.assignments(amd, workload_by_name("swaptions"), 16, 99.0)
        assert len(plan) == 1  # single best-effort instance

    def test_assignments_are_disjoint(self, amd, amd_sim, amd_model):
        model, ts = amd_model
        policy = MlPolicy(model, ts.placements, amd_sim)
        plan = policy.assignments(amd, workload_by_name("gcc"), 16, 0.9)
        seen = set()
        for placement in plan:
            assert not (seen & set(placement.nodes))
            seen |= set(placement.nodes)

    def test_ml_meets_goal_in_packing_experiment(self, amd, amd_sim, amd_model):
        model, ts = amd_model
        baseline = ts.placements[model.input_pair[0]]
        for wname in ("WTbtree", "gcc"):
            outcome = evaluate_policy(
                MlPolicy(model, ts.placements, amd_sim),
                amd,
                workload_by_name(wname),
                16,
                goal_fraction=0.9,
                baseline_placement=baseline,
                simulator=amd_sim,
            )
            assert outcome.meets_goal, f"{wname}: {outcome.violations_pct}%"
            assert outcome.instances >= 1


class TestEvaluatePolicy:
    def test_outcome_metrics(self, amd, amd_sim):
        baseline = None
        from repro.core import Placement

        baseline = Placement.balanced(amd, [0, 1], 16, use_smt=True)
        outcome = evaluate_policy(
            AggressivePolicy(),
            amd,
            workload_by_name("streamcluster"),
            16,
            goal_fraction=1.0,
            baseline_placement=baseline,
            simulator=amd_sim,
        )
        assert outcome.instances == 4
        assert len(outcome.achieved) == 4
        assert outcome.violations_pct >= 0

    def test_aggressive_violates_more_than_ml(self, amd, amd_sim, amd_model):
        model, ts = amd_model
        baseline = ts.placements[model.input_pair[0]]
        wt = workload_by_name("WTbtree")
        ml = evaluate_policy(
            MlPolicy(model, ts.placements, amd_sim),
            amd, wt, 16,
            goal_fraction=1.0,
            baseline_placement=baseline,
            simulator=amd_sim,
        )
        aggressive = evaluate_policy(
            AggressivePolicy(),
            amd, wt, 16,
            goal_fraction=1.0,
            baseline_placement=baseline,
            simulator=amd_sim,
        )
        assert aggressive.violations_pct > ml.violations_pct

    def test_bad_goal_rejected(self, amd, amd_sim):
        from repro.core import Placement

        with pytest.raises(ValueError):
            evaluate_policy(
                ConservativePolicy(),
                amd,
                workload_by_name("gcc"),
                16,
                goal_fraction=0.0,
                baseline_placement=Placement.balanced(amd, [0, 1], 16, use_smt=True),
                simulator=amd_sim,
            )


class TestScheduler:
    def test_end_to_end_placement(self, amd, amd_sim, amd_model):
        model, ts = amd_model
        host = SimulatedHost(amd, simulator=amd_sim)
        scheduler = PlacementScheduler(host, model, ts.placements)
        c = VirtualContainer(workload_by_name("WTbtree"), 16)
        report = scheduler.place(c, goal_fraction=1.0)
        assert report.chosen_placement in list(ts.placements)
        assert report.predicted_relative >= 1.0
        assert report.migration.recommended in {"fast", "throttled", "offline"}
        assert "chose placement" in report.summary()
        # The container ended up deployed in the chosen placement.
        deployment = host.deployments[0]
        assert deployment.placement == report.chosen_placement

    def test_goalless_placement_maximizes_prediction(self, amd, amd_sim, amd_model):
        model, ts = amd_model
        host = SimulatedHost(amd, simulator=amd_sim)
        scheduler = PlacementScheduler(host, model, ts.placements)
        c = VirtualContainer(workload_by_name("streamcluster"), 16)
        report = scheduler.place(c)
        assert report.predicted_relative == pytest.approx(
            float(np.max(report.predicted_vector))
        )

    def test_vcpu_mismatch_rejected(self, amd, amd_sim, amd_model):
        model, ts = amd_model
        host = SimulatedHost(amd, simulator=amd_sim)
        scheduler = PlacementScheduler(host, model, ts.placements)
        with pytest.raises(ValueError, match="vCPUs"):
            scheduler.place(VirtualContainer(workload_by_name("gcc"), 8))

    def test_unfitted_model_rejected(self, amd, amd_sim, amd_model):
        _, ts = amd_model
        host = SimulatedHost(amd, simulator=amd_sim)
        with pytest.raises(ValueError, match="fitted"):
            PlacementScheduler(host, PlacementModel(), ts.placements)


class TestExperimentsModule:
    def test_paper_vcpus(self, amd):
        assert paper_vcpus(amd) == 16
        assert paper_vcpus(intel_xeon_e7_4830_v3()) == 24

    def test_fitted_model_uses_canonical_pair(self, amd):
        corpus = paper_workloads() + WorkloadGenerator(seed=7, jitter=0.25).sample(12)
        ts = standard_training_set(amd, workloads=corpus)
        model, _ = fitted_model(amd, ts)
        assert model.input_pair == CANONICAL_PAIRS["amd-opteron-6272"]
