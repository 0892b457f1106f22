"""Unit tests for the performance simulator, including the Figure-1
reproduction targets."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import Placement, important_placements
from repro.perfsim import (
    PerformanceSimulator,
    paper_workloads,
    workload_by_name,
)
from repro.perfsim.simulator import _stable_seed
from repro.topology import amd_opteron_6272, intel_xeon_e7_4830_v3


@pytest.fixture(scope="module")
def amd():
    return amd_opteron_6272()


@pytest.fixture(scope="module")
def intel():
    return intel_xeon_e7_4830_v3()


@pytest.fixture(scope="module")
def amd_sim(amd):
    return PerformanceSimulator(amd)


@pytest.fixture(scope="module")
def intel_sim(intel):
    return PerformanceSimulator(intel)


class TestBasics:
    def test_throughput_positive(self, amd_sim, amd):
        p = Placement.balanced(amd, [0, 1], 16, use_smt=True)
        for profile in paper_workloads():
            assert amd_sim.throughput(profile, p, noise=False) > 0

    def test_breakdown_factors_bounded(self, amd_sim, amd):
        p = Placement.balanced(amd, range(4), 16, use_smt=False)
        for profile in paper_workloads():
            factors = amd_sim.breakdown(profile, p)
            for name, value in factors.items():
                assert 0 < value <= 1.2, f"{profile.name}.{name} = {value}"

    def test_noise_is_deterministic(self, amd_sim, amd):
        p = Placement.balanced(amd, [0, 1], 16, use_smt=True)
        w = workload_by_name("gcc")
        a = amd_sim.throughput(w, p, repetition=3)
        b = amd_sim.throughput(w, p, repetition=3)
        assert a == b

    def test_repetitions_differ(self, amd_sim, amd):
        p = Placement.balanced(amd, [0, 1], 16, use_smt=True)
        w = workload_by_name("gcc")
        assert amd_sim.throughput(w, p, repetition=0) != amd_sim.throughput(
            w, p, repetition=1
        )

    def test_longer_measurements_are_less_noisy(self, amd_sim, amd):
        p = Placement.balanced(amd, [0, 1], 16, use_smt=True)
        w = workload_by_name("gcc")
        true = amd_sim.throughput(w, p, noise=False)
        short = [
            amd_sim.throughput(w, p, duration_s=1.0, repetition=i)
            for i in range(40)
        ]
        long = [
            amd_sim.throughput(w, p, duration_s=100.0, repetition=i)
            for i in range(40)
        ]
        assert np.std(short) > np.std(long)
        assert np.mean(long) == pytest.approx(true, rel=0.02)

    def test_placement_for_wrong_machine_rejected(self, amd_sim, intel):
        p = Placement.balanced(intel, [0], 24, use_smt=True)
        with pytest.raises(ValueError, match="simulator"):
            amd_sim.throughput(workload_by_name("gcc"), p)

    def test_run_returns_breakdown(self, amd_sim, amd):
        p = Placement.balanced(amd, [0, 1], 16, use_smt=True)
        run = amd_sim.run(workload_by_name("gcc"), p, noise=False)
        assert run.throughput == pytest.approx(
            amd_sim.throughput(workload_by_name("gcc"), p, noise=False)
        )
        assert set(run.factors) == {
            "smt",
            "cache",
            "membw",
            "interconnect",
            "comm_latency",
        }


class TestNoiseSeed:
    def test_cached_prefix_equals_the_seven_part_seed(self, amd):
        """The CRC of the seed text is continued from a prefix cached per
        (profile name, placement); every draw equals the one seeded by
        hashing all seven parts afresh — also for a profile whose name
        holds the separator."""
        simulator = PerformanceSimulator(amd, seed=5)
        profiles = paper_workloads()[:4] + [
            replace(workload_by_name("gcc"), name="a|b|"),
            replace(workload_by_name("gcc"), name="|"),
        ]
        placements = list(important_placements(amd, 16))[:5] + [
            Placement.balanced(amd, range(8), 16, use_smt=False)
        ]
        rng = np.random.default_rng(0)
        draws = 0
        for profile in profiles:
            for placement in placements:
                for _ in range(300):
                    repetition = int(rng.integers(0, 2**40))
                    extra = int(rng.integers(0, 50))
                    seed = _stable_seed(
                        simulator.seed,
                        amd.name,
                        profile.name,
                        placement.nodes,
                        placement.l2_share,
                        repetition,
                        extra,
                    )
                    sigma = profile.phase_noise / np.sqrt(3.0 / 10.0)
                    expected = float(
                        np.exp(np.random.default_rng(seed).normal(0.0, sigma))
                    )
                    assert expected == simulator._noise_multiplier(
                        profile, placement, 3.0, repetition, extra=extra
                    )
                    draws += 1
        assert draws >= 10_000
        # One table per placement, one prefix per profile name in it.
        assert len(simulator._noise_prefixes) == len(placements)
        assert all(
            len(table) == len(profiles)
            for table in simulator._noise_prefixes.values()
        )

    def test_prefix_memo_starts_over_when_full(self, amd, monkeypatch):
        """A stream of one-off workload names cannot grow the memo past
        its bound, and a dropped prefix is recomputed to the same seed."""
        placement = Placement.balanced(amd, [0, 1], 16, use_smt=True)
        profiles = [
            replace(workload_by_name("gcc"), name=f"one-off-{k}")
            for k in range(8)
        ]
        unbounded = PerformanceSimulator(amd, seed=5)
        expected = [
            unbounded._noise_multiplier(profile, placement, 3.0, k)
            for k, profile in enumerate(profiles)
        ]
        monkeypatch.setattr("repro.perfsim.simulator._NOISE_PREFIX_MAX", 3)
        bounded = PerformanceSimulator(amd, seed=5)
        held = bounded.noise_prefixes(placement)  # as a policy lane does
        for _ in range(2):
            for k, profile in enumerate(profiles):
                assert expected[k] == bounded._noise_multiplier(
                    profile, placement, 3.0, k
                )
                assert len(held) <= 3
        # Starting over empties the tables in place: a held one is still
        # the one the simulator reads and fills.
        assert bounded.noise_prefixes(placement) is held and held


class TestPerformanceVector:
    def test_baseline_entry_is_one(self, amd_sim, amd):
        placements = important_placements(amd, 16)
        vec = amd_sim.performance_vector(
            workload_by_name("gcc"), placements, baseline_index=0
        )
        assert vec[0] == pytest.approx(1.0)
        assert len(vec) == 13

    def test_baseline_index_validated(self, amd_sim, amd):
        placements = important_placements(amd, 16)
        with pytest.raises(ValueError):
            amd_sim.performance_vector(
                workload_by_name("gcc"), placements, baseline_index=13
            )

    def test_empty_placements_rejected(self, amd_sim):
        with pytest.raises(ValueError):
            amd_sim.performance_vector(workload_by_name("gcc"), [])


class TestFigure1Claims:
    """The motivating experiment (Figure 1) reproduced in shape."""

    def test_intel_single_node_wins(self, intel_sim, intel):
        wt = workload_by_name("WTbtree")
        results = {}
        for n in (1, 2, 4):
            for smt in (True, False):
                try:
                    p = Placement.balanced(intel, range(n), 24, use_smt=smt)
                except ValueError:
                    continue
                results[(n, smt)] = intel_sim.throughput(wt, p, noise=False)
        best = max(results, key=results.get)
        assert best == (1, True)
        # "performs significantly better when all of its threads run on a
        # single node"
        runner_up = max(v for k, v in results.items() if k != (1, True))
        assert results[(1, True)] / runner_up > 1.1

    def test_amd_four_nodes_beat_two_only_without_smt(self, amd_sim, amd):
        wt = workload_by_name("WTbtree")
        two_smt = amd_sim.throughput(
            wt, Placement.balanced(amd, [2, 3], 16, use_smt=True), noise=False
        )
        four_smt = amd_sim.throughput(
            wt,
            Placement.balanced(amd, [2, 3, 4, 5], 16, use_smt=True),
            noise=False,
        )
        four_nosmt = amd_sim.throughput(
            wt,
            Placement.balanced(amd, [2, 3, 4, 5], 16, use_smt=False),
            noise=False,
        )
        assert four_nosmt > two_smt  # 4 nodes win without SMT
        assert four_smt < two_smt  # ... but not with SMT

    def test_amd_eight_nodes_buy_nothing(self, amd_sim, amd):
        wt = workload_by_name("WTbtree")
        four = amd_sim.throughput(
            wt,
            Placement.balanced(amd, [2, 3, 4, 5], 16, use_smt=False),
            noise=False,
        )
        eight = amd_sim.throughput(
            wt, Placement.balanced(amd, range(8), 16, use_smt=False), noise=False
        )
        assert eight <= four * 1.02


class TestWorkloadSignatures:
    def test_kmeans_prefers_smt_on_amd(self, amd_sim, amd):
        km = workload_by_name("kmeans")
        smt = amd_sim.throughput(
            km, Placement.balanced(amd, [2, 3, 4, 5], 16, use_smt=True), noise=False
        )
        nosmt = amd_sim.throughput(
            km,
            Placement.balanced(amd, [2, 3, 4, 5], 16, use_smt=False),
            noise=False,
        )
        assert smt > nosmt

    def test_most_workloads_do_not_prefer_smt_on_amd(self, amd_sim, amd):
        # kmeans was "the only benchmark in our training set that preferred
        # SMT" (Section 6).
        preferring = []
        for profile in paper_workloads():
            smt = amd_sim.throughput(
                profile,
                Placement.balanced(amd, [2, 3, 4, 5], 16, use_smt=True),
                noise=False,
            )
            nosmt = amd_sim.throughput(
                profile,
                Placement.balanced(amd, [2, 3, 4, 5], 16, use_smt=False),
                noise=False,
            )
            if smt > nosmt:
                preferring.append(profile.name)
        assert preferring == ["kmeans"]

    def test_streamcluster_spans_wide_range_on_amd(self, amd_sim, amd):
        sc = workload_by_name("streamcluster")
        placements = important_placements(amd, 16)
        vec = amd_sim.performance_vector(
            sc, placements, baseline_index=len(placements) - 1
        )
        assert vec.min() < 0.25  # the 0.0-1.0 spread of its Figure 4 panel

    def test_swaptions_is_placement_insensitive_within_smt_class(
        self, amd_sim, amd
    ):
        sw = workload_by_name("swaptions")
        placements = [
            p for p in important_placements(amd, 16) if not p.uses_smt
        ]
        values = [
            amd_sim.throughput(sw, p, noise=False) for p in placements
        ]
        assert max(values) / min(values) < 1.05


class TestColocated:
    def test_single_assignment_matches_solo(self, amd_sim, amd):
        w = workload_by_name("gcc")
        p = Placement.balanced(amd, [0, 1], 16, use_smt=True)
        solo = amd_sim.throughput(w, p, noise=False)
        shared = amd_sim.simulate_colocated([(w, p)], noise=False)[0]
        assert shared == pytest.approx(solo, rel=0.01)

    def test_disjoint_containers_do_not_interfere_much(self, amd_sim, amd):
        w = workload_by_name("gcc")
        a = Placement.balanced(amd, [0, 1], 16, use_smt=True)
        b = Placement.balanced(amd, [2, 3], 16, use_smt=True)
        solo = amd_sim.throughput(w, a, noise=False)
        shared = amd_sim.simulate_colocated([(w, a), (w, b)], noise=False)
        assert shared[0] == pytest.approx(solo, rel=0.05)

    def test_node_sharing_hurts(self, amd_sim, amd):
        w = workload_by_name("streamcluster")
        p = Placement.balanced(amd, range(8), 16, use_smt=False)
        solo = amd_sim.simulate_colocated([(w, p)], noise=False)[0]
        four = amd_sim.simulate_colocated([(w, p)] * 4, noise=False)
        assert all(v < solo for v in four)

    def test_oversubscription_time_shares(self, intel_sim, intel):
        w = workload_by_name("swaptions")
        p = Placement.balanced(intel, range(4), 96, use_smt=True)
        solo = intel_sim.simulate_colocated([(w, p)], noise=False)[0]
        doubled = intel_sim.simulate_colocated([(w, p)] * 2, noise=False)
        assert doubled[0] < solo * 0.7  # 192 threads on 96 contexts

    def test_empty_assignment_rejected(self, amd_sim):
        with pytest.raises(ValueError):
            amd_sim.simulate_colocated([])
