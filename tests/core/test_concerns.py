"""Unit tests for scheduling concerns and score vectors."""

import pytest

from repro.core import (
    BandwidthConcern,
    ConcernSet,
    CountingConcern,
    Placement,
    ScoreVector,
    concerns_for,
)
from repro.topology import (
    amd_epyc_zen,
    amd_opteron_6272,
    intel_xeon_e7_4830_v3,
)


@pytest.fixture(scope="module")
def amd():
    return amd_opteron_6272()


@pytest.fixture(scope="module")
def intel():
    return intel_xeon_e7_4830_v3()


class TestScoreVector:
    def test_round_trips_entries(self):
        v = ScoreVector([("l2", 8), ("l3", 2), ("interconnect", 3250.0)])
        assert v["l2"] == 8
        assert v.names == ("l2", "l3", "interconnect")
        assert v.values == (8.0, 2.0, 3250.0)
        assert v.as_dict() == {"l2": 8.0, "l3": 2.0, "interconnect": 3250.0}

    def test_equality_and_hash(self):
        a = ScoreVector([("l2", 8), ("l3", 2)])
        b = ScoreVector([("l2", 8.0), ("l3", 2.0)])
        assert a == b
        assert hash(a) == hash(b)

    def test_rounding_makes_float_noise_equal(self):
        a = ScoreVector([("ic", 35000.00004)])
        b = ScoreVector([("ic", 35000.00001)])
        assert a == b

    def test_order_matters(self):
        a = ScoreVector([("l2", 8), ("l3", 2)])
        b = ScoreVector([("l3", 2), ("l2", 8)])
        assert a != b

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            ScoreVector([("l2", 1), ("l2", 2)])

    def test_missing_name_raises_key_error(self):
        with pytest.raises(KeyError):
            ScoreVector([("l2", 8)])["nope"]

    def test_contains(self):
        assert "l2" in ScoreVector([("l2", 8)])


class TestCountingConcern:
    def test_possible_scores_amd_l3(self):
        # Paper, Section 4: L3 scores for 16 vCPUs on the AMD machine are
        # {2, 4, 8}.
        concern = CountingConcern("l3", count=8, capacity=8, resources=("L3",))
        assert concern.possible_scores(16) == [2, 4, 8]

    def test_possible_scores_amd_l2(self):
        # L2 scores are {8, 16}.
        concern = CountingConcern("l2", count=32, capacity=2, resources=("L2",))
        assert concern.possible_scores(16) == [8, 16]

    def test_possible_scores_intel(self):
        l3 = CountingConcern("l3", count=4, capacity=24, resources=("L3",))
        assert l3.possible_scores(24) == [1, 2, 3, 4]
        l2 = CountingConcern("l2", count=48, capacity=2, resources=("L2",))
        assert l2.possible_scores(24) == [12, 24]

    def test_rejects_invalid_shape(self):
        with pytest.raises(ValueError):
            CountingConcern("l2", count=0, capacity=2, resources=())

    def test_score_dispatch(self, amd):
        p = Placement.balanced(amd, [0, 1], 16, use_smt=True)
        l2 = CountingConcern("l2", count=32, capacity=2, resources=("L2",))
        l3 = CountingConcern("l3", count=8, capacity=8, resources=("L3",))
        assert l2.score(p) == 8
        assert l3.score(p) == 2

    def test_unknown_name_cannot_score(self, amd):
        p = Placement.balanced(amd, [0, 1], 16, use_smt=True)
        with pytest.raises(ValueError):
            CountingConcern("weird", count=1, capacity=1, resources=()).score(p)


class TestBandwidthConcern:
    def test_scores_from_interconnect(self, amd):
        concern = BandwidthConcern(amd)
        p = Placement.balanced(amd, range(8), 16, use_smt=False)
        assert concern.score(p) == pytest.approx(35_000.0)

    def test_table_overrides_model(self, amd):
        table = {frozenset([0, 1]): 123.0}
        concern = BandwidthConcern(amd, bandwidth_table=table)
        p = Placement.balanced(amd, [0, 1], 16, use_smt=True)
        assert concern.score(p) == 123.0

    def test_flags(self, amd):
        concern = BandwidthConcern(amd)
        assert not concern.affects_cost
        assert not concern.inverse_performance_possible


class TestConcernsFor:
    def test_amd_matches_table1(self, amd):
        concerns = concerns_for(amd)
        assert [c.name for c in concerns] == ["l2", "l3", "interconnect"]
        l2 = concerns.counting("l2")
        assert l2.count == 32 and l2.capacity == 2
        l3 = concerns.counting("l3")
        assert l3.count == 8 and l3.capacity == 8
        assert concerns["l2"].affects_cost
        assert concerns["l3"].inverse_performance_possible
        assert not concerns["interconnect"].affects_cost

    def test_intel_has_no_interconnect_concern(self, intel):
        concerns = concerns_for(intel)
        assert [c.name for c in concerns] == ["l2", "l3"]
        assert concerns.bandwidth_concern is None

    def test_zen_gets_node_concern(self):
        concerns = concerns_for(amd_epyc_zen())
        assert "node" in concerns

    def test_score_vector_order_is_stable(self, amd):
        concerns = concerns_for(amd)
        p = Placement.balanced(amd, [2, 3], 16, use_smt=True)
        v = concerns.score_vector(p)
        assert v.names == ("l2", "l3", "interconnect")
        assert v.values == (8.0, 2.0, 3250.0)

    def test_table_rendering(self, amd):
        text = concerns_for(amd).table()
        assert "Concern" in text
        assert "interconnect" in text

    def test_counting_accessor_type_checks(self, amd):
        concerns = concerns_for(amd)
        with pytest.raises(TypeError):
            concerns.counting("interconnect")

    def test_concern_set_rejects_duplicates(self, amd):
        c = CountingConcern("l2", count=1, capacity=1, resources=())
        with pytest.raises(ValueError):
            ConcernSet(amd, [c, c])
