"""Tests for the trace store and placement observations."""

import pytest

from repro.perfsim.library import paper_workloads
from repro.serving import PlacementObservation, TraceStore


def _observation(
    request_id=1,
    *,
    time=0.0,
    fingerprint=("shape-a",),
    vcpus=8,
    predicted=1.1,
    achieved=1.0,
    version=1,
):
    return PlacementObservation(
        time=time,
        request_id=request_id,
        fingerprint=fingerprint,
        vcpus=vcpus,
        profile=paper_workloads()[request_id % 18],
        placement_id=3,
        probe_i=0.8,
        probe_j=1.2,
        predicted_relative=predicted,
        achieved_relative=achieved,
        model_version=version,
    )


class TestPlacementObservation:
    def test_error_fraction(self):
        obs = _observation(predicted=1.2, achieved=1.0)
        assert obs.error_fraction == pytest.approx(0.2)

    def test_describe_mentions_versions_and_error(self):
        text = _observation(predicted=1.1, achieved=1.0).describe()
        assert "v1" in text
        assert "req#1" in text


class TestTraceStore:
    def test_partitions_by_shape_and_vcpus(self):
        store = TraceStore()
        store.record(_observation(1, fingerprint=("a",), vcpus=8))
        store.record(_observation(2, fingerprint=("a",), vcpus=16))
        store.record(_observation(3, fingerprint=("b",), vcpus=8))
        assert len(store) == 3
        assert len(store._partitions) == 3
        assert [o.request_id for o in store.recent(("a",), 8)] == [1]

    def test_bounded_eviction_oldest_first(self):
        store = TraceStore(capacity_per_partition=3)
        for request_id in range(1, 6):
            store.record(_observation(request_id))
        assert store.recorded == 5
        assert "5 recorded, 2 evicted" in store.describe()
        assert [o.request_id for o in store.recent(("shape-a",), 8)] == [
            3,
            4,
            5,
        ]

    def test_recent_with_limit_returns_newest_oldest_first(self):
        store = TraceStore()
        for request_id in range(1, 6):
            store.record(_observation(request_id))
        assert [
            o.request_id for o in store.recent(("shape-a",), 8, n=2)
        ] == [4, 5]

    def test_recent_unknown_partition_is_empty(self):
        assert TraceStore().recent(("nope",), 8) == []

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            TraceStore(capacity_per_partition=0)

    def test_describe(self):
        store = TraceStore()
        store.record(_observation(1))
        assert "1 observations" in store.describe()
