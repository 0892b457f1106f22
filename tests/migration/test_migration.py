"""Unit tests for the migration substrate, including Table-2 claims."""

import pytest

from repro.migration import (
    ContainerMemory,
    DefaultLinuxMigrator,
    FastMigrator,
    MigrationCostConstants,
    MigrationPlanner,
    ThrottledMigrator,
)
from repro.perfsim import paper_workloads, workload_by_name


def memory_of(name):
    return ContainerMemory.from_profile(workload_by_name(name))


class TestContainerMemory:
    def test_from_profile_splits_page_cache(self):
        mem = memory_of("BLAST")
        assert mem.total_gb == pytest.approx(18.5)
        assert mem.page_cache_fraction == pytest.approx(0.93)

    def test_rejects_empty_memory(self):
        with pytest.raises(ValueError):
            ContainerMemory(0.0, 0.0, 1, 1)

    def test_rejects_more_processes_than_tasks(self):
        with pytest.raises(ValueError):
            ContainerMemory(1.0, 0.0, 2, 5)

    def test_rejects_negative_sizes(self):
        with pytest.raises(ValueError):
            ContainerMemory(-1.0, 2.0, 1, 1)


class TestDefaultLinux:
    def test_leaves_page_cache_behind(self):
        result = DefaultLinuxMigrator().migrate(memory_of("BLAST"))
        assert result.left_behind_gb == pytest.approx(18.5 * 0.93)
        assert result.migrated_gb == pytest.approx(18.5 * 0.07)

    def test_many_processes_are_pathological(self):
        # TPC-C (220 server processes) vs a single-process workload of
        # comparable anonymous size (WTbtree): Table 2 shows ~10x.
        tpcc = DefaultLinuxMigrator().migrate(memory_of("postgres-tpcc"))
        wt = DefaultLinuxMigrator().migrate(memory_of("WTbtree"))
        assert tpcc.seconds > 5 * wt.seconds

    def test_stalls_the_application_for_seconds(self):
        result = DefaultLinuxMigrator().migrate(memory_of("WTbtree"))
        assert result.frozen_seconds >= 2.0

    def test_flags(self):
        engine = DefaultLinuxMigrator()
        assert not engine.moves_page_cache
        assert not engine.freezes_container


class TestFastMigrator:
    def test_moves_everything(self):
        result = FastMigrator().migrate(memory_of("BLAST"))
        assert result.migrated_gb == pytest.approx(18.5)
        assert result.left_behind_gb == 0.0

    def test_freezes_for_the_whole_copy(self):
        result = FastMigrator().migrate(memory_of("WTbtree"))
        assert result.frozen_seconds == result.seconds

    def test_large_memory_in_a_few_seconds(self):
        # "We are able to migrate a large amount of memory in a few
        # seconds" — WTbtree is 36.3 GB.
        result = FastMigrator().migrate(memory_of("WTbtree"))
        assert result.seconds < 10.0


class TestTable2Claims:
    """The paper's quantitative migration claims, against the calibrated
    cost model."""

    TABLE2 = {
        "BLAST": (3.0, 5.9),
        "canneal": (0.3, 3.9),
        "fluidanimate": (0.3, 2.3),
        "freqmine": (0.3, 4.2),
        "gcc": (0.3, 2.8),
        "kmeans": (1.5, 6.5),
        "pca": (2.8, 10.0),
        "postgres-tpch": (5.8, 117.1),
        "postgres-tpcc": (14.9, 431.0),
        "spark-cc": (3.7, 139.9),
        "spark-pr-lj": (3.8, 137.0),
        "streamcluster": (0.1, 0.4),
        "swaptions": (0.1, 0.0),
        "ft.C": (1.3, 19.4),
        "dc.B": (5.4, 51.7),
        "wc": (3.4, 19.5),
        "wr": (3.6, 18.9),
        "WTbtree": (6.3, 43.8),
    }

    @pytest.mark.parametrize("name", sorted(TABLE2))
    def test_within_band_of_paper(self, name):
        fast_paper, linux_paper = self.TABLE2[name]
        mem = memory_of(name)
        fast = FastMigrator().migrate(mem).seconds
        linux = DefaultLinuxMigrator().migrate(mem).seconds
        # Shape reproduction: within 2x on every row that is not dominated
        # by sub-second measurement granularity.
        if fast_paper >= 0.2:
            assert 0.5 <= fast / fast_paper <= 2.0
        if linux_paper >= 1.0:
            assert 0.5 <= linux / linux_paper <= 2.0

    def test_spark_speedup_is_an_order_of_magnitude(self):
        # "usually one order of magnitude faster than Default Linux
        # (38x faster for Spark)"
        mem = memory_of("spark-cc")
        ratio = (
            DefaultLinuxMigrator().migrate(mem).seconds
            / FastMigrator().migrate(mem).seconds
        )
        assert ratio > 25

    def test_fast_is_faster_everywhere(self):
        for profile in paper_workloads():
            mem = ContainerMemory.from_profile(profile)
            assert (
                FastMigrator().migrate(mem).seconds
                <= DefaultLinuxMigrator().migrate(mem).seconds + 0.2
            )

    def test_page_cache_share_of_fast_migration(self):
        # 93% of BLAST's migrated bytes are page cache, 75% TPC-C, 62% TPC-H.
        for name, share in [
            ("BLAST", 0.93),
            ("postgres-tpcc", 0.75),
            ("postgres-tpch", 0.62),
        ]:
            result = FastMigrator().migrate(memory_of(name))
            assert result.migrated_gb * share == pytest.approx(
                memory_of(name).page_cache_gb, rel=1e-6
            )


class TestThrottled:
    def test_wiredtiger_section7_numbers(self):
        # "the overhead of migration for the WiredTiger workload is between
        # 3% and 6%, and the migration takes 60 seconds"
        result = ThrottledMigrator().migrate(memory_of("WTbtree"))
        assert result.seconds == pytest.approx(60.0, rel=0.1)
        assert 0.03 <= result.overhead_fraction <= 0.06

    def test_never_freezes(self):
        result = ThrottledMigrator().migrate(memory_of("WTbtree"))
        assert result.frozen_seconds == 0.0

    def test_more_bandwidth_is_faster_but_heavier(self):
        slow = ThrottledMigrator(bandwidth_mbps=300.0).migrate(memory_of("WTbtree"))
        fast = ThrottledMigrator(bandwidth_mbps=1200.0).migrate(memory_of("WTbtree"))
        assert fast.seconds < slow.seconds
        assert fast.overhead_fraction > slow.overhead_fraction

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError):
            ThrottledMigrator(bandwidth_mbps=0.0)


class TestConstants:
    def test_rejects_non_positive_rates(self):
        with pytest.raises(ValueError):
            MigrationCostConstants(linux_base_rate_gbps=0.0)
        with pytest.raises(ValueError):
            MigrationCostConstants(throttle_default_mbps=-5.0)


class TestPlanner:
    def test_latency_sensitive_gets_throttled_engine(self):
        advice = MigrationPlanner().advise(workload_by_name("WTbtree"))
        assert advice.recommended == "throttled"
        assert "latency-sensitive" in advice.reason

    def test_normal_workload_gets_fast_engine(self):
        advice = MigrationPlanner().advise(workload_by_name("gcc"))
        assert advice.recommended == "fast"

    def test_huge_latency_sensitive_container_goes_offline(self):
        # A latency-sensitive container too big to throttle-migrate within
        # the online budget.
        big = workload_by_name("WTbtree").with_overrides(memory_gb=400.0)
        advice = MigrationPlanner(max_online_seconds=60.0).advise(big)
        assert advice.recommended == "offline"
        assert "offline" in advice.reason

    def test_probe_migrations_counted(self):
        advice = MigrationPlanner().advise(
            workload_by_name("gcc"), probe_migrations=3
        )
        assert advice.total_probe_seconds == pytest.approx(
            3 * advice.results["fast"].seconds
        )

    def test_rejects_bad_probe_count(self):
        with pytest.raises(ValueError):
            MigrationPlanner().advise(workload_by_name("gcc"), probe_migrations=0)

    def test_results_include_all_engines(self):
        advice = MigrationPlanner().advise(workload_by_name("gcc"))
        assert set(advice.results) == {"default-linux", "fast", "throttled"}


class TestAdviceMemo:
    """Advice is a pure function of the profile and the probe count, so
    the planner computes it once — the rebalancer asks about every
    container on a host, on every fragmentation reject."""

    def test_repeat_is_the_remembered_object(self):
        planner = MigrationPlanner()
        gcc = workload_by_name("gcc")
        first = planner.advise(gcc, probe_migrations=1)
        assert planner.advise(gcc, probe_migrations=1) is first
        # An equal profile built elsewhere is the same key ...
        assert planner.advise(gcc.with_overrides(), probe_migrations=1) is first
        # ... another probe count or another profile is not.
        assert planner.advise(gcc, probe_migrations=2) is not first
        bigger = gcc.with_overrides(memory_gb=2 * gcc.memory_gb)
        assert planner.advise(bigger, probe_migrations=1).memory.total_gb == (
            pytest.approx(2 * first.memory.total_gb)
        )

    def test_remembered_equals_fresh(self):
        planner = MigrationPlanner()
        for name in ("gcc", "WTbtree", "kmeans"):
            profile = workload_by_name(name)
            planner.advise(profile)
            assert planner.advise(profile) == MigrationPlanner().advise(profile)

    def test_shared_results_are_read_only(self):
        advice = MigrationPlanner().advise(workload_by_name("gcc"))
        with pytest.raises(TypeError):
            advice.results["fast"] = None

    def test_memo_is_bounded(self, monkeypatch):
        from repro.migration import planner as planner_module

        monkeypatch.setattr(planner_module, "_ADVICE_MEMO_MAX", 3)
        planner = MigrationPlanner()
        gcc = workload_by_name("gcc")
        for i in range(10):
            planner.advise(gcc.with_overrides(memory_gb=1.0 + i))
            assert len(planner._advice) <= 3
