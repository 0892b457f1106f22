"""ModelRegistry memo statistics under migration-heavy churn.

The rebalance path re-grades every migrated container through the
registry's IPC memo (``LifecycleScheduler._regrade_migrated``); these
tests pin the counters' contract there: every miss is exactly one
simulator run, re-grades of known keys are hits, and the numbers the memo
serves are the numbers an unmemoized registry computes.
"""

from hypothesis import given, settings, strategies as st

from repro.scheduler import (
    Fleet,
    LifecycleScheduler,
    ModelRegistry,
    RebalanceConfig,
    SpreadFleetPolicy,
    generate_churn_stream,
)
from repro.topology import amd_opteron_6272


def _churn_requests():
    # The reference churn stream that reliably triggers rebalancer
    # migrations on a 4-host AMD fleet (same shape as the CLI churn test).
    return generate_churn_stream(
        100,
        seed=11,
        arrival_rate=1.0,
        mean_lifetime=20.0,
        heavy_tail=True,
        vcpus_choices=(8, 8, 8, 32),
    )


def _run(registry):
    return LifecycleScheduler(
        Fleet.homogeneous(amd_opteron_6272(), 4),
        SpreadFleetPolicy(),
        registry=registry,
        config=RebalanceConfig(),
    ).run(_churn_requests())


class TestMemoStatsUnderMigrationChurn:
    def test_every_miss_is_one_simulator_run(self, monkeypatch):
        registry = ModelRegistry(seed=0)
        machine = amd_opteron_6272()
        simulator = registry.simulator(machine)
        calls = {"n": 0}
        original = type(simulator).measured_ipc

        def counting(self, *args, **kwargs):
            calls["n"] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(type(simulator), "measured_ipc", counting)
        report = _run(registry)

        # The stream must actually exercise the rebalance/regrade path.
        assert report.churn.n_migrations > 0
        info = registry.ipc_cache_info()
        assert calls["n"] == info.misses
        # Every miss inserts exactly one solo-IPC entry.
        assert info.currsize == info.misses
        # Migration re-grades hit keys the original grading populated.
        assert info.hits > 0
        assert report.ipc_cache_info == info

    def test_regrade_hits_instead_of_resimulating(self, monkeypatch):
        """Re-grading a migrated container whose (profile, placement
        score) was already graded must be pure cache hits."""
        registry = ModelRegistry(seed=0)
        report = _run(registry)
        assert report.churn.n_migrations > 0
        hits_before = registry.ipc_cache_info().hits

        # Re-grade every placed decision once more: all keys are known.
        # (A fresh same-shape fleet suffices — grading only reads the
        # host's machine, and fingerprint-equal machines are
        # interchangeable for the memo.)
        from repro.scheduler.scheduler import grade_decision

        fleet = Fleet.homogeneous(amd_opteron_6272(), 4)
        regraded = 0
        for graded in report.decisions:
            if not graded.decision.placed:
                continue
            fresh = grade_decision(graded.decision, fleet, registry)
            assert fresh.achieved_relative == graded.achieved_relative
            regraded += 1
        assert regraded > 0
        info = registry.ipc_cache_info()
        assert info.hits > hits_before
        # No new simulator work for known keys.
        assert info.misses == report.ipc_cache_info.misses

    def test_memoized_stats_match_unmemoized_grades(self):
        memoized = ModelRegistry(seed=0)
        unmemoized = ModelRegistry(seed=0, memoize_ipc=False)
        with_memo = _run(memoized)
        without = _run(unmemoized)
        assert [
            (g.decision.request.request_id, g.achieved_relative, g.violated)
            for g in with_memo.decisions
        ] == [
            (g.decision.request.request_id, g.achieved_relative, g.violated)
            for g in without.decisions
        ]
        # The unmemoized registry records misses only (every call ran the
        # simulator); the memoized one must have strictly fewer runs.
        assert unmemoized.ipc_cache_info().hits == 0
        assert (
            memoized.ipc_cache_info().misses
            < unmemoized.ipc_cache_info().misses
        )


class TestProbeIpcBatch:
    """The vectorized probe helper must be bit-for-bit (values *and*
    accounting) equal to per-request probe_ipc calls."""

    def _setup(self):
        from repro.perfsim import workload_by_name

        machine = amd_opteron_6272()
        registry = ModelRegistry(n_estimators=4, n_synthetic=2, seed=0)
        placements = registry.placements(machine, 16)
        profiles = [
            workload_by_name(name)
            for name in ("gcc", "WTbtree", "gcc", "kmeans", "WTbtree")
        ]
        return machine, registry, placements[0], profiles

    def test_values_and_accounting_match_sequential(self):
        machine, registry, placement, profiles = self._setup()
        repetitions = [3, 4, 5, 6, 7]
        batch = registry.probe_ipc_batch(
            machine, profiles, placement, duration_s=3.0,
            repetitions=repetitions,
        )
        batch_info = registry.ipc_cache_info()

        sequential_registry = ModelRegistry(
            n_estimators=4, n_synthetic=2, seed=0
        )
        sequential = [
            sequential_registry.probe_ipc(
                machine, profile, placement, duration_s=3.0,
                repetition=repetition,
            )
            for profile, repetition in zip(profiles, repetitions)
        ]
        assert batch == sequential and type(batch) is list
        sequential_info = sequential_registry.ipc_cache_info()
        assert batch_info.hits == sequential_info.hits
        assert batch_info.misses == sequential_info.misses

    def test_unmemoized_path_matches(self):
        from repro.perfsim import workload_by_name

        machine = amd_opteron_6272()
        registry = ModelRegistry(
            n_estimators=4, n_synthetic=2, seed=0, memoize_ipc=False
        )
        placement = registry.placements(machine, 16)[0]
        profiles = [workload_by_name("gcc"), workload_by_name("WTbtree")]
        batch = registry.probe_ipc_batch(
            machine, profiles, placement, duration_s=3.0, repetitions=[1, 2]
        )
        expected = [
            registry.simulator(machine).measured_ipc(
                profile, placement, duration_s=3.0, repetition=repetition
            )
            for profile, repetition in zip(profiles, [1, 2])
        ]
        assert batch == expected and type(batch) is list

    def test_misaligned_inputs_rejected(self):
        import pytest

        machine, registry, placement, profiles = self._setup()
        with pytest.raises(ValueError, match="align"):
            registry.probe_ipc_batch(
                machine, profiles, placement, duration_s=3.0,
                repetitions=[1],
            )


# ----------------------------------------------------------------------
# Property tests: the batched probe path against its row-by-row twin
# ----------------------------------------------------------------------


def _profile_pool():
    """Library profiles, noise-free twins of two of them, and one-off
    names (what a jittered stream mints per request)."""
    from dataclasses import replace

    from repro.perfsim import paper_workloads

    library = list(paper_workloads())[:6]
    return (
        library
        + [replace(p, phase_noise=0.0) for p in library[:2]]
        + [replace(library[k % 3], name=f"one-off-{k}") for k in range(8)]
    )


_POOL = _profile_pool()
_rows = st.lists(
    st.tuples(
        st.integers(0, len(_POOL) - 1), st.integers(0, 2**40)
    ),
    max_size=7,
)


class TestNoiseBatch:
    """``measured_ipc_noise_batch`` is ``measured_ipc_noise`` row by row."""

    @settings(max_examples=60, deadline=None)
    @given(
        rows=_rows,
        duration_s=st.sampled_from([0.5, 3.0, 10.0]),
        placement_index=st.integers(0, 3),
    )
    def test_equals_row_by_row(self, rows, duration_s, placement_index):
        from unittest import mock

        from repro.perfsim import PerformanceSimulator

        machine = amd_opteron_6272()
        placement = ModelRegistry().placements(machine, 16)[placement_index]
        profiles = [_POOL[k] for k, _ in rows]
        repetitions = [repetition for _, repetition in rows]
        # A bound of 3 makes the one-off names overflow the prefix memo
        # in the middle of a batch.
        with mock.patch("repro.perfsim.simulator._NOISE_PREFIX_MAX", 3):
            batch = PerformanceSimulator(machine, seed=5).measured_ipc_noise_batch(
                profiles,
                placement,
                duration_s=duration_s,
                repetitions=repetitions,
            )
            simulator = PerformanceSimulator(machine, seed=5)
            sequential = [
                simulator.measured_ipc_noise(
                    profile,
                    placement,
                    duration_s=duration_s,
                    repetition=repetition,
                )
                for profile, repetition in zip(profiles, repetitions)
            ]
        assert batch == sequential
        assert all(type(value) is float for value in batch)

    @settings(max_examples=30, deadline=None)
    @given(rows=_rows, duration_s=st.sampled_from([0.0, -1.0]))
    def test_non_positive_duration_raises_like_the_rows_do(
        self, rows, duration_s
    ):
        """Only a noisy profile ever looks at the duration — a group of
        noise-free ones is all ones, batched or not."""
        import pytest

        from repro.perfsim import PerformanceSimulator

        machine = amd_opteron_6272()
        placement = ModelRegistry().placements(machine, 16)[0]
        simulator = PerformanceSimulator(machine, seed=5)
        profiles = [_POOL[k] for k, _ in rows]
        repetitions = [repetition for _, repetition in rows]

        def batch():
            return simulator.measured_ipc_noise_batch(
                profiles,
                placement,
                duration_s=duration_s,
                repetitions=repetitions,
            )

        if any(profile.phase_noise > 0 for profile in profiles):
            with pytest.raises(ValueError, match="duration_s"):
                batch()
            with pytest.raises(ValueError, match="duration_s"):
                for profile, repetition in zip(profiles, repetitions):
                    simulator.measured_ipc_noise(
                        profile,
                        placement,
                        duration_s=duration_s,
                        repetition=repetition,
                    )
        else:
            assert batch() == [1.0] * len(profiles)


class TestProbeBatchProperty:
    @settings(max_examples=40, deadline=None)
    @given(groups=st.lists(_rows, min_size=1, max_size=5))
    def test_groups_mixing_hits_misses_and_repeats(self, groups):
        """Group after group through one registry — later groups hit what
        earlier ones filled, and an index drawn twice repeats a profile
        inside a group — values, hits, misses and entry count equal the
        one-probe-at-a-time registry's after every group."""
        machine = amd_opteron_6272()
        batched = ModelRegistry(seed=0)
        sequential = ModelRegistry(seed=0)
        placements = batched.placements(machine, 16)
        for turn, rows in enumerate(groups):
            placement = placements[turn % 2]
            profiles = [_POOL[k] for k, _ in rows]
            repetitions = [repetition for _, repetition in rows]
            # Every other turn the caller holds the placement's resolved
            # row, the way a policy lane does.
            held = batched.probe_row(machine, placement) if turn % 2 else None
            batch = batched.probe_ipc_batch(
                machine,
                profiles,
                placement,
                duration_s=3.0,
                repetitions=repetitions,
                row=held,
            )
            expected = [
                sequential.probe_ipc(
                    machine,
                    profile,
                    placement,
                    duration_s=3.0,
                    repetition=repetition,
                )
                for profile, repetition in zip(profiles, repetitions)
            ]
            assert batch == expected
            assert type(batch) is list
            assert all(type(value) is float for value in batch)
            assert batched.ipc_cache_info() == sequential.ipc_cache_info()
