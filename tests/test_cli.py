"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCli:
    def test_machines_lists_presets(self, capsys):
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        assert "amd-opteron-6272" in out
        assert "intel-xeon-e7-4830-v3" in out

    def test_concerns(self, capsys):
        assert main(["concerns", "--machine", "amd"]) == 0
        out = capsys.readouterr().out
        assert "interconnect" in out

    def test_enumerate_default_vcpus(self, capsys):
        assert main(["enumerate", "--machine", "amd"]) == 0
        out = capsys.readouterr().out
        assert "13 important placements" in out

    def test_enumerate_custom_vcpus(self, capsys):
        assert main(["enumerate", "--machine", "intel", "--vcpus", "48"]) == 0
        out = capsys.readouterr().out
        assert "48 vCPUs" in out

    def test_migrate_plan_single_workload(self, capsys):
        assert main(["migrate-plan", "--workload", "WTbtree"]) == 0
        out = capsys.readouterr().out
        assert "WTbtree" in out
        assert "throttled" in out

    def test_migrate_plan_all_workloads(self, capsys):
        assert main(["migrate-plan"]) == 0
        out = capsys.readouterr().out
        assert out.count("->") == 18

    def test_unknown_machine_exits(self):
        with pytest.raises(SystemExit):
            main(["enumerate", "--machine", "cray"])

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_schedule_first_fit(self, capsys):
        assert main(
            [
                "schedule",
                "--hosts", "4",
                "--requests", "8",
                "--policy", "first-fit",
                "--machine", "amd",
                "--trace", "3",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "fleet report: 8 requests over 4 hosts" in out
        assert "policy=first-fit" in out
        assert "requests/s" in out
        assert out.count("req#") == 3  # the --trace lines

    def test_schedule_rejects_bad_vcpus_list(self):
        with pytest.raises(SystemExit):
            main(["schedule", "--vcpus", "eight"])
        with pytest.raises(SystemExit):
            main(["schedule", "--vcpus", "0"])
        with pytest.raises(SystemExit):
            main(["schedule", "--vcpus", "8,-16"])

    def test_schedule_rejects_bad_counts(self):
        for flags in (
            ["--hosts", "0"],
            ["--requests", "0"],
            ["--batch-size", "0"],
            ["--trace", "-1"],
        ):
            with pytest.raises(SystemExit):
                main(["schedule", *flags])

    def test_schedule_churn(self, capsys):
        assert main(
            [
                "schedule",
                "--churn",
                "--hosts", "4",
                "--requests", "100",
                "--policy", "spread",
                "--machine", "amd",
                "--vcpus", "8,8,8,32",
                "--mean-lifetime", "20",
                "--heavy-tail",
                "--seed", "11",
                "--trace", "2",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "churn:" in out and "departures" in out
        assert "rebalancer:" in out
        assert "migrate req#" in out  # at least one migration trace printed

    def test_schedule_churn_no_rebalance(self, capsys):
        assert main(
            [
                "schedule",
                "--churn",
                "--no-rebalance",
                "--hosts", "2",
                "--requests", "20",
                "--policy", "first-fit",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "rebalancer: 0 migrations" in out

    def test_schedule_rejects_bad_churn_options(self):
        for flags in (
            ["--arrival-rate", "0"],
            ["--mean-lifetime", "-3"],
            ["--penalty-seconds", "0"],
            ["--batch-size", "8"],  # one-shot-only flag
        ):
            with pytest.raises(SystemExit):
                main(["schedule", "--churn", *flags])

    def test_schedule_zero_admitted_reports_zero_percentages(self, capsys):
        # Regression: 7 vCPUs has no important placement on the AMD shape,
        # so the ML policy rejects everything; the report must print 0
        # percentages instead of crashing with ZeroDivisionError.
        assert main(
            [
                "schedule",
                "--hosts", "2",
                "--requests", "4",
                "--vcpus", "7",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "placed 0 (0.0% admitted)" in out
        assert "goal violations: 0" in out

    def test_seed_flag_accepted_by_every_subcommand(self):
        parser_cases = [
            ["machines", "--seed", "3"],
            ["concerns", "--seed", "3"],
            ["enumerate", "--seed", "3"],
            ["migrate-plan", "--workload", "WTbtree", "--seed", "3"],
        ]
        for argv in parser_cases:
            assert main(argv) == 0

    def test_schedule_seed_reproducible_end_to_end(self, capsys):
        def run(seed):
            assert main(
                [
                    "schedule",
                    "--hosts", "3",
                    "--requests", "10",
                    "--policy", "first-fit",
                    "--seed", str(seed),
                    "--trace", "10",
                ]
            ) == 0
            return capsys.readouterr().out

        first = run(4)
        again = run(4)
        other = run(5)
        # Identical seeds give identical decision traces; a different
        # seed gives a different stream.
        trace = lambda text: [  # noqa: E731
            line for line in text.splitlines() if "req#" in line
        ]
        assert trace(first) == trace(again)
        assert trace(first) != trace(other)

    def test_schedule_online_learning_validation(self):
        with pytest.raises(SystemExit):
            main(["schedule", "--online-learning", "--policy", "first-fit"])
        with pytest.raises(SystemExit):
            main(["schedule", "--online-learning", "--naive"])
        with pytest.raises(SystemExit):
            main(["schedule", "--phase-shift"])
        with pytest.raises(SystemExit):
            main(["schedule", "--online-learning", "--drift-threshold", "0"])

    @pytest.mark.slow
    def test_schedule_online_learning(self, capsys):
        assert main(
            [
                "schedule",
                "--online-learning",
                "--phase-shift",
                "--hosts", "6",
                "--requests", "120",
                "--arrival-rate", "2",
                "--mean-lifetime", "25",
                "--vcpus", "8",
                "--seed", "11",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "online learning:" in out
        assert "model server version chains" in out
        assert "churn:" in out  # --online-learning implies --churn

    @pytest.mark.slow
    def test_schedule_ml_mixed_fleet(self, capsys):
        assert main(
            [
                "schedule",
                "--hosts", "6",
                "--requests", "12",
                "--policy", "ml",
                "--machine", "mixed",
                "--batch-size", "6",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "policy=ml" in out
        assert "batched prediction" in out

    @pytest.mark.slow
    def test_schedule_naive_mode(self, capsys):
        assert main(
            [
                "schedule",
                "--hosts", "2",
                "--requests", "4",
                "--naive",
                "--vcpus", "16",
            ]
        ) == 0
        out = capsys.readouterr().out
        # Naive mode re-enumerates per request (plus once per graded
        # placement) instead of hitting the cache.
        assert "cache: 0 hits, 0 misses" in out
        runs = int(
            out.split("enumeration pipeline runs: ")[1].split()[0]
        )
        assert runs >= 4

    @pytest.mark.slow
    def test_predict_with_goal(self, capsys):
        assert main(
            ["predict", "--machine", "amd", "--workload", "gcc", "--goal", "1.0"]
        ) == 0
        out = capsys.readouterr().out
        assert "probed" in out
        assert "cheapest placement meeting" in out or "no placement" in out


class TestServeFreezesItsFrontEnd:
    """``repro serve`` is the application PR 14 left the front-end
    ``gc.freeze()`` to: once, after the service is constructed (models
    trained, clients built) and before the stream is served — and in no
    other command, the library included."""

    ARGS = [
        "--hosts", "4",
        "--requests", "24",
        "--policy", "ml",
        "--vcpus", "8",
        "--seed", "3",
    ]

    @pytest.fixture
    def gc_calls(self, monkeypatch, empty_artifact_store):
        import gc

        from repro.scheduler import SchedulerService
        from repro.scheduler.artifacts import DEFAULT_ARTIFACT_STORE

        calls = []

        def record(name):
            def recorded(*args):
                calls.append((name, DEFAULT_ARTIFACT_STORE.info().misses))

            return recorded

        serve = SchedulerService.serve

        def recording_serve(service, *args, **kwargs):
            record("serve")()
            return serve(service, *args, **kwargs)

        for name in ("collect", "freeze", "unfreeze"):
            monkeypatch.setattr(gc, name, record(name))
        monkeypatch.setattr(SchedulerService, "serve", recording_serve)
        return calls

    def test_serve_freezes_after_warm_up(self, gc_calls, capsys):
        assert main(["serve", "--shards", "2", *self.ARGS]) == 0
        assert "placed" in capsys.readouterr().out
        names = [name for name, _ in gc_calls]
        assert names == ["collect", "freeze", "serve", "unfreeze"]
        # Warm by then: the one key this stream needs is already trained,
        # and serving trains nothing more.
        assert [fits for _, fits in gc_calls] == [1, 1, 1, 1]

    def test_schedule_does_not_freeze(self, gc_calls, capsys):
        assert main(["schedule", *self.ARGS]) == 0
        capsys.readouterr()
        assert "freeze" not in [name for name, _ in gc_calls]
