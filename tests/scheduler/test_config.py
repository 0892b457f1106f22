"""Tests for ScheduleConfig: CLI binding, validation, and builders."""

import pytest

from repro.cli import build_parser
from repro.scheduler import ScheduleConfig
from repro.scheduler.config import WORKER_MODES


def _schedule_args(*argv):
    return build_parser().parse_args(["schedule", *argv])


def _serve_args(*argv):
    return build_parser().parse_args(["serve", *argv])


class TestFromArgs:
    def test_defaults_match_field_defaults(self):
        config = ScheduleConfig.from_args(_schedule_args())
        assert config == ScheduleConfig()

    def test_cli_flags_land_in_fields(self):
        config = ScheduleConfig.from_args(
            _schedule_args(
                "--machine",
                "mixed",
                "--hosts",
                "32",
                "--requests",
                "99",
                "--policy",
                "spread",
                "--vcpus",
                "4,8,12",
                "--batch-size",
                "16",
            )
        )
        assert config.machine == "mixed"
        assert config.hosts == 32
        assert config.requests == 99
        assert config.policy == "spread"
        assert config.vcpus == (4, 8, 12)
        assert config.batch_size == 16

    def test_online_learning_implies_churn(self):
        config = ScheduleConfig.from_args(
            _schedule_args("--online-learning")
        )
        assert config.online_learning is True
        assert config.churn is True

    def test_serve_subcommand_is_always_churn(self):
        config = ScheduleConfig.from_args(
            _serve_args("--shards", "4", "--window", "16", "--hosts", "64")
        )
        assert config.churn is True
        assert config.shards == 4
        assert config.window == 16

    def test_serve_subcommand_has_no_one_shot_flags(self):
        with pytest.raises(SystemExit):
            _serve_args("--batch-size", "8")
        with pytest.raises(SystemExit):
            _serve_args("--online-learning")

    def test_missing_namespace_attrs_keep_defaults(self):
        # serve's namespace has no batch_size/online_learning at all.
        config = ScheduleConfig.from_args(_serve_args())
        assert config.batch_size is None
        assert config.online_learning is False

    def test_parse_vcpus(self):
        assert ScheduleConfig.parse_vcpus("8") == (8,)
        assert ScheduleConfig.parse_vcpus("4, 8,16") == (4, 8, 16)
        with pytest.raises(ValueError, match="comma-separated"):
            ScheduleConfig.parse_vcpus("4,eight")


class TestValidate:
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"machine": "cray"}, "unknown machine"),
            ({"policy": "round-robin"}, "unknown policy"),
            ({"vcpus": ()}, "at least one"),
            ({"vcpus": (8, 0)}, ">= 1"),
            ({"hosts": 0}, "hosts"),
            ({"requests": 0}, "requests"),
            ({"batch_size": 0}, "batch_size"),
            ({"churn": True, "batch_size": 8}, "one-shot"),
            ({"churn": True, "arrival_rate": 0.0}, "arrival_rate"),
            ({"churn": True, "mean_lifetime": -1.0}, "mean_lifetime"),
            ({"penalty_seconds": 0.0}, "penalty_seconds"),
            (
                {"online_learning": True, "churn": True, "policy": "spread"},
                "policy 'ml'",
            ),
            ({"phase_shift": True}, "churn"),
            ({"drift_threshold": -3.0}, "drift_threshold"),
            ({"shards": 0}, "shards"),
            ({"hosts": 2, "shards": 3}, "every shard needs"),
            ({"window": 0}, "window"),
            ({"workers": "thread"}, "worker mode"),
            ({"max_events": 0}, "max_events"),
        ],
    )
    def test_rejects_bad_field_combinations(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ScheduleConfig(**kwargs).validate()

    def test_valid_config_returns_self(self):
        config = ScheduleConfig(shards=4, hosts=8, churn=True)
        assert config.validate() is config

    def test_worker_modes_cover_both_transports(self):
        assert WORKER_MODES == ("inline", "process")


class TestDerivedAndBuilders:
    def test_effective_batch_size(self):
        assert ScheduleConfig().effective_batch_size == 64
        assert ScheduleConfig(batch_size=7).effective_batch_size == 7

    def test_machine_list_matches_built_fleet(self):
        """The service partitions machine_list(); it must be the same
        host-id order Fleet construction produces, including the mixed
        fleet's interleaving."""
        for machine in ("amd", "mixed"):
            # hosts=1 exercises the mixed fleet's empty-intel-row edge.
            for hosts in (1, 5):
                config = ScheduleConfig(machine=machine, hosts=hosts)
                listed = [m.name for m in config.machine_list()]
                built = [h.machine.name for h in config.build_fleet().hosts]
                assert listed == built
        assert len(set(listed)) == 2  # mixed really mixes shapes

    def test_build_stream_respects_churn_flag(self):
        one_shot = ScheduleConfig(requests=10, seed=1).build_stream()
        assert all(r.lifetime is None for r in one_shot)
        assert all(r.arrival_time == 0.0 for r in one_shot)
        churn = ScheduleConfig(requests=10, seed=1, churn=True).build_stream()
        assert any(r.lifetime is not None for r in churn)
        assert churn[-1].arrival_time > 0.0

    def test_same_config_builds_identical_streams(self):
        config = ScheduleConfig(requests=25, seed=6, churn=True, heavy_tail=True)
        assert config.build_stream() == config.build_stream()

    def test_build_policy_uses_registry_and_name(self):
        config = ScheduleConfig(policy="first-fit")
        assert config.build_policy().name == "first-fit"
        ml = ScheduleConfig(policy="ml")
        registry = ml.build_registry()
        policy = ml.build_policy(registry)
        assert policy.registry is registry
