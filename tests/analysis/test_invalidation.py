"""Memo-invalidation rule: the CACHE_SURFACES table drives the checks."""

from __future__ import annotations

from repro.analysis import CACHE_SURFACES, analyze_source

PATH = "/tmp/fixture.py"


def findings_of(source: str):
    return analyze_source(source, path=PATH, rules=["memo-invalidation"])


FOREST = """
class RandomForestRegressor:
    def grow(self, tree):
        self.trees_.append(tree)
{invalidation}
"""


class TestGuardedAttrs:
    def test_mutation_without_invalidation_flagged(self):
        findings = findings_of(FOREST.format(invalidation="        pass"))
        assert [f.rule for f in findings] == ["memo-invalidation"]
        assert "forest-arena" in findings[0].message
        assert "tests/ml/test_arena.py" in findings[0].message

    def test_arena_reset_clean(self):
        source = FOREST.format(invalidation="        self._arena = None")
        assert findings_of(source) == []

    def test_setter_reassignment_counts_as_invalidation(self):
        # fit() rebuilds via `self.trees_ = []` then appends; the property
        # setter performed the invalidation, so the method is clean.
        source = """
class RandomForestRegressor:
    def fit(self, trees):
        self.trees_ = []
        for tree in trees:
            self.trees_.append(tree)
"""
        assert findings_of(source) == []

    def test_private_list_mutation_also_guarded(self):
        source = """
class RandomForestRegressor:
    def prune(self, n):
        self._trees.pop()
"""
        findings = findings_of(source)
        assert [f.rule for f in findings] == ["memo-invalidation"]

    def test_unrelated_class_ignored(self):
        source = """
class SomethingElse:
    def grow(self, tree):
        self.trees_.append(tree)
"""
        assert findings_of(source) == []

    def test_version_bump_without_table_drop_flagged(self):
        source = """
class BlockScoreCache:
    def bump(self, fingerprint):
        self._versions[fingerprint] = self._versions.get(fingerprint, 0) + 1
"""
        findings = findings_of(source)
        assert [f.rule for f in findings] == ["memo-invalidation"]
        assert "block-score-tables" in findings[0].message

    def test_suppressed(self):
        source = FOREST.format(
            invalidation=(
                "        pass  "
                "# repro-lint: disable=memo-invalidation — fixture"
            )
        )
        findings = findings_of(source)
        # The finding anchors at the mutation line, so suppress there.
        source = """
class RandomForestRegressor:
    def grow(self, tree):
        self.trees_.append(tree)  # repro-lint: disable=memo-invalidation — fixture
"""
        assert findings_of(source) == []
        assert findings  # the pass-line suppression did not apply


class TestDeclaredMethods:
    def test_missing_index_callback_flagged(self):
        source = """
class FleetHost:
    def allocate(self, placement):
        self.placements.append(placement)

    def release(self, placement):
        self.placements.remove(placement)
        self.index.on_release(self, placement)
"""
        findings = findings_of(source)
        assert [f.rule for f in findings] == ["memo-invalidation"]
        assert "allocate" in findings[0].message
        assert "on_allocate" in findings[0].message

    def test_both_callbacks_clean(self):
        source = """
class FleetHost:
    def allocate(self, placement):
        self.placements.append(placement)
        self.index.on_allocate(self, placement)

    def release(self, placement):
        self.placements.remove(placement)
        self.index.on_release(self, placement)
"""
        assert findings_of(source) == []

    def test_settle_that_drops_a_down_shards_departures_flagged(self):
        # The pairs a failed message carried must go back on the outbox:
        # a settle helper that only counts loses them for good.
        source = """
class SchedulerService:
    def _stage_departures(self, shard):
        staged, self._outbox[shard] = self._outbox[shard], []
        return staged

    def _settle_departures(self, shard, message, delivered):
        if delivered and message.get("departures"):
            self.stats.departure_batches += 1
"""
        findings = findings_of(source)
        assert [f.rule for f in findings] == ["memo-invalidation"]
        assert "_settle_departures" in findings[0].message
        assert "_outbox" in findings[0].message

    def test_resize_that_skips_the_state_buckets_flagged(self):
        # The pre-mask _resize: keyed on the free *count*, it never
        # re-files the host under its new free-node mask.
        source = """
class FleetIndex:
    def _resize(self, host):
        if host.n_free_nodes == self._free_of[host.host_id]:
            return
        self._capacity.on_resize(host.machine, 0, host.n_free_nodes)
"""
        findings = findings_of(source)
        assert len(findings) == 1
        message = findings[0].message
        assert "fleet-state-buckets" in message
        for token in ("_mask_of", "_leave_state", "_enter_state"):
            assert token in message

    def test_state_memo_stored_outside_the_versioned_tables_flagged(self):
        source = """
class BlockScoreCache:
    def states(self, machine, kind):
        return self._memos.setdefault((machine, kind), object())
"""
        findings = findings_of(source)
        assert len(findings) == 1
        assert "block-score-tables" in findings[0].message
        assert "_versions, _tables" in findings[0].message

    def test_promotion_must_touch_every_token(self):
        source = """
class ModelServer:
    def promote(self, machine, vcpus):
        self._models[(machine, vcpus)] = object()
"""
        findings = findings_of(source)
        assert len(findings) == 1
        message = findings[0].message
        for token in (
            "_baseline_ipc",
            "invalidate",
            "assert_version_consistency",
        ):
            assert token in message


PROFILE = """
class WorkloadProfile:
    def row(self):
        try:
            return self._row
        except AttributeError:
            self.__dict__["_row"] = row = _declared_fields(self)
            return row

    def __hash__(self):
{hash_body}

    def __reduce__(self):
        return (WorkloadProfile, self.row())
"""


class TestIdentityCaches:
    """Profiles and placements cache their identity: never invalidated,
    so the rule pins what makes that sound."""

    def test_profile_identity_clean(self):
        source = PROFILE.format(
            hash_body=(
                "        try:\n"
                "            return self._hash\n"
                "        except AttributeError:\n"
                "            self.__dict__['_hash'] = value = hash(self.row())\n"
                "            return value"
            )
        )
        assert findings_of(source) == []

    def test_profile_hash_not_taken_over_the_row_flagged(self):
        # A second way to hash a profile: not cached, and free to
        # disagree with the row the wire carries.
        source = PROFILE.format(
            hash_body="        return hash((self.name, self.ipc_base))"
        )
        findings = findings_of(source)
        assert [f.rule for f in findings] == ["memo-invalidation"]
        assert "profile-identity" in findings[0].message
        assert "_hash, row" in findings[0].message

    def test_placement_field_changed_under_its_hash_flagged(self):
        source = """
class Placement:
    def widen(self, vcpus):
        self._vcpus += vcpus
"""
        findings = findings_of(source)
        assert [f.rule for f in findings] == ["memo-invalidation"]
        assert "placement-identity" in findings[0].message
        assert "self._hash" in findings[0].message

    def test_placement_rehashed_with_the_change_clean(self):
        source = """
class Placement:
    def __init__(self, machine, vcpus):
        self._vcpus = vcpus
        self._hash = hash((machine.name, vcpus))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return (_rebuild, (self._machine, self._vcpus))

    def widen(self, vcpus):
        self._vcpus += vcpus
        self._hash = hash((self._machine.name, self._vcpus))
"""
        assert findings_of(source) == []

    def test_lane_probe_rows_resolved_outside_the_lane_flagged(self):
        # Probe rows are tied to the lane-identity rule: resolved by the
        # registry inside _lane, for the lane's own inputs.
        source = """
class GoalAwareFleetPolicy:
    def _lane(self, machine, vcpus):
        placements = self.registry.placements(machine, vcpus)
        model = self.registry.model(machine, vcpus)
        return self._lanes[(id(placements), id(model))]

    def decide_batch(self, requests, fleet):
        lane = self._lane(fleet.machine, 8)
        if not self._has_room(fleet.index, lane):
            return []
        memo = block_state_memo(fleet.machine, lane.kind)
        return lane.inputs, lane.probes, memo
"""
        findings = findings_of(source)
        assert len(findings) == 1
        assert "policy-lanes" in findings[0].message
        assert "probe_row" in findings[0].message

    def test_second_definition_of_the_smallest_block_flagged(self):
        # The rebalancer frees what min_block_nodes names and the
        # capacity check compares what _has_room reads: both must be the
        # lane's own number, and the check must ask the index.
        source = """
class GoalAwareFleetPolicy:
    def min_block_nodes(self, machine, vcpus):
        return min(p.n_nodes for p in self.registry.placements(machine, vcpus))

    def _has_room(self, index, lane):
        return index.free_nodes_total >= lane.smallest
"""
        findings = findings_of(source)
        assert len(findings) == 2
        assert all("policy-lanes" in f.message for f in findings)
        assert "_lane, smallest" in findings[0].message
        assert "largest_free" in findings[1].message

    def test_planner_setting_changed_under_its_advice_flagged(self):
        source = """
class MigrationPlanner:
    def add_engine(self, engine):
        self.engines.append(engine)
"""
        findings = findings_of(source)
        assert [f.rule for f in findings] == ["memo-invalidation"]
        assert "migration-advice" in findings[0].message
        assert "self._advice" in findings[0].message

    def test_planner_memo_filled_through_advise_clean(self):
        source = """
class MigrationPlanner:
    def advise(self, profile, probe_migrations=2):
        key = (profile, probe_migrations)
        advice = self._advice.get(key)
        if advice is None:
            if len(self._advice) >= _ADVICE_MEMO_MAX:
                self._advice.clear()
            advice = self._advice[key] = self._advise(profile, probe_migrations)
        return advice

    def add_engine(self, engine):
        self.engines.append(engine)
        self._advice.clear()
"""
        assert findings_of(source) == []


class TestTable:
    def test_surface_names_unique(self):
        names = [surface.name for surface in CACHE_SURFACES]
        assert len(names) == len(set(names))

    def test_every_surface_names_a_runtime_check(self):
        for surface in CACHE_SURFACES:
            assert surface.runtime_check, surface.name

    def test_derived_state_resolves_to_real_attributes(self):
        import importlib

        derived = [
            path for surface in CACHE_SURFACES for path in surface.derived
        ]
        assert "repro.ml.arena.ForestArena.bit_tables" in derived
        for path in derived:
            module_name, class_name, attribute = path.rsplit(".", 2)
            owner = getattr(importlib.import_module(module_name), class_name)
            assert hasattr(owner, attribute), path

    def test_registry_hooks_exist(self):
        # The table references runtime debug hooks by name; keep the
        # static table and the dynamic API pointing at real methods.
        from repro.core.blockscores import BlockScoreCache
        from repro.scheduler.index import FleetIndex
        from repro.scheduler.registry import ModelRegistry

        assert callable(BlockScoreCache.assert_version_consistency)
        assert callable(ModelRegistry.assert_version_consistency)
        assert callable(FleetIndex.assert_consistent)
