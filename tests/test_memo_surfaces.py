"""Memo correctness by differential property.

The model is served from memos: compiled forest arenas, the fleet
index's counters and state buckets, block-score tables, promotion
memos and policy lanes, noise-free IPC rows, migration advice, the
artifact store, decoded placements, node-set scores, simulator records
and noise prefixes, and the identity the value objects cache.  Each
property here builds one memoized object from drawn inputs, applies a
drawn sequence of its public mutators, and after every step compares
every memoized answer with a cold twin: a fresh object built from the
same state, a cleared memo, or the unmemoized definition.  A memo is
correct when no answer can tell it from its twin.

``MUTANTS`` holds one in-process fault per way a memo has gone wrong or
could: each monkeypatches the real class and the property must fail.
The properties run derandomized with no example database, so a
mutant's verdict is the same on every run.  The shard journal's replay
state is checked by the crash sweep in ``tests/scheduler/test_faults.py``,
which is the property that surface's mutant runs.
"""

from __future__ import annotations

import functools
import inspect
import math
import pickle
import random
import textwrap
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from repro.core.blockscores import (
    BlockScoreCache,
    block_state_memo,
    mask_nodes,
)
from repro.core.memo import DEFAULT_ENUMERATION_CACHE, CacheInfo
from repro.core.placements import Placement
from repro.migration import planner as planner_module
from repro.migration.planner import MigrationPlanner
from repro.ml.forest import RandomForestRegressor
from repro.perfsim import simulator as simulator_module
from repro.perfsim.library import paper_workloads
from repro.perfsim.simulator import PerformanceSimulator, _stable_seed
from repro.perfsim.workload import WorkloadProfile
from repro.scheduler import artifacts as artifacts_module
from repro.scheduler.artifacts import ArtifactStore
from repro.scheduler.capacity import available, brute_force_capacity, needed_nodes
from repro.scheduler.fleet import Fleet, FleetHost
from repro.scheduler.index import FleetIndex
from repro.scheduler.policies import GoalAwareFleetPolicy
from repro.scheduler.registry import ModelRegistry
from repro.scheduler.requests import PlacementRequest
from repro.scheduler.service import SchedulerService
from repro.scheduler.wire import PlacementMemo
from repro.serving import ModelServer
from repro.topology.interconnect import Interconnect
from repro.topology.presets import PRESETS
from tests.perfsim.oracle_noise import noise_multiplier
from tests.scheduler.oracle_linear import UnmemoizedRegistry
from tests.scheduler.test_faults import (
    _fast_config,
    assert_crashes_deliver_departures_once,
)
from tests.scheduler.test_policies import _signature

#: One machine object per preset: hosts of a shape share it, as a
#: fleet's do.
MACHINES = {name: PRESETS[name]() for name in ("amd", "intel")}
PROFILES = paper_workloads()
#: Important placements of every (preset, vcpus) pair.
PLACEMENTS = {
    name: [p for vcpus in (8, 16) for p in DEFAULT_ENUMERATION_CACHE.get(m, vcpus)]
    for name, m in MACHINES.items()
}
OTHER = {"amd": "intel", "intel": "amd"}


def _property(max_examples):
    """Derandomized and without a database, so a verdict never depends
    on an earlier run; a failure is reported as drawn, unshrunk."""
    return settings(
        max_examples=max_examples,
        deadline=None,
        database=None,
        derandomize=True,
        phases=[Phase.explicit, Phase.generate],
        report_multiple_bugs=False,
        suppress_health_check=[HealthCheck.too_slow],
    )


def _raises(error, call, *args, **kwargs) -> bool:
    """Whether ``call`` raises ``error`` (any other outcome is False)."""
    try:
        call(*args, **kwargs)
    except error:
        return True
    except Exception:
        return False
    return False


def _outcome(call, *args):
    try:
        return ("value", call(*args))
    except Exception as error:
        return ("raises", type(error))


# ----------------------------------------------------------------------
# Forest: the compiled arena
# ----------------------------------------------------------------------


def _assert_forest_serves(forest, queries):
    """Arena answers equal the per-tree path and a forest compiled cold
    from the same trees."""
    cold = RandomForestRegressor()
    cold.trees_ = list(forest.trees_)
    assert np.array_equal(forest.predict(queries), forest.predict_per_tree(queries))
    assert np.array_equal(forest.predict(queries), cold.predict(queries))
    assert np.array_equal(
        forest.predict_std(queries), forest.predict_std_per_tree(queries)
    )


_FOREST_STEPS = st.lists(
    st.tuples(st.sampled_from(("grow", "prune", "reassign")), st.integers(1, 4)),
    min_size=1,
    max_size=4,
)


@_property(12)
@given(seed=st.integers(0, 2**16), n_outputs=st.integers(1, 2), steps=_FOREST_STEPS)
def forest_memo(seed, n_outputs, steps):
    """``fit`` / ``grow`` / ``prune`` / ``trees_ =``: the arena serves
    the current trees."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(24, 3))
    y = rng.normal(size=(24, n_outputs))
    queries = rng.normal(size=(9, 3))
    forest = RandomForestRegressor(n_estimators=3, max_depth=4, random_state=seed)
    forest.fit(X, y)
    _assert_forest_serves(forest, queries)
    for step, (op, count) in enumerate(steps):
        if op == "grow":
            forest.grow(X, y + step + 1.0, count)
        elif op == "prune":
            # Drops trees whenever there are two or more.
            forest.prune(max(1, len(forest.trees_) - count))
        else:
            order = rng.permutation(len(forest.trees_))[: max(1, count)]
            forest.trees_ = [forest.trees_[k] for k in order]
        _assert_forest_serves(forest, queries)


# ----------------------------------------------------------------------
# Fleet: the index's counters and state buckets
# ----------------------------------------------------------------------


def _cold_fleet(fleet) -> Fleet:
    """A fleet built from scratch in ``fleet``'s state."""
    cold = Fleet([host.machine for host in fleet.hosts])
    for host, twin in zip(fleet.hosts, cold.hosts):
        for request_id, placement in host.placements.items():
            twin.allocate(request_id, placement)
    return cold


def _index_answers(fleet):
    index = fleet.index
    answers = [
        index.histograms(),
        index.free_nodes_total,
        index.used_threads,
        index.largest_free_block,
    ]
    for fingerprint, machine in index.machines():
        memo = block_state_memo(machine)
        answers += [
            index.largest_free(fingerprint),
            index.emptiest_host(fingerprint),
            sorted(index.candidates(fingerprint, 1)),
            [index.lowest_host(fingerprint, memo, size)
             for size in range(1, machine.n_nodes + 1)],
        ]
    return answers


def _assert_fleet_counts(fleet):
    fleet.index.assert_consistent(fleet.hosts)
    shapes = {m.name: m for _, m in fleet.index.machines()}
    for vcpus in (8, 16, 32):
        space = available(
            fleet.index.histograms(), lambda name: needed_nodes(shapes[name], vcpus)
        )
        assert space.count == brute_force_capacity(fleet.hosts, [vcpus])[vcpus]
    assert _index_answers(fleet) == _index_answers(_cold_fleet(fleet))


_FLEET_STEPS = st.lists(
    st.tuples(
        st.sampled_from(("allocate", "allocate", "release", "migrate")),
        st.integers(0, 2**16),
    ),
    min_size=1,
    max_size=12,
)


@_property(15)
@given(
    shapes=st.lists(st.sampled_from(sorted(MACHINES)), min_size=1, max_size=4),
    steps=_FLEET_STEPS,
)
def fleet_memo(shapes, steps):
    """``allocate`` / ``release`` / migrate: the index's counters,
    buckets and free-node histograms are a recount's."""
    fleet = Fleet([MACHINES[name] for name in shapes])
    next_id = 0
    for op, pick in steps:
        rng = random.Random(pick)
        placed = sorted(
            rid for host in fleet.hosts for rid in host.placements
        )
        if op != "allocate" and placed:
            request_id = rng.choice(placed)
            host_id, placement = fleet.release(request_id)
            if op == "migrate":
                targets = [
                    h for h in fleet.hosts
                    if h.machine is placement.machine
                    and h.n_free_nodes >= placement.n_nodes
                ]
                host = rng.choice(targets)
                nodes = rng.sample(mask_nodes(host.free_mask), placement.n_nodes)
                host.allocate(
                    request_id,
                    Placement(host.machine, nodes, placement.vcpus),
                )
        else:
            host = rng.choice(fleet.hosts)
            free = mask_nodes(host.free_mask)
            if not free:
                continue
            nodes = rng.sample(free, rng.randint(1, len(free)))
            next_id += 1
            host.allocate(next_id, Placement(host.machine, nodes, len(nodes)))
        _assert_fleet_counts(fleet)


# ----------------------------------------------------------------------
# Block-score tables
# ----------------------------------------------------------------------


_BLOCK_STEPS = st.lists(
    st.tuples(
        st.sampled_from(("states", "find", "find", "invalidate")),
        st.sampled_from(sorted(MACHINES)),
        st.sampled_from(("interconnect", "zero")),
        st.integers(0, 2**16),
    ),
    min_size=1,
    max_size=10,
)


@_property(25)
@given(steps=_BLOCK_STEPS)
def block_score_memo(steps):
    """``states`` / ``find`` / ``invalidate``: tables answer like a
    cleared cache's, and a version bump retires every memo handed out."""
    cache = BlockScoreCache()
    #: (fingerprint, kind) -> the memo handed out since the shape's last
    #: version bump; memos handed out before one.
    live, retired = {}, []
    versions = {}
    for op, name, kind, pick in steps:
        machine = MACHINES[name]
        fingerprint = machine.fingerprint()
        if op == "invalidate":
            versions[fingerprint] = versions.get(fingerprint, 0) + 1
            assert cache.invalidate(fingerprint) == versions[fingerprint]
            for key in [key for key in live if key[0] == fingerprint]:
                retired.append(live.pop(key))
        else:
            memo = cache.states(machine, kind)
            assert all(memo is not old for old in retired)
            assert live.setdefault((fingerprint, kind), memo) is memo
            if op == "find":
                rng = random.Random(pick)
                mask = rng.getrandbits(machine.n_nodes)
                size = rng.randint(1, machine.n_nodes)
                block = rng.sample(range(machine.n_nodes), size)
                target = rng.choice(
                    (None, machine.interconnect.aggregate_bandwidth(block))
                )
                cold = BlockScoreCache().states(machine, kind)
                assert memo.find_mask(mask, size, target) == cold.find_mask(
                    mask, size, target
                )
        cache.assert_version_consistency()
        assert cache.info().currsize == len(live)
        for other in MACHINES.values():
            fingerprint = other.fingerprint()
            assert cache.version(fingerprint) == versions.get(fingerprint, 0)


# ----------------------------------------------------------------------
# Promotion: baseline-IPC rows and policy lanes
# ----------------------------------------------------------------------


class ColdServer(ModelServer):
    """A model server whose probes re-simulate every row: the rows a
    policy lane holds are never read."""

    probe_ipc_batch = UnmemoizedRegistry.probe_ipc_batch


_SERVER = dict(n_estimators=6, n_synthetic=2, seed=0)


_PROMOTION_STEPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("decide"),
            st.lists(
                st.tuples(
                    st.integers(0, len(PROFILES) - 1),
                    st.sampled_from((8, 16)),
                    st.sampled_from((None, 0.9)),
                ),
                min_size=1,
                max_size=4,
            ),
        ),
        st.tuples(st.just("promote"), st.sampled_from((8, 16))),
    ),
    min_size=2,
    max_size=6,
)


@_property(8)
@given(steps=_PROMOTION_STEPS)
def promotion_memo(steps):
    """Promotions between decide batches: decisions and baseline IPCs are
    those of a server and policy built cold on the promoted models."""
    machine = MACHINES["amd"]
    server = ModelServer(**_SERVER)
    policy = GoalAwareFleetPolicy(server)
    fleet = Fleet.homogeneous(machine, 3)
    promoted = {}
    next_id = 0
    for clock, (op, arg) in enumerate(steps, start=1):
        if op == "promote":
            model = server.model(machine, arg).warm_refit(
                server.training_set(machine, arg), n_grow=2
            )
            server.add_candidate(
                machine, arg, model, time=clock, n_training_rows=1
            )
            server.promote(machine, arg, time=clock)
            promoted[arg] = model
            continue
        requests = []
        for profile, vcpus, goal in arg:
            next_id += 1
            requests.append(
                PlacementRequest(next_id, PROFILES[profile], vcpus, goal)
            )
        cold = ColdServer(**_SERVER)
        for vcpus, model in promoted.items():
            cold.add_candidate(machine, vcpus, model, time=0, n_training_rows=1)
            cold.promote(machine, vcpus, time=0)
        cold_fleet = _cold_fleet(fleet)
        warm = policy.decide_batch(requests, fleet)
        assert _signature(warm) == _signature(
            GoalAwareFleetPolicy(cold).decide_batch(requests, cold_fleet)
        )
        for request in requests:
            assert server.baseline_ipc(
                machine, request.vcpus, request.profile
            ) == cold.baseline_ipc(machine, request.vcpus, request.profile)
        server.assert_version_consistency()


# ----------------------------------------------------------------------
# Noise-free IPC rows
# ----------------------------------------------------------------------


_IPC_STEPS = st.lists(
    st.tuples(
        st.sampled_from(("solo", "batch", "held", "foreign")),
        st.lists(st.integers(0, len(PROFILES) - 1), min_size=1, max_size=4),
        st.integers(0, len(PLACEMENTS["amd"]) - 1),
        st.integers(0, 2**16),
    ),
    min_size=1,
    max_size=8,
)


@_property(15)
@given(seed=st.integers(0, 3), steps=_IPC_STEPS)
def solo_ipc_memo(seed, steps):
    """``solo_ipc`` / ``probe_ipc_batch``: values are a cold registry's,
    ``ipc_cache_info`` counts what the rows hold, and a lookup that
    raises leaves the counters and the rows as they were."""
    machine = MACHINES["amd"]
    registry = ModelRegistry(seed=seed)
    seen, asked = set(), set()
    for op, indices, index, pick in steps:
        profiles = [PROFILES[k] for k in indices]
        placement = PLACEMENTS["amd"][index]
        before = registry.ipc_cache_info()
        if op == "foreign":
            # A run that raises files nothing, through any entry.
            foreign = PLACEMENTS["intel"][index % len(PLACEMENTS["intel"])]
            rows = {key: dict(row) for key, row in registry._solo_ipc.items()}
            assert _raises(ValueError, registry.probe_row, machine, foreign)
            assert len(registry._solo_ipc) == len(rows)
            assert _raises(ValueError, registry.solo_ipc, machine, profiles[0], foreign)
            assert _raises(
                ValueError,
                registry.probe_ipc_batch,
                machine,
                profiles,
                foreign,
                multipliers=[1.0] * len(profiles),
            )
            assert registry.ipc_cache_info() == before
            assert registry._solo_ipc == rows
            continue
        # A repeat in the group: a hit, or a second ask of a fresh profile.
        profiles.append(profiles[0])
        rng = random.Random(pick)
        if op == "solo":
            multipliers = [1.0] * len(profiles)
            values = [registry.solo_ipc(machine, p, placement) for p in profiles]
        else:
            multipliers = [math.exp(rng.gauss(0.0, 0.1)) for _ in profiles]
            values = registry.probe_ipc_batch(
                machine,
                profiles,
                placement,
                multipliers=multipliers,
                row=registry.probe_row(machine, placement) if op == "held" else None,
            )
        cold = ModelRegistry(seed=seed)
        assert values == [
            cold.solo_ipc(machine, p, placement) * m
            for p, m in zip(profiles, multipliers)
        ]
        fresh = [p for p in dict.fromkeys(profiles) if (placement, p) not in seen]
        seen.update((placement, p) for p in fresh)
        asked.add(placement)
        after = registry.ipc_cache_info()
        assert after.misses - before.misses == len(fresh)
        assert after.hits - before.hits == len(profiles) - len(fresh)
        assert after.currsize == len(seen) == sum(
            len(registry.probe_row(machine, p).ipcs) for p in asked
        )


# ----------------------------------------------------------------------
# Migration advice
# ----------------------------------------------------------------------


@_property(15)
@given(
    threshold=st.sampled_from((0.3, 0.7, 0.95)),
    max_online=st.sampled_from((20.0, 180.0, 1e4)),
    steps=st.lists(
        st.tuples(st.integers(0, len(PROFILES) - 1), st.integers(1, 3)),
        min_size=1,
        max_size=12,
    ),
)
def advice_memo(threshold, max_online, steps):
    """``advise`` past its bound: remembered advice is a fresh planner's."""
    bound = 3
    options = dict(
        latency_sensitive_threshold=threshold, max_online_seconds=max_online
    )
    with mock.patch.object(planner_module, "_ADVICE_MEMO_MAX", bound):
        planner = MigrationPlanner(**options)
        for index, probes in steps:
            profile = PROFILES[index]
            # The profile at the drawn probe count, then at another.
            for count in (probes, 1 + probes % 3):
                advice = planner.advise(profile, probe_migrations=count)
                assert advice == MigrationPlanner(**options).advise(
                    profile, probe_migrations=count
                )
                assert len(planner._advice) <= bound


# ----------------------------------------------------------------------
# Artifact store
# ----------------------------------------------------------------------


_ARTIFACT_KEYS = [
    (name, vcpus, seed)
    for name, vcpus in (("amd", 8), ("amd", 16), ("intel", 8))
    for seed in (0, 1)
]


def _store_get(store, key):
    name, vcpus, seed = key
    machine = MACHINES[name]
    placements = DEFAULT_ENUMERATION_CACHE.get(machine, vcpus)
    return store.get(
        machine,
        vcpus,
        placements=placements,
        input_pair=(0, len(placements) - 1),
        seed=seed,
        n_estimators=2,
        n_synthetic=1,
    )


@functools.lru_cache(maxsize=None)
def _cold_artifacts(key):
    """What a store that never saw another key builds for ``key``."""
    return _store_get(ArtifactStore(), key)


def _entry_arrays(entry):
    training = entry.training_set
    return [training.ipc, training.vectors, *entry.model.forest.arena().arrays()]


@_property(10)
@given(
    steps=st.lists(
        st.one_of(
            st.tuples(st.just("get"), st.sampled_from(_ARTIFACT_KEYS)),
            st.just(("clear", None)),
        ),
        min_size=1,
        max_size=6,
    )
)
def artifact_store_memo(steps):
    """``get`` / ``clear``: entries equal a cold store's, sealed, and the
    accounting is the LRU's."""
    store = ArtifactStore(maxsize=2)
    resident, hits, misses = [], 0, 0
    for op, key in steps:
        if op == "clear":
            store.clear()
            resident, hits, misses = [], 0, 0
            assert store.info() == CacheInfo(0, 0, 0)
            continue
        entry = _store_get(store, key)
        cold = _cold_artifacts(key)
        for array, twin in zip(_entry_arrays(entry), _entry_arrays(cold)):
            assert np.array_equal(array, twin)
            # Shared by every registry: a write raises instead of
            # reaching the siblings.
            assert _raises(ValueError, array.__setitem__, (), array)
        if key in resident:
            hits += 1
            resident.remove(key)
        else:
            misses += 1
            resident = resident[-1:]  # a miss evicts down to one entry
        resident.append(key)
        assert store.info() == CacheInfo(hits, misses, len(resident))


# ----------------------------------------------------------------------
# Decoded placements
# ----------------------------------------------------------------------


#: Two callers whose machines have the same names but are other objects.
_CALLERS = [
    {m.name: m for m in (PRESETS[name]() for name in MACHINES)} for _ in range(2)
]
_ROWS = [
    (p.machine.name, p.nodes, p.vcpus, p.l2_share, p.l3_groups_per_node)
    for name in sorted(PLACEMENTS)
    for p in PLACEMENTS[name]
]


@_property(15)
@given(
    bound=st.integers(1, 4),
    steps=st.lists(
        st.tuples(st.integers(0, 1), st.integers(0, len(_ROWS) - 1)),
        min_size=1,
        max_size=12,
    ),
)
def placement_memo(bound, steps):
    """Rows decoded for callers with distinct machine objects: each gets
    a placement built on its own machine."""
    memo = PlacementMemo(bound)
    for first, index in steps:
        name, nodes, vcpus, l2_share, l3_groups = row = _ROWS[index]
        # The row for one caller, then at once for the other.
        for caller in (first, 1 - first):
            machines = _CALLERS[caller]
            placement = memo(row, machines)
            cold = Placement(
                machines[name],
                nodes,
                vcpus,
                l2_share=l2_share,
                l3_groups_per_node=l3_groups,
            )
            assert placement == cold
            assert placement.machine is machines[name]
            assert len(memo) <= bound
            assert _raises(KeyError, memo, ("no-such-machine", *row[1:]), machines)


# ----------------------------------------------------------------------
# Node-set scores
# ----------------------------------------------------------------------


#: Ways a caller spells one node set.
_SPELLINGS = (
    list,
    tuple,
    frozenset,
    set,
    iter,
    lambda nodes: list(reversed(nodes)) + nodes[:1],
)


@_property(15)
@given(
    name=st.sampled_from(sorted(MACHINES)),
    steps=st.lists(
        st.one_of(
            st.tuples(
                st.just("score"),
                st.lists(st.integers(0, 8), min_size=1, max_size=5),
                st.integers(0, len(_SPELLINGS) - 1),
            ),
            st.just(("pickle", None, None)),
        ),
        min_size=1,
        max_size=10,
    ),
)
def node_set_memo(name, steps):
    """Node sets in every spelling, and pickle round trips: scores are a
    fresh interconnect's, one entry per set, and nothing is pickled."""
    interconnect = PRESETS[name]().interconnect
    asked = set()
    for op, nodes, spelling in steps:
        cold = PRESETS[name]().interconnect
        if op == "pickle":
            # A warm interconnect pickles like a cold one, and the copy
            # starts cold.
            assert pickle.dumps(interconnect) == pickle.dumps(cold)
            interconnect = pickle.loads(pickle.dumps(interconnect))
            asked = set()
        else:
            key = frozenset(nodes)
            spell = _SPELLINGS[spelling]
            for score in ("aggregate_bandwidth", "mean_pairwise_latency_ns"):
                warm = _outcome(getattr(interconnect, score), spell(nodes))
                assert warm == _outcome(getattr(cold, score), key)
                if warm[0] == "value":
                    asked.add(key)
        assert set(interconnect._node_set_scores) == asked


# ----------------------------------------------------------------------
# Simulator: placement records and noise prefixes
# ----------------------------------------------------------------------


_SIM_STEPS = st.lists(
    st.tuples(
        st.sampled_from(("breakdown", "measured", "seeds", "foreign")),
        st.integers(0, 2**16),
        st.lists(st.integers(0, len(PROFILES) - 1), min_size=1, max_size=3),
        st.integers(0, 3),
    ),
    min_size=1,
    max_size=8,
)


@_property(15)
@given(
    name=st.sampled_from(sorted(MACHINES)),
    seed=st.sampled_from((0, 1, 17)),
    steps=_SIM_STEPS,
)
def simulator_memo(name, seed, steps):
    """Records and noise prefixes past their bounds: answers are a fresh
    simulator's, seeds the seven-part seed, draws the per-row oracle's."""
    bound = 2
    machine = MACHINES[name]
    with mock.patch.object(
        simulator_module, "_PLACEMENT_RECORD_MAX", bound
    ), mock.patch.object(simulator_module, "_NOISE_PREFIX_MAX", bound):
        simulator = PerformanceSimulator(machine, seed=seed)
        for op, pick, indices, repetition in steps:
            placements = PLACEMENTS[name]
            placement = placements[pick % len(placements)]
            profiles = [PROFILES[k] for k in indices]
            cold = PerformanceSimulator(machine, seed=seed)
            if op == "foreign":
                foreign = PLACEMENTS[OTHER[name]][pick % len(PLACEMENTS[OTHER[name]])]
                assert _raises(ValueError, simulator.breakdown, profiles[0], foreign)
            elif op == "breakdown":
                for profile in profiles:
                    assert simulator.breakdown(profile, placement) == cold.breakdown(
                        profile, placement
                    )
            elif op == "measured":
                for profile in profiles:
                    noise = noise_multiplier(
                        cold,
                        profile,
                        placement,
                        3.0,
                        repetition,
                        simulator_module.MEASURED_IPC_NOISE,
                    )
                    assert simulator.measured_ipc(
                        profile, placement, duration_s=3.0, repetition=repetition
                    ) == cold.measured_ipc(profile, placement, noise=False) * noise
            else:
                extra = pick % 3
                assert simulator.noise_seeds(
                    profiles, placement, [repetition] * len(profiles), extra
                ) == [
                    _stable_seed(
                        seed,
                        machine.name,
                        p.name,
                        placement.nodes,
                        placement.l2_share,
                        repetition,
                        extra,
                    )
                    for p in profiles
                    if p.phase_noise > 0
                ]
            assert len(simulator._placement_records) <= bound
            assert simulator._noise_prefix_count <= bound
            assert simulator._noise_prefix_count == sum(
                len(table) for table in simulator._noise_prefixes.values()
            )


# ----------------------------------------------------------------------
# Identity: the hashes profiles and placements cache
# ----------------------------------------------------------------------


@_property(20)
@given(
    kind=st.sampled_from(("placement", "profile")),
    index=st.integers(0, 2**16),
    salt=st.integers(1, 2**32),
)
def identity_memo(kind, index, salt):
    """A cached hash is a fresh object's, and never crosses a pickle."""
    if kind == "profile":
        original = PROFILES[index % len(PROFILES)]
        made = WorkloadProfile(*original.row())
        cold = WorkloadProfile(*original.row())
    else:
        name = sorted(PLACEMENTS)[index % 2]
        original = PLACEMENTS[name][index % len(PLACEMENTS[name])]
        nodes = list(reversed(original.nodes)) + list(original.nodes[:1])

        def build(spelled):
            return Placement(
                original.machine,
                spelled,
                original.vcpus,
                l2_share=original.l2_share,
                l3_groups_per_node=original.l3_groups_per_node,
            )

        made, cold = build(nodes), build(original.nodes)
    assert made == cold and hash(made) == hash(cold)
    # A copy pickled by another interpreter carries that interpreter's
    # (salted) hash: forge one, and the copy must not keep it.
    made.__dict__["_hash"] = hash(made) ^ salt
    copy = pickle.loads(pickle.dumps(made))
    assert copy == cold and hash(copy) == hash(cold)
    assert {cold: "found"}.get(copy) == "found"


# ----------------------------------------------------------------------
# The properties and their mutants
# ----------------------------------------------------------------------


def shard_recovery():
    """The crash sweep over every departure-carrying message, with
    recovery deferred (the pairs a failed message carried go back on the
    outbox) and immediate (the journal replay stands in)."""
    for rounds in (2, 0):
        assert_crashes_deliver_departures_once(
            _fast_config(requests=24, seed=7, supervised=True, recovery_rounds=rounds)
        )


PROPERTIES = {
    "forest-arena": forest_memo,
    "fleet-index": fleet_memo,
    "block-score-tables": block_score_memo,
    "promotion": promotion_memo,
    "solo-ipc-rows": solo_ipc_memo,
    "migration-advice": advice_memo,
    "artifact-store": artifact_store_memo,
    "decoded-placements": placement_memo,
    "node-set-scores": node_set_memo,
    "simulator": simulator_memo,
    "identity": identity_memo,
    "shard-recovery": shard_recovery,
}


def _edit(owner, name, old, new):
    """The patch that swaps ``owner.name`` for its source with ``old``
    replaced by ``new``, compiled in its module's namespace."""
    function = inspect.unwrap(getattr(owner, name))
    source = inspect.getsource(function)
    assert source.count(old) == 1, f"mutant anchor vanished from {name}: {old!r}"
    namespace = {}
    exec(
        compile(
            textwrap.dedent(source.replace(old, new)),
            inspect.getsourcefile(function),
            "exec",
        ),
        function.__globals__,
        namespace,
    )
    return owner, name, namespace[name]


_ALLOCATE = FleetHost.allocate
_STATES = BlockScoreCache.states
_PROBE_BATCH = ModelRegistry.probe_ipc_batch
_PLACEMENT_INIT = Placement.__init__


def _allocate_unindexed(self, request_id, placement):
    index, self._fleet_index = self._fleet_index, None
    try:
        _ALLOCATE(self, request_id, placement)
    finally:
        self._fleet_index = index


def _solo_ipc_counting_before_it_measures(self, machine, profile, placement):
    row = self._ipc_row(machine, placement)
    value = row.get(profile)
    if value is None:
        self._ipc_misses += 1
        value = row[profile] = self.simulator(machine).measured_ipc(
            profile, placement, noise=False
        )
    else:
        self._ipc_hits += 1
    return value


def _probe_batch_filing_before_it_measures(
    self, machine, profiles, placement, *, multipliers, row=None
):
    """``probe_ipc_batch`` as it was: the row is filed (``_ipc_row``,
    which ``probe_row`` then called unchecked) before anything is
    measured, and each miss is filed as measured."""
    if len(profiles) != len(multipliers):
        raise ValueError("profiles and multipliers must align")
    if row is None:
        row = (self._ipc_row(machine, placement), self.simulator(machine), None)
    ipcs, simulator, _ = row
    fresh = ()
    try:
        found = list(map(ipcs.__getitem__, profiles))
    except KeyError:
        fresh = list(dict.fromkeys(p for p in profiles if p not in ipcs))
        for profile in fresh:
            ipcs[profile] = simulator.measured_ipc(profile, placement, noise=False)
        found = list(map(ipcs.__getitem__, profiles))
    self._ipc_misses += len(fresh)
    self._ipc_hits += len(found) - len(fresh)
    return [value * m for value, m in zip(found, multipliers)]


def _states_outliving_their_version(self, machine, kind="interconnect"):
    kept = self.__dict__.setdefault("_kept", {})
    key = (machine.fingerprint(), kind)
    if key not in kept:
        kept[key] = _STATES(self, machine, kind)
    return kept[key]


def _probe_batch_drawing_its_own_noise(
    self, machine, profiles, placement, *, multipliers, row=None
):
    own = [math.exp(0.05 * k) for k in range(len(profiles))]
    return _PROBE_BATCH(self, machine, profiles, placement, multipliers=own, row=row)


def _restored(cls, state):
    copy = object.__new__(cls)
    copy.__dict__.update(state)
    return copy


def _pickled_with_state(self):
    return (_restored, (type(self), dict(self.__dict__)))


def _placement_hashed_as_spelled(self, machine, nodes, vcpus, **options):
    nodes = list(nodes)
    _PLACEMENT_INIT(self, machine, nodes, vcpus, **options)
    self._hash = hash((machine.name, tuple(nodes), vcpus, self.l2_share))


def _trees_kept_with_the_arena(self, trees):
    self.__dict__.update(_trees=list(trees), _arena=self.__dict__.get("_arena"))


_NODE_SET_KEY = "key = nodes if nodes.__class__ is frozenset else frozenset(nodes)"

#: mutant id -> (the property it must fail, ``(owner, attribute, value)``
#: patches that inject it).
MUTANTS = {
    "grow-extends-trees-in-place": ("forest-arena", [_edit(
        RandomForestRegressor, "grow",
        "self.trees_ = self.trees_ + self._grow_trees(rng, X, y, n_more)",
        "self._trees.extend(self._grow_trees(rng, X, y, n_more))",
    )]),
    "prune-drops-trees-in-place": ("forest-arena", [_edit(
        RandomForestRegressor, "prune",
        "self.trees_ = self.trees_[len(self.trees_) - budget :]",
        "del self._trees[: len(self._trees) - budget]",
    )]),
    "trees-setter-keeps-the-arena": ("forest-arena", [(
        RandomForestRegressor, "trees_",
        property(RandomForestRegressor.trees_.fget, _trees_kept_with_the_arena),
    )]),
    "allocate-skips-the-index": (
        "fleet-index", [(FleetHost, "allocate", _allocate_unindexed)]
    ),
    "resize-refiles-the-count-only": ("fleet-index", [_edit(
        FleetIndex, "_resize",
        "        self._leave_state(fingerprint, old_mask, host_id)\n"
        "        self._enter_state(fingerprint, new_mask, host_id)\n",
        "",
    )]),
    "invalidate-keeps-stale-tables": ("block-score-tables", [_edit(
        BlockScoreCache, "invalidate", "del self._tables[key]", "pass"
    )]),
    "states-memo-outlives-its-version": (
        "block-score-tables",
        [(BlockScoreCache, "states", _states_outliving_their_version)],
    ),
    "promote-keeps-stale-baseline-rows": ("promotion", [_edit(
        ModelServer, "promote", "del self._baseline_ipc[memo_key]", "pass"
    )]),
    "lane-probe-rows-of-the-other-input": ("promotion", [_edit(
        GoalAwareFleetPolicy, "_lane", "for p in inputs)", "for p in reversed(inputs))"
    )]),
    "probe-batch-draws-its-own-noise": (
        "solo-ipc-rows",
        [(ModelRegistry, "probe_ipc_batch", _probe_batch_drawing_its_own_noise)],
    ),
    "advice-keyed-by-profile-alone": ("migration-advice", [_edit(
        MigrationPlanner, "advise", "key = (profile, probe_migrations)", "key = profile"
    )]),
    "advice-memo-never-starts-over": ("migration-advice", [_edit(
        MigrationPlanner, "advise", "self._advice.clear()", "pass"
    )]),
    "artifact-store-entry-unsealed": (
        "artifact-store", [(artifacts_module, "_sealed", lambda entry: entry)]
    ),
    "decoded-placement-served-on-another-machine": ("decoded-placements", [_edit(
        PlacementMemo, "__call__",
        "if placement is None or placement.machine is not machine:",
        "if placement is None:",
    )]),
    "node-set-scores-keyed-by-a-spelling": ("node-set-scores", [
        _edit(Interconnect, name, _NODE_SET_KEY, "key = tuple(nodes)")
        for name in ("aggregate_bandwidth", "mean_pairwise_latency_ns")
    ]),
    "node-set-scores-pickled-with-the-memo": ("node-set-scores", [
        (Interconnect, "__getstate__", lambda self: dict(self.__dict__)),
        (Interconnect, "__setstate__", lambda self, state: self.__dict__.update(state)),
    ]),
    "noise-prefix-ignores-the-seed": ("simulator", [_edit(
        PerformanceSimulator, "_noise_prefix",
        "self.seed,\n            self.machine.name,",
        "0,\n            self.machine.name,",
    )]),
    "noise-seed-bypasses-the-prefix-memo": ("simulator", [_edit(
        PerformanceSimulator, "noise_seeds",
        "known(profile.name)\n"
        "                or self._noise_prefix(prefixes, profile.name, placement),",
        "known(profile.name, 0),",
    )]),
    "noise-drawn-by-a-generator-of-its-own": ("simulator", [_edit(
        PerformanceSimulator, "_noise_multiplier",
        "noise = NoiseBatch(duration_s, extra)\n"
        "        noise.add(self, [profile], placement, [repetition])\n"
        "        return noise.multipliers()[0][0]",
        "return float(np.exp(np.random.default_rng(repetition).normal()))",
    )]),
    "breakdown-builds-its-own-record": ("simulator", [_edit(
        PerformanceSimulator, "breakdown",
        "record = self._placement_record(placement)",
        "record = _PlacementRecord(self.machine, placement)",
    )]),
    "placement-record-filed-unchecked": ("simulator", [_edit(
        PerformanceSimulator, "_placement_record",
        "self._check_placement(placement)", "pass",
    )]),
    "profile-pickled-with-its-cached-hash": (
        "identity", [(WorkloadProfile, "__reduce__", _pickled_with_state)]
    ),
    "placement-unpickled-around-its-constructor": (
        "identity", [(Placement, "__reduce__", _pickled_with_state)]
    ),
    "placement-hashed-as-spelled": (
        "identity", [(Placement, "__init__", _placement_hashed_as_spelled)]
    ),
    "release-skips-the-index": ("fleet-index", [_edit(
        FleetHost, "release", "self._fleet_index.on_release(self, placement)", "pass"
    )]),
    "invalidate-skips-the-version-bump": ("block-score-tables", [_edit(
        BlockScoreCache, "invalidate", "self._versions[fingerprint] = version", "pass"
    )]),
    "solo-ipc-hit-goes-uncounted": ("solo-ipc-rows", [_edit(
        ModelRegistry, "solo_ipc", "self._ipc_hits += 1", "pass"
    )]),
    "solo-ipc-counts-a-miss-that-raises": (
        "solo-ipc-rows",
        [(ModelRegistry, "solo_ipc", _solo_ipc_counting_before_it_measures)],
    ),
    "probe-batch-files-before-it-measures": (
        "solo-ipc-rows",
        [(ModelRegistry, "probe_ipc_batch", _probe_batch_filing_before_it_measures)],
    ),
    "probe-batch-counts-a-repeat-twice": ("solo-ipc-rows", [_edit(
        ModelRegistry, "probe_ipc_batch",
        "fresh = list(dict.fromkeys(p for p in profiles if p not in ipcs))",
        "fresh = [p for p in profiles if p not in ipcs]",
    )]),
    "probe-row-files-a-foreign-placement": ("solo-ipc-rows", [_edit(
        ModelRegistry, "probe_row", "simulator._check_placement(placement)", "pass"
    )]),
    "ipc-rows-keyed-by-machine-alone": ("solo-ipc-rows", [_edit(
        ModelRegistry, "_ipc_row",
        "key = (machine.fingerprint(), placement)", "key = machine.fingerprint()",
    )]),
    "artifact-store-clear-keeps-entries": ("artifact-store", [_edit(
        ArtifactStore, "clear", "self._entries.clear()", "pass"
    )]),
    "decoded-placements-never-start-over": ("decoded-placements", [_edit(
        PlacementMemo, "__call__", "self._placements.clear()", "pass"
    )]),
    "placement-records-never-start-over": ("simulator", [_edit(
        PerformanceSimulator, "_placement_record", "records.clear()", "pass"
    )]),
    "noise-prefix-tables-never-emptied": ("simulator", [_edit(
        PerformanceSimulator, "_noise_prefix",
        "            for table in self._noise_prefixes.values():\n"
        "                table.clear()\n",
        "",
    )]),
    "advice-memo-holds-one-past-its-bound": ("migration-advice", [_edit(
        MigrationPlanner, "advise",
        "if len(self._advice) >= _ADVICE_MEMO_MAX:",
        "if len(self._advice) > _ADVICE_MEMO_MAX:",
    )]),
    "replay-skips-the-journal": ("shard-recovery", [_edit(
        SchedulerService, "_recover_shard",
        "[entry.message for entry in supervisor.journals[shard]]", "[]",
    )]),
    "settle-drops-a-down-shards-departures": ("shard-recovery", [_edit(
        SchedulerService, "_settle_departures",
        "self._outbox[shard] = staged + self._outbox[shard]", "pass",
    )]),
}


@pytest.mark.parametrize("surface", sorted(PROPERTIES))
def test_memo_property_holds(surface):
    PROPERTIES[surface]()


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_memo_property_catches(mutant, monkeypatch):
    surface, patches = MUTANTS[mutant]
    for owner, name, value in patches:
        monkeypatch.setattr(owner, name, value)
    with pytest.raises(AssertionError):
        PROPERTIES[surface]()
