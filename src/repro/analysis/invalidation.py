"""Memo-invalidation rule: mutations of memoized state must invalidate.

The tree memoizes aggressively — the forest compiles an arena (node
arrays and bit tables) from ``trees_``, the simulator keeps the constant
prefix of its noise seeds, ``FleetIndex`` mirrors host capacity in O(1)
counters and
buckets hosts by free-node state, ``BlockScoreCache`` keys score tables
and their per-state answers on ``(fingerprint, kind, version)``,
``ModelRegistry`` keys baseline-IPC memos on a model version token and
keeps noise-free IPCs in per-placement rows, ``ArtifactStore`` hands
every registry the same trained entries, the goal-aware policy compiles
a lane per ``(placement set, model)`` pair, the migration planner
remembers its advice per profile, the wire decoder interns placements,
and the value objects under all of it — workload profiles
and placements — cache their own hash (a profile its wire row too).
Every one of those stays correct only because each mutation path
bumps the matching version or drops the derived structure.  This rule
encodes those pairings in a small registry (:data:`CACHE_SURFACES`) so
the static check and the runtime debug hooks
(``BlockScoreCache.assert_version_consistency``,
``ModelRegistry.assert_version_consistency``,
``FleetIndex.assert_consistent``) name the same surfaces, and new caches
opt in by adding a row.

Two check styles per surface:

* **guarded attributes** — any method that mutates a guarded attribute
  in place must, in the same method, either touch an invalidator
  attribute or reassign one of the ``setter_resets`` properties (whose
  setter performs the invalidation);
* **declared methods** — a method named in ``declared`` must reference
  every listed token (attribute or call) somewhere in its body.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.engine import Finding, ModuleInfo, Rule

#: Attribute calls that mutate a container in place.
_MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "popitem",
        "clear",
        "add",
        "discard",
        "update",
        "setdefault",
        "sort",
        "reverse",
        "appendleft",
        "popleft",
    }
)


@dataclass(frozen=True)
class CacheSurface:
    """One memoized surface: which class, which state, which bump."""

    name: str
    class_name: str
    #: Module path suffix the surface lives at; fixture files (outside
    #: the ``repro`` package) match any surface by class name alone.
    module_suffix: str
    #: Attributes whose in-place mutation requires invalidation.
    guarded_attrs: Tuple[str, ...] = ()
    #: Attributes whose reassignment/mutation counts as invalidation.
    invalidators: Tuple[str, ...] = ()
    #: Properties whose *setter* invalidates: plain reassignment of one
    #: of these is itself a valid bump (``self.trees_ = [...]``).
    setter_resets: Tuple[str, ...] = ()
    #: method name -> tokens (attributes or callables) it must touch.
    declared: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: Methods on the class exempt from the guarded-attr check (the
    #: invalidation primitives themselves).
    exempt_methods: Tuple[str, ...] = ()
    #: Dotted paths of state computed from the guarded attributes and
    #: dropped with the invalidators — named so that the table's own
    #: tests resolve each to a real attribute.
    derived: Tuple[str, ...] = ()
    #: The runtime check that verifies the same invariant dynamically.
    runtime_check: str = ""


CACHE_SURFACES: Tuple[CacheSurface, ...] = (
    CacheSurface(
        name="forest-arena",
        class_name="RandomForestRegressor",
        module_suffix="ml/forest.py",
        guarded_attrs=("trees_", "_trees"),
        invalidators=("_arena",),
        setter_resets=("trees_",),
        exempt_methods=("trees_",),
        # The arena is compiled whole from trees_ — bit tables included,
        # in ForestArena.__init__ — and held only by _arena, so the one
        # `_arena = None` drops node arrays and tables together.  Sealed
        # arenas reach workers by fork, never over the shard wire.
        derived=(
            "repro.ml.arena.ForestArena.bit_tables",
            "repro.ml.arena.ForestArena.leaf_values",
            "repro.ml.arena.ForestArena.leaf_base",
        ),
        runtime_check=(
            "arena-vs-per-tree bit-for-bit equivalence on both sides of "
            "the bit-table rule (tests/ml/test_arena.py)"
        ),
    ),
    CacheSurface(
        name="noise-seed-prefixes",
        class_name="PerformanceSimulator",
        module_suffix="perfsim/simulator.py",
        # _noise_prefixes[(nodes, l2_share)][profile name] is the CRC of
        # the noise seed's constant prefix: a pure function of its keys
        # and of `seed` and `machine`, which only the constructor
        # assigns — nothing to invalidate while that holds, so a method
        # that changes either in place must drop the memo, and the one
        # method that fills a table must derive entries from exactly
        # those.  Tables are handed out (noise_prefixes) and held by
        # policy lanes, so starting over empties them in place; the two
        # draws that read a table fill their misses through _noise_prefix.
        guarded_attrs=("seed", "machine"),
        invalidators=("_noise_prefixes",),
        declared={
            "noise_prefixes": ("_noise_prefixes",),
            "_noise_prefix": (
                "_noise_prefixes",
                "clear",
                "seed",
                "machine",
                "_stable_seed",
            ),
            "_noise_multiplier": ("noise_prefixes", "_noise_prefix"),
            "measured_ipc_noise_batch": ("noise_prefixes", "_noise_prefix"),
        },
        runtime_check=(
            "cached-prefix vs seven-part-seed equality on 10k draws "
            "(tests/perfsim/test_simulator.py)"
        ),
    ),
    CacheSurface(
        name="fleet-index-counters",
        class_name="FleetHost",
        module_suffix="scheduler/fleet.py",
        declared={
            "allocate": ("on_allocate",),
            "release": ("on_release",),
        },
        runtime_check=(
            "FleetIndex.assert_consistent randomized replay "
            "(tests/scheduler/test_index.py)"
        ),
    ),
    CacheSurface(
        name="capacity-vectors",
        class_name="FleetIndex",
        module_suffix="scheduler/index.py",
        declared={
            # FleetHost.allocate/release notify the index (see the
            # fleet-index-counters row above); on_allocate/on_release
            # funnel through _resize, which must forward every
            # free-count transition to the attached CapacityTracker,
            # and register must seed newly indexed hosts into it.
            "register": ("_capacity", "on_register"),
            "_resize": ("_capacity", "on_resize"),
            "on_allocate": ("_resize",),
            "on_release": ("_resize",),
        },
        runtime_check=(
            "incremental-vs-brute-force capacity replay "
            "(tests/scheduler/test_capacity.py)"
        ),
    ),
    CacheSurface(
        name="fleet-state-buckets",
        class_name="FleetIndex",
        module_suffix="scheduler/index.py",
        declared={
            # The goal-aware policy picks hosts from the (shape,
            # free-node mask) buckets alone, so every path that changes
            # a host's free nodes must re-file it.  _resize may only
            # early-out on an unchanged *mask*: an unchanged free count
            # (one block swapped for another) is still a state change.
            "register": ("_mask_of", "_enter_state"),
            "_resize": ("_mask_of", "_leave_state", "_enter_state"),
        },
        runtime_check=(
            "FleetIndex.assert_consistent + state-query-vs-scan replay "
            "(tests/scheduler/test_index.py)"
        ),
    ),
    CacheSurface(
        name="block-score-tables",
        class_name="BlockScoreCache",
        module_suffix="core/blockscores.py",
        guarded_attrs=("_versions",),
        invalidators=("_tables",),
        declared={
            # Per-state answers (BlockStateMemo) live inside the entries
            # of _tables, keyed at the shape's current version, so the
            # version bump that drops a shape's tables drops its state
            # memo in the same step.
            "states": ("_versions", "_tables"),
            "invalidate": ("_versions", "_tables"),
        },
        exempt_methods=("clear", "assert_version_consistency"),
        runtime_check="BlockScoreCache.assert_version_consistency",
    ),
    CacheSurface(
        name="model-promotion-memos",
        class_name="ModelServer",
        module_suffix="serving/server.py",
        declared={
            "promote": (
                "_baseline_ipc",
                "invalidate",
                "assert_version_consistency",
            ),
        },
        runtime_check="ModelRegistry.assert_version_consistency",
    ),
    CacheSurface(
        name="policy-lanes",
        class_name="GoalAwareFleetPolicy",
        module_suffix="scheduler/policies.py",
        # A lane is compiled from one (placement set, model) pair and
        # found again by the identity of that pair, so nothing has to
        # invalidate it as long as (a) every lane is keyed by what
        # registry.placements() / registry.model() returned in the same
        # call — a promoted model or a fresh set then simply has no lane
        # — and (b) the one versioned input, the shape's block-state
        # memo, is asked for per batch and never stored in a lane.  The
        # probe rows a lane holds are resolved by the registry, in the
        # same call, for the lane's own input placements (probe_row) and
        # handed back with them: they cannot outlive or mismatch the pair.
        # A lane's smallest block is what the capacity check compares
        # with the index and what the rebalancer frees room for: both
        # read it off the lane, and the check is the only reader of the
        # index's per-shape largest free count.
        declared={
            "_lane": ("_lanes", "placements", "model", "id", "probe_row"),
            "decide_batch": (
                "_lane",
                "_has_room",
                "block_state_memo",
                "probes",
                "inputs",
            ),
            "_place_indexed": ("_has_room",),
            "_has_room": ("largest_free", "smallest"),
            "min_block_nodes": ("_lane", "smallest"),
        },
        derived=(
            "repro.scheduler.policies._Lane.inputs",
            "repro.scheduler.policies._Lane.probes",
            "repro.scheduler.policies._Lane.forest",
            "repro.scheduler.policies._Lane.kind",
            "repro.scheduler.policies._Lane.scorer",
            "repro.scheduler.policies._Lane.targets",
            "repro.scheduler.policies._Lane.sizes",
            "repro.scheduler.policies._Lane.smallest",
            "repro.scheduler.policies._Lane.realized",
        ),
        runtime_check=(
            "lanes-dropped-before-every-batch oracle across a promotion "
            "(tests/scheduler/test_policies.py::TestLanes)"
        ),
    ),
    CacheSurface(
        name="solo-ipc-rows",
        class_name="ModelRegistry",
        module_suffix="scheduler/registry.py",
        # _solo_ipc[(fingerprint, placement)][profile] is a noise-free
        # simulation: a pure function of its two keys, so nothing ever
        # invalidates it — provided whatever adds a row keys it by the
        # machine's fingerprint (_ipc_row is the one method that does),
        # both fillers reach rows through it (the batch through
        # probe_row, which resolves the row with the shape's simulator
        # and that simulator's prefix table for the same placement) and
        # store exactly what the simulator returned, and the entry count
        # the report prints is summed over the rows.
        guarded_attrs=("_solo_ipc",),
        invalidators=("fingerprint",),
        declared={
            "solo_ipc": ("_ipc_row", "measured_ipc", "_ipc_misses"),
            "probe_row": ("_ipc_row", "simulator", "noise_prefixes"),
            "probe_ipc_batch": (
                "probe_row",
                "measured_ipc_batch",
                "_ipc_misses",
                "_ipc_hits",
            ),
            "ipc_cache_info": ("_solo_ipc",),
        },
        runtime_check=(
            "batched-vs-sequential value / hit / miss / entry equality "
            "(tests/scheduler/test_registry_stats.py::TestProbeBatchProperty)"
        ),
    ),
    CacheSurface(
        name="profile-identity",
        class_name="WorkloadProfile",
        module_suffix="perfsim/workload.py",
        # _row and _hash are pure functions of the declared fields, and
        # the dataclass is frozen: never invalidated.  What has to hold
        # is that the row is the declared fields and nothing else, the
        # hash is taken over the row, and a pickled profile is rebuilt
        # from the row alone — the cached hash covers strings, whose
        # hashes are salted per interpreter, so it must never cross a
        # process (nor must it reach a wire row: pipe-safety rule).
        declared={
            "row": ("_row", "_declared_fields"),
            "__hash__": ("_hash", "row"),
            "__reduce__": ("row",),
        },
        runtime_check=(
            "pickle round trip through a subprocess with another "
            "PYTHONHASHSEED (tests/scheduler/test_identity_caches.py)"
        ),
    ),
    CacheSurface(
        name="placement-identity",
        class_name="Placement",
        module_suffix="core/placements.py",
        # _hash is taken in __init__ over exactly what __eq__ compares;
        # no method changes one of those afterwards, and unpickling goes
        # back through __init__ (_rebuild) instead of copying the value.
        guarded_attrs=(
            "_machine",
            "_nodes",
            "_vcpus",
            "_l2_share",
            "_l3_groups_per_node",
        ),
        invalidators=("_hash",),
        declared={
            "__init__": ("_hash", "hash"),
            "__hash__": ("_hash",),
            "__reduce__": ("_rebuild",),
        },
        runtime_check=(
            "pickle round trip through a subprocess with another "
            "PYTHONHASHSEED (tests/scheduler/test_identity_caches.py)"
        ),
    ),
    CacheSurface(
        name="migration-advice",
        class_name="MigrationPlanner",
        module_suffix="migration/planner.py",
        # _advice[(profile, probe_migrations)] is a pure function of its
        # key (under the profile's own cached hash) and of the three
        # settings the constructor assigns: nothing invalidates it while
        # no method changes those in place, and the one method that
        # fills it computes entries through _advise and starts over at
        # the bound.
        guarded_attrs=(
            "engines",
            "latency_sensitive_threshold",
            "max_online_seconds",
        ),
        invalidators=("_advice",),
        declared={
            "advise": ("_advice", "_advise", "clear", "_ADVICE_MEMO_MAX"),
        },
        runtime_check=(
            "remembered-vs-fresh advice equality and the bound "
            "(tests/migration/test_migration.py::TestAdviceMemo)"
        ),
    ),
    CacheSurface(
        name="decoded-placements",
        class_name="PlacementMemo",
        module_suffix="scheduler/wire.py",
        # An interned placement is a pure function of its row and of the
        # machine the row's name resolves to *for this caller*: every
        # lookup resolves the name (an unknown one raises there) and a
        # hit on another machine object is rebuilt, never served.
        declared={
            "__call__": ("_placements", "resolve_machine", "machine", "bound"),
        },
        runtime_check=(
            "interned-vs-rebuilt equality and machine identity "
            "(tests/scheduler/test_wire.py::TestRowCodec::"
            "test_placement_memo_interns_rows_per_machine)"
        ),
    ),
    CacheSurface(
        name="artifact-store",
        class_name="ArtifactStore",
        module_suffix="scheduler/artifacts.py",
        # Every registry of the process is served the same entries, so
        # they go in whole and sealed read-only and are never written
        # afterwards: any method that touches _entries in place (get's
        # insert, refresh and evict are the only ones) must be the one
        # that seals what it inserts.
        guarded_attrs=("_entries",),
        invalidators=("_sealed",),
        exempt_methods=("clear",),
        runtime_check=(
            "stored arrays are read-only and a sibling registry survives "
            "promotion (tests/scheduler/test_artifact_store.py)"
        ),
    ),
    CacheSurface(
        name="shard-respawn-state",
        class_name="SchedulerService",
        module_suffix="scheduler/service.py",
        declared={
            # A respawned worker starts empty: the cached ShardSummary
            # must be reset and the journal replayed through a fresh
            # client, or the router trusts pre-crash state.
            "_recover_shard": ("summaries", "journals", "_make_client"),
            # Deferred departures must survive a down shard: the pairs a
            # message carries leave the outbox through one helper, and a
            # message whose shard went down puts them back at its front
            # (or counts the batch) through the other.
            "_stage_departures": ("_outbox",),
            "_settle_departures": ("_outbox", "departure_batches"),
        },
        runtime_check=(
            "crash-sweep report convergence "
            "(tests/scheduler/test_faults.py)"
        ),
    ),
)


def _self_attr(node: ast.expr) -> Optional[str]:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _base_self_attr(node: ast.expr) -> Optional[str]:
    """``self.attr`` at the base of a subscript chain, if any."""

    while isinstance(node, ast.Subscript):
        node = node.value
    return _self_attr(node)


def _mutations(func: ast.FunctionDef, attrs: Sequence[str]) -> List[ast.AST]:
    """AST nodes that mutate ``self.<attr>`` in place for any watched
    attribute (method calls, subscript stores/deletes, augmented
    assignment)."""

    watched = set(attrs)
    sites: List[ast.AST] = []
    for node in ast.walk(func):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _MUTATING_METHODS:
                attr = _base_self_attr(node.func.value)
                if attr in watched:
                    sites.append(node)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Subscript):
                    attr = _base_self_attr(target)
                    if attr in watched:
                        sites.append(node)
                elif isinstance(node, ast.AugAssign) and isinstance(
                    target, ast.Attribute
                ):
                    if _self_attr(target) in watched:
                        sites.append(node)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    attr = _base_self_attr(target)
                    if attr in watched:
                        sites.append(node)
    return sites


def _touched_tokens(func: ast.FunctionDef) -> Set[str]:
    """Names this method references as ``self.<attr>``, call targets
    (``anything.token(...)`` or ``token(...)``), or assignment targets —
    the vocabulary the ``declared``/``invalidators`` checks match on."""

    tokens: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Attribute):
            tokens.add(node.attr)
        elif isinstance(node, ast.Name):
            tokens.add(node.id)
    return tokens


def _plain_reassignments(func: ast.FunctionDef) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(func):
        targets: Sequence[ast.expr] = ()
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        for target in targets:
            attr = _self_attr(target)
            if attr is not None:
                names.add(attr)
    return names


class MemoInvalidationRule(Rule):
    """Flag cached-state mutations that skip the matching invalidation.

    Motivated by the memo-correctness gates: arena-vs-per-tree
    equivalence (``tests/ml/test_arena.py``), indexed-vs-linear decision
    equivalence (``tests/scheduler/test_index.py``), and the version-
    token keyed serving memos (``tests/serving/test_server.py``).  The
    rule is table-driven: see :data:`CACHE_SURFACES`.
    """

    id = "memo-invalidation"
    packages = None  # surfaces carry their own module scoping

    def check(self, module: ModuleInfo) -> List[Finding]:
        findings: List[Finding] = []
        normalized = module.path.replace("\\", "/")
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for surface in CACHE_SURFACES:
                if node.name != surface.class_name:
                    continue
                if module.subpackage is not None and not normalized.endswith(
                    surface.module_suffix
                ):
                    continue
                findings.extend(self._check_surface(module, node, surface))
        return findings

    def _check_surface(
        self, module: ModuleInfo, node: ast.ClassDef, surface: CacheSurface
    ) -> List[Finding]:
        findings: List[Finding] = []
        methods = [
            stmt for stmt in node.body if isinstance(stmt, ast.FunctionDef)
        ]
        for method in methods:
            declared = surface.declared.get(method.name)
            if declared:
                tokens = _touched_tokens(method)
                missing = [t for t in declared if t not in tokens]
                if missing:
                    findings.append(
                        self.finding(
                            module,
                            method,
                            f"{node.name}.{method.name} is declared to "
                            f"maintain the {surface.name!r} surface but "
                            f"never touches {', '.join(missing)} "
                            f"(runtime check: {surface.runtime_check})",
                        )
                    )
            if not surface.guarded_attrs:
                continue
            if method.name in surface.exempt_methods:
                continue
            sites = _mutations(method, surface.guarded_attrs)
            if not sites:
                continue
            tokens = _touched_tokens(method)
            reassigned = _plain_reassignments(method)
            invalidated = any(
                token in tokens for token in surface.invalidators
            ) or any(prop in reassigned for prop in surface.setter_resets)
            if not invalidated:
                expected = " or ".join(
                    [f"self.{t}" for t in surface.invalidators]
                    + [f"reassigning self.{p}" for p in surface.setter_resets]
                )
                findings.append(
                    self.finding(
                        module,
                        sites[0],
                        f"{node.name}.{method.name} mutates "
                        f"{'/'.join(surface.guarded_attrs)} "
                        f"({surface.name!r} surface) without invalidating "
                        f"— expected {expected} "
                        f"(runtime check: {surface.runtime_check})",
                    )
                )
        return findings


__all__ = ["CACHE_SURFACES", "CacheSurface", "MemoInvalidationRule"]
