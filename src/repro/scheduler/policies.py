"""Fleet placement policies: who gets which nodes of which host.

Three pluggable policies, spanning the spectrum the paper's Section 7
studies on one machine:

* :class:`FirstFitFleetPolicy` — classic bin-packing: scan hosts in id
  order, take the first that has a minimum-size free node block.  Densest
  packing, no performance awareness.
* :class:`SpreadFleetPolicy` — load-balanced: same block choice, but scan
  hosts emptiest-first, so containers land away from each other for as long
  as the fleet allows.
* :class:`GoalAwareFleetPolicy` — the paper's ML policy at fleet scale:
  probe each container in the model's two input placements, predict its
  whole performance vector in one batched call, pick the cheapest important
  placement predicted to meet its goal, then find a host with a free node
  block matching that placement's interconnect score.

Policies mutate the fleet (they allocate as they decide — later requests in
a batch must see earlier allocations) and return one
:class:`FleetDecision` per request, in request order.
"""

from __future__ import annotations

import abc
import inspect
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Sequence, Tuple


from repro.core.blockscores import BlockStateMemo, block_state_memo
from repro.core.enumeration import ImportantPlacementSet
from repro.core.model import PlacementModel, goal_order
from repro.core.placements import Placement
from repro.core.serialize import Record
from repro.ml.arena import predict_fused
from repro.ml.forest import RandomForestRegressor
from repro.perfsim.simulator import NoiseBatch
from repro.scheduler.fleet import Fleet, FleetHost, minimal_shape
from repro.scheduler.index import FleetIndex
from repro.scheduler.registry import ModelRegistry, ProbeRow
from repro.scheduler.requests import PlacementRequest
from repro.topology.machine import MachineTopology


@dataclass(slots=True)
class FleetDecision(Record):
    """What the fleet did with one request."""

    request: PlacementRequest
    host_id: int | None = None
    placement: Placement | None = None
    #: 1-based important-placement id the realized placement instantiates
    #: (None for the heuristic policies, which do not enumerate).
    placement_id: int | None = None
    #: Predicted performance relative to the shape's baseline placement.
    predicted_relative: float | None = None
    #: False when no free block matched the chosen placement's interconnect
    #: score and a differently-scored block of the same size was used.
    block_exact: bool = True
    reject_reason: str | None = None

    @property
    def placed(self) -> bool:
        return self.placement is not None

    def describe(self) -> str:
        if not self.placed:
            return f"{self.request.describe()} -> REJECTED ({self.reject_reason})"
        parts = [f"host {self.host_id}", f"nodes {list(self.placement.nodes)}"]
        if self.placement_id is not None:
            parts.insert(1, f"placement #{self.placement_id}")
        if self.predicted_relative is not None:
            parts.append(f"predicted {self.predicted_relative:.2f}")
        if not self.block_exact:
            parts.append("score-mismatched block")
        return f"{self.request.describe()} -> {', '.join(parts)}"


class FleetPolicy(abc.ABC):
    """Decides, and immediately allocates, one batch of requests.

    :meth:`decide_batch` is the one canonical contract every policy
    implements; the single-request :meth:`decide` is a thin wrapper over
    it, so a policy's batched and one-at-a-time paths cannot diverge.
    """

    name: str

    @abc.abstractmethod
    def decide_batch(
        self, requests: Sequence[PlacementRequest], fleet: Fleet
    ) -> List[FleetDecision]:
        """One decision per request, in order; placed requests are already
        allocated on their host when this returns."""

    def decide(
        self, request: PlacementRequest, fleet: Fleet
    ) -> FleetDecision:
        """Single-request convenience: ``decide_batch([request])[0]``."""
        return self.decide_batch([request], fleet)[0]

    def min_block_nodes(
        self, machine: MachineTopology, vcpus: int
    ) -> int | None:
        """Smallest free node block this policy could use for ``vcpus`` on
        a shape, or None when the shape cannot host them at all.

        The lifecycle rebalancer consolidates exactly this many nodes
        before retrying a fragmentation-rejected request, so a policy
        whose placements need bigger blocks than the minimal balanced
        shape must override this (see :class:`GoalAwareFleetPolicy`).
        """
        try:
            return minimal_shape(machine, vcpus)[0]
        except ValueError:
            return None


class _HeuristicFleetPolicy(FleetPolicy):
    """Shared machinery of the model-free policies.

    Host selection queries the fleet's incremental
    :class:`~repro.scheduler.index.FleetIndex` — only hosts whose bucketed
    largest free block can fit the request are visited — and block
    search reads the shared per-shape
    :class:`~repro.core.blockscores.BlockStateMemo`.  The linear scan over
    ``fleet.hosts`` it reproduces, bit for bit, is the test oracle
    ``tests/scheduler/oracle_linear.py``.
    """

    def __init__(self) -> None:
        #: (fingerprint, vcpus) -> (n_nodes, l2_share) | None, memoized —
        #: the minimal balanced shape is a pure function of the key.
        self._shape_cache: Dict[Tuple, Tuple[int, int] | None] = {}

    def decide_batch(self, requests, fleet):
        return [self._decide_one(request, fleet) for request in requests]

    def _shape_plan(
        self, machine: MachineTopology, vcpus: int
    ) -> Tuple[int, int] | None:
        key = (machine.fingerprint(), vcpus)
        if key not in self._shape_cache:
            try:
                self._shape_cache[key] = minimal_shape(machine, vcpus)
            except ValueError:
                self._shape_cache[key] = None
        return self._shape_cache[key]

    def _decide_one(
        self, request: PlacementRequest, fleet: Fleet
    ) -> FleetDecision:
        index = fleet.index
        #: fingerprint -> (machine, n_nodes, l2_share) | None
        plans: Dict[Tuple, Tuple[MachineTopology, int, int] | None] = {}
        feasible_anywhere = False
        for fingerprint, machine in index.machines():
            shape = self._shape_plan(machine, request.vcpus)
            if shape is None:
                plans[fingerprint] = None
                continue
            plans[fingerprint] = (machine, shape[0], shape[1])
            feasible_anywhere = True
        host = self._select_host(fleet, plans) if feasible_anywhere else None
        if host is None:
            reason = "capacity" if feasible_anywhere else "infeasible"
            return FleetDecision(request, reject_reason=reason)
        machine, n_nodes, l2_share = plans[host.machine.fingerprint()]
        block = host.find_block(
            n_nodes, table=block_state_memo(machine, "interconnect")
        )
        placement = Placement(machine, block, request.vcpus, l2_share=l2_share)
        host.allocate(request.request_id, placement)
        return FleetDecision(
            request, host_id=host.host_id, placement=placement
        )

    @abc.abstractmethod
    def _select_host(
        self,
        fleet: Fleet,
        plans: Dict[Tuple, Tuple[MachineTopology, int, int] | None],
    ) -> FleetHost | None:
        """The host the policy's scan order reaches first among those
        that can fit the plan, found via index buckets (hosts that cannot
        fit it are never visited)."""


class FirstFitFleetPolicy(_HeuristicFleetPolicy):
    """Bin-packing: first host (in id order) with a minimum free block."""

    name = "first-fit"

    def _select_host(self, fleet, plans):
        best: int | None = None
        for fingerprint, plan in plans.items():
            if plan is None:
                continue
            ids = fleet.index.candidates(fingerprint, plan[1])
            if ids:
                lowest = min(ids)
                if best is None or lowest < best:
                    best = lowest
        return None if best is None else fleet.hosts[best]


class SpreadFleetPolicy(_HeuristicFleetPolicy):
    """Load balancing: emptiest host first."""

    name = "spread"

    def _select_host(self, fleet, plans):
        # Spread visits hosts emptiest first, in (node_utilization,
        # thread_utilization, host_id) order.  Every host in one (shape,
        # free-count) bucket shares the same node utilization — computed
        # with the same division the per-host property uses, so equal
        # floats stay equal — which lets whole buckets be ranked first and
        # only the winning utilization class be scanned per host.
        index = fleet.index
        classes: Dict[float, List[int]] = {}
        for fingerprint, plan in plans.items():
            if plan is None:
                continue
            machine, needed, _ = plan
            for size, ids in index.buckets(fingerprint).items():
                if size >= needed and ids:
                    classes.setdefault(
                        1.0 - size / machine.n_nodes, []
                    ).extend(ids)
        if not classes:
            return None
        winners = classes[min(classes)]
        return min(
            (fleet.hosts[host_id] for host_id in winners),
            key=lambda h: (h.thread_utilization, h.host_id),
        )


class _Lane(NamedTuple):
    """Everything the decision path derives from one ``(placement set,
    model)`` pair — compiled when the pair is first seen, then read.

    A lane is a pure function of the two objects it names (both are
    immutable once served: sets come from the enumeration cache, models
    are sealed by the artifact store and replaced, never refitted, on
    promotion), so it is valid exactly as long as the registry still
    serves that pair; see :meth:`GoalAwareFleetPolicy._lane`.
    """

    placements: ImportantPlacementSet
    model: PlacementModel
    fingerprint: Tuple
    #: The model's two input placements: what arrivals are probed in.
    inputs: Tuple[Placement, Placement]
    #: The registry's :class:`~repro.scheduler.registry.ProbeRow` of each
    #: input: memo row, simulator and noise-prefix table, keyed once.
    #: They outlive any lane (the registry never drops a row), so the
    #: lane's own identity rule is the only one they need.
    probes: Tuple[ProbeRow, ProbeRow]
    forest: RandomForestRegressor
    #: The set's block scorer's :func:`block_state_memo` kind, and each
    #: candidate's interconnect score and node count, by index.
    kind: str
    targets: Tuple[float, ...]
    sizes: Tuple[int, ...]
    #: The smallest of ``sizes``: a host with fewer free nodes can hold
    #: no candidate of this lane, one with as many can hold that one.
    smallest: int
    #: Per candidate, ``block -> realized Placement``: validated once per
    #: distinct block and shared by every request realized on it
    #: (placements are immutable; hosts only hold references).
    realized: Tuple[Dict[Tuple[int, ...], Placement], ...]


class GoalAwareFleetPolicy(FleetPolicy):
    """The paper's model-driven policy lifted to the fleet.

    A decision is two probe observations, one forest call and a host
    search; everything else it needs is a pure function of the ``(shape,
    vCPUs)`` key and lives in that key's **lane** (:class:`_Lane`): the
    two input placements with the registry's probe row of each, the
    forest, the block scorer with every candidate's target score and
    size, and the realized placements already validated.  A batch
    therefore does, per key, one lane lookup, two
    :meth:`~repro.scheduler.registry.ModelRegistry.probe_ipc_batch`
    calls (one memo lookup per request each) and one feature assembly
    over the Python floats they return; across all keys, one noise draw
    (:class:`~repro.perfsim.simulator.NoiseBatch`: every probe's
    generator derived in one pass) and one
    :func:`~repro.ml.arena.predict_fused` call; and per request a
    preference sort over Python floats and a walk down it.

    A probe needs a free block to run in, so ``capacity`` is answered
    before any of that, from the fleet index (:meth:`_has_room`: the
    shape's largest free-node count against the lane's smallest
    candidate): a lane whose shape has no room when the batch begins is
    not probed or predicted at all, a key with no other lane is not
    probed either, and a request whose key ran out of room to earlier
    requests of its batch is rejected before its preferences are sorted.
    The walk that would have found the same answer is kept as a test
    oracle (``tests/scheduler/oracle_policy.py``).

    Lanes are found through ``registry.placements()`` /
    ``registry.model()`` on every batch, by the identity of what those
    return: a promoted model (:class:`~repro.serving.server.ModelServer`)
    or a fresh placement set simply has no lane yet and gets one, the
    registry's accounting sees the same calls as ever, and nothing has to
    invalidate anything.  The one
    *versioned* input, the shape's block-state memo, is fetched per batch
    for the same reason.  Lanes are LRU-bounded.

    Parameters
    ----------
    registry:
        Source of per-shape placements, models, and simulators.
    safety_margin:
        Predictions must clear the goal by this fraction (headroom for
        prediction error, as in :class:`repro.core.policies.MlPolicy`).
    best_effort_slack:
        For goal-less requests: any placement predicted within this
        fraction of the best prediction is acceptable, and the cheapest
        such placement wins.  1.0 reproduces the single-machine
        scheduler's pure argmax; the default trades a little predicted
        performance for much denser packing.
    probe_duration_s:
        Simulated probe length ("for a couple of seconds", Section 1).

    Host selection asks the fleet index for the lowest-id host per
    free-node *state* (one shared per-shape memo lookup per distinct
    state, one ``find_block`` per placement); the triple-loop linear scan
    over the same probes and predictions that it reproduces, bit for bit,
    is the test oracle ``tests/scheduler/oracle_linear.py``.
    """

    name = "ml"

    def __init__(
        self,
        registry: ModelRegistry | None = None,
        *,
        safety_margin: float = 0.05,
        best_effort_slack: float = 0.9,
        probe_duration_s: float = 3.0,
    ) -> None:
        if safety_margin < 0:
            raise ValueError("safety_margin must be >= 0")
        if not 0.0 < best_effort_slack <= 1.0:
            raise ValueError("best_effort_slack must be in (0, 1]")
        self.registry = registry or ModelRegistry()
        self.safety_margin = safety_margin
        self.best_effort_slack = best_effort_slack
        self.probe_duration_s = probe_duration_s
        #: Batched-prediction accounting for the fleet report: one fused
        #: forest call per decide_batch that probed anything, however many
        #: keys it spans; rows count probed requests only.
        self.predict_calls = 0
        self.predicted_rows = 0
        #: (id(placements), id(model)) -> lane, least recently used
        #: first.  A lane references both objects, so a cached id can
        #: never be recycled; the bound keeps that from pinning every
        #: pair a long run ever saw — a registry serves a handful of
        #: long-lived pairs that stay resident, and one that minted a set
        #: per call would only ever evict its own litter.
        self._lanes: Dict[Tuple[int, int], _Lane] = {}
        self._lanes_max = 32

    # ------------------------------------------------------------------

    def _lane(self, machine: MachineTopology, vcpus: int) -> _Lane | None:
        """The lane of what the registry serves for a key right now;
        None when the shape cannot host the key."""
        try:
            placements = self.registry.placements(machine, vcpus)
            model = self.registry.model(machine, vcpus)
        except ValueError:
            return None
        key = (id(placements), id(model))
        lane = self._lanes.pop(key, None)
        if lane is None:
            while len(self._lanes) >= self._lanes_max:
                del self._lanes[next(iter(self._lanes))]
            bandwidth = placements.concerns.bandwidth_concern
            if bandwidth is None:
                kind, scorer = "zero", lambda nodes: 0.0
            else:
                kind, scorer = "interconnect", bandwidth.score_nodes
            i, j = model.input_pair
            inputs = (placements[i], placements[j])
            sizes = tuple(c.n_nodes for c in placements)
            lane = _Lane(
                placements,
                model,
                machine.fingerprint(),
                inputs,
                tuple(self.registry.probe_row(machine, p) for p in inputs),
                model.forest,
                kind,
                tuple(scorer(frozenset(c.nodes)) for c in placements),
                sizes,
                min(sizes),
                tuple({} for _ in placements),
            )
        self._lanes[key] = lane  # (re)inserted last: most recently used
        return lane

    def min_block_nodes(
        self, machine: MachineTopology, vcpus: int
    ) -> int | None:
        """The goal-aware policy only instantiates important placements,
        whose smallest block can exceed the minimal balanced shape
        (Algorithm 2 keeps only blocks that tile the whole machine)."""
        lane = self._lane(machine, vcpus)
        return None if lane is None else lane.smallest

    def _has_room(self, index: FleetIndex, lane: _Lane) -> bool:
        """Whether any host of the lane's shape can hold any of its
        candidates right now.  Exact: whole nodes are granted, so a host
        holds *some* block of a size iff it has that many nodes free,
        and the shape's emptiest host has ``largest_free`` of them."""
        return index.largest_free(lane.fingerprint) >= lane.smallest

    def decide_batch(self, requests, fleet):
        # Phase 1: probe each (shape, vcpus) group in its lane's input
        # placements — every probe of the batch drawn in one NoiseBatch —
        # then predict the *whole batch* — every group of every shape — in
        # one predict_fused call per fleet event.
        groups: Dict[int, List[PlacementRequest]] = {}
        for request in requests:
            groups.setdefault(request.vcpus, []).append(request)
        index, shapes = fleet.index, fleet.shapes
        #: vcpus -> (lane, block-state memo, request id -> prediction row)
        #: per shape with room, in shape order.  No entry: no shape can
        #: host the group at all; an empty one: some can, none has room.
        searches: Dict[int, List[Tuple]] = {}
        #: Per group still to probe: (vcpus, its lane on each shape with
        #: room — None elsewhere — profiles, request ids, the second
        #: probe's repetitions).
        probed: List[Tuple] = []
        for vcpus, group in groups.items():
            # A probe needs a free block to run in, and allocations inside
            # a batch only shrink free space: a lane no host of its shape
            # has room for now is neither probed nor searched, and a group
            # with no other lane is answered without probing it.
            lanes = []
            hostable = False
            for machine in shapes:
                lane = self._lane(machine, vcpus)
                if lane is not None:
                    hostable = True
                    if not self._has_room(index, lane):
                        lane = None
                lanes.append(lane)
            if lanes.count(None) == len(lanes):
                if hostable:
                    searches[vcpus] = []
                continue
            ids = [request.request_id for request in group]
            probed.append(
                (
                    vcpus,
                    lanes,
                    [request.profile for request in group],
                    ids,
                    [request_id + 1 for request_id in ids],
                )
            )
        noise = NoiseBatch(self.probe_duration_s)
        probes: List[Tuple] = []
        for shape, machine in enumerate(shapes):
            for vcpus, lanes, profiles, ids, next_ids in probed:
                lane = lanes[shape]
                if lane is None:
                    continue
                for probe, placement, repetitions in zip(
                    lane.probes, lane.inputs, (ids, next_ids)
                ):
                    noise.add(
                        probe.simulator,
                        profiles,
                        placement,
                        repetitions,
                        probe.prefixes,
                    )
                probes.append((machine, lane, vcpus, profiles, ids))
        if probes:
            registry = self.registry
            multipliers = noise.multipliers()
            plans: List[Tuple] = []
            for (machine, lane, vcpus, profiles, ids), noise_i, noise_j in zip(
                probes, multipliers[0::2], multipliers[1::2]
            ):
                obs_i = registry.probe_ipc_batch(
                    machine,
                    profiles,
                    lane.inputs[0],
                    multipliers=noise_i,
                    row=lane.probes[0],
                )
                obs_j = registry.probe_ipc_batch(
                    machine,
                    profiles,
                    lane.inputs[1],
                    multipliers=noise_j,
                    row=lane.probes[1],
                )
                # The block-state memo is versioned (a promotion bumps
                # it), so it is asked for per batch, never kept in a lane.
                memo = block_state_memo(machine, lane.kind)
                features = lane.model.batch_features(obs_i, obs_j)
                plans.append((lane, memo, vcpus, ids, features))
            outputs = predict_fused(
                [(lane.forest, features) for lane, _, _, _, features in plans]
            )
            self.predict_calls += 1
            for (lane, memo, vcpus, ids, _), vectors in zip(plans, outputs):
                self.predicted_rows += len(ids)
                searches.setdefault(vcpus, []).append(
                    (lane, memo, dict(zip(ids, vectors.tolist())))
                )

        # Phase 2: place each request, in arrival order.  The first
        # request sees the free space the lanes were filtered on; a later
        # one may find that earlier ones took it.
        return [
            self._place(
                request, fleet, searches.get(request.vcpus), recheck=k > 0
            )
            for k, request in enumerate(requests)
        ]

    def _ranked(self, request: PlacementRequest, plans: List[Tuple]):
        """Per hostable shape ``(lane, memo, the request's prediction
        row, its preference order)``: the goal rule
        (:func:`~repro.core.model.goal_order`) at the request's goal, or
        for a best-effort request at ``best_effort_slack`` of the row's
        best prediction."""
        request_id, goal = request.request_id, request.goal_fraction
        ranked = []
        for lane, memo, rows in plans:
            row = rows[request_id]
            if goal is None:
                threshold = self.best_effort_slack * max(row)
            else:
                threshold = goal * (1.0 + self.safety_margin)
            ranked.append((lane, memo, row, goal_order(lane.sizes, row, threshold)))
        return ranked

    def _place(
        self,
        request: PlacementRequest,
        fleet: Fleet,
        plans: List[Tuple] | None,
        *,
        recheck: bool,
    ) -> FleetDecision:
        """The linear triple loop ``(exact, rank, host)`` (the oracle in
        ``tests/scheduler/oracle_linear.py``) with the host dimension
        collapsed: per candidate rank the fleet index names the
        lowest-id host whose free-node *state* admits the block (one memo
        lookup per distinct state present, not one ``find_block`` per
        host), and only that winner is searched and allocated for real.
        Every lane of ``plans`` had room when the batch began; ``recheck``
        asks whether one still has."""
        if plans is None:
            return FleetDecision(request, reject_reason="infeasible")
        index = fleet.index
        if recheck:
            for lane, _, _ in plans:
                if self._has_room(index, lane):
                    break
            else:
                plans = []
        if not plans:
            # Every pass of the walk below would come back empty: its
            # last resort, any block of the smallest candidate's size,
            # exists iff some lane has room.
            return FleetDecision(request, reject_reason="capacity")
        ranked = self._ranked(request, plans)
        max_rank = max(len(order) for *_, order in ranked)
        for exact in (True, False):
            for rank in range(max_rank):
                best_host = None
                for entry in ranked:
                    lane, memo, _, order = entry
                    if rank >= len(order):
                        continue
                    candidate = order[rank]
                    host_id = index.lowest_host(
                        lane.fingerprint,
                        memo,
                        lane.sizes[candidate],
                        lane.targets[candidate] if exact else None,
                    )
                    # A host has one shape, so ids never tie across lanes.
                    if host_id is not None and (
                        best_host is None or host_id < best_host
                    ):
                        best_host, best, choice = host_id, entry, candidate
                if best_host is None:
                    continue
                lane, memo, vector, _ = best
                decision = self._try_candidate(
                    request,
                    fleet.hosts[best_host],
                    lane,
                    vector,
                    choice,
                    target=lane.targets[choice] if exact else None,
                    table=memo,
                )
                if decision is None:
                    raise RuntimeError(
                        f"fleet index out of sync with host {best_host}"
                    )
                return decision
        return FleetDecision(request, reject_reason="capacity")

    def _try_candidate(
        self,
        request: PlacementRequest,
        host: FleetHost,
        lane: _Lane,
        vector: Sequence[float],
        index: int,
        *,
        target: float | None,
        table: BlockStateMemo,
    ) -> FleetDecision | None:
        """Allocate the candidate on ``host`` if a free block admits it:
        one scoring exactly ``target`` (the prediction then transfers
        verbatim), or, with ``target`` None, any block of its size."""
        block = host.find_block(
            lane.sizes[index], table=table, target_score=target
        )
        if block is None:
            return None
        realized = lane.realized[index].get(block)
        if realized is None:
            candidate = lane.placements[index]
            realized = lane.realized[index][block] = Placement(
                host.machine,
                block,
                request.vcpus,
                l2_share=candidate.l2_share,
                l3_groups_per_node=candidate.l3_score // candidate.n_nodes,
            )
        host.allocate(request.request_id, realized)
        return FleetDecision(
            request,
            host_id=host.host_id,
            placement=realized,
            placement_id=index + 1,
            predicted_relative=vector[index],
            block_exact=target is not None,
        )


# ----------------------------------------------------------------------
# Policy registry
# ----------------------------------------------------------------------

#: Name -> policy class.  The CLI, shard workers, benchmarks, and
#: examples all instantiate through :func:`make_policy`, so the
#: constructor matrix (who takes a registry, who takes which knobs) is
#: spelled in exactly one place.  Register new policies here and every
#: surface — ``repro schedule --policy``, ``repro serve``, the sharded
#: service's workers — picks them up.
POLICIES: Dict[str, type] = {
    FirstFitFleetPolicy.name: FirstFitFleetPolicy,
    SpreadFleetPolicy.name: SpreadFleetPolicy,
    GoalAwareFleetPolicy.name: GoalAwareFleetPolicy,
}


def _factory(name: str):
    try:
        return POLICIES[name]
    except KeyError:
        raise KeyError(
            f"unknown policy {name!r}; registered: "
            f"{', '.join(sorted(POLICIES))}"
        )


def is_model_driven(name: str) -> bool:
    """Whether the named policy's constructor takes a registry — the
    model-driven policies do, the heuristic ones make no predictions."""
    return "registry" in inspect.signature(_factory(name)).parameters


def make_policy(
    name: str,
    *,
    registry: ModelRegistry | None = None,
    **kwargs,
) -> FleetPolicy:
    """Instantiate a registered policy by name.

    ``registry`` is passed to policies whose constructor accepts one (the
    model-driven ones) and ignored by the rest — heuristic policies make
    no predictions, but their callers still hold a registry for grading,
    and a uniform call site beats a per-policy constructor matrix.
    Extra keyword arguments go to the constructor verbatim.
    """
    factory = _factory(name)
    if is_model_driven(name):
        return factory(registry, **kwargs)
    return factory(**kwargs)
