"""Flat-row codec for the shard boundary.

What the front end and a shard say to each other about a request is a
fixed-layout row of scalars, not a dict of dicts:

* an **arrival** (one of an ``arrive`` message's events) is
  ``(request_id, vcpus, goal_fraction, arrival_time, lifetime,
  profile_row, event_time)``, ``profile_row`` being the
  :class:`~repro.perfsim.workload.WorkloadProfile` fields as declared;
* a **state change** (a reply's ``records``) is the engine's record
  ``(kind, request_id, payload, *sample)``
  (:mod:`repro.scheduler.lifecycle`) with its payload encoded and
  nothing else touched: an outcome's or a re-grade's graded row
  ``(request_id, host_id, placement_row | None, placement_id,
  predicted_relative, block_exact, reject_reason, achieved_relative,
  violated, decision_seconds)`` nested as one element — no request
  echo: the front end re-attaches the request it sent, by position — a
  move's :class:`~repro.scheduler.lifecycle.MigrationRecord` fields as
  one row, and a departure's ``released`` as it is; an outcome's and a
  departure's row end with the fleet's sample, its five fields;
* a **summary** (:class:`ShardSummary`, on every reply) is its scalar
  fields as declared, then ``shapes`` as one ``(name, *h)`` sub-row per
  machine shape, ``h`` being the shape's free-node histogram (``h[k]``
  hosts have ``k`` free nodes; ``scheduler/capacity.py`` derives every
  free-space answer from it).

Rows hold JSON-safe scalars only, so a message is immutable on the
inline transport, pickles small over the pipe, and decodes to equal
objects after a JSON round trip (tuples come back as lists; decoders
take both).  A type flattened whole takes its layout from
``dataclasses.fields``, so a new field cannot be forgotten.  The
*report* format is :class:`~repro.core.serialize.Record`'s ``to_dict``
/ ``from_dict``; on the shard boundary only the ``report`` reply uses
it (process counters only), never requests, records or summaries.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from operator import attrgetter
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.core.placements import Placement
from repro.core.serialize import resolve_machine
from repro.perfsim.workload import WorkloadProfile
from repro.scheduler.lifecycle import (
    MIGRATED,
    PLACED,
    REGRADED,
    REJECTED,
    FragmentationSample,
    MigrationRecord,
)
from repro.scheduler.policies import FleetDecision
from repro.scheduler.requests import PlacementRequest
from repro.scheduler.scheduler import GradedDecision
from repro.topology.machine import MachineTopology


class ShardError(RuntimeError):
    """A shard boundary failure the front-end can reason about: a
    transport that broke, or a reply that does not decode."""

    def __init__(self, shard_id: int, detail: str) -> None:
        super().__init__(f"shard {shard_id}: {detail}")
        self.shard_id = shard_id
        self.detail = detail


@dataclass(frozen=True)
class ShardSummary:
    """The cheap per-shard state the front-end routes on.

    Deliberately tiny — a few counters plus one free-node histogram per
    machine *shape* (not per host, ``n_nodes + 1`` ints), so refreshing
    it costs O(#shapes) reads of the shard's incremental index, and
    shipping it costs a few hundred bytes however many hosts the shard
    owns.  The router treats it as *advisory*: between refreshes it goes
    stale, and a placement routed on stale numbers is recovered by the
    service's optimistic retry.
    """

    shard_id: int
    n_hosts: int
    free_nodes_total: int
    total_nodes: int
    used_threads: int
    total_threads: int
    active_containers: int
    #: machine name -> free-node histogram ``h`` (``h[k]`` hosts of the
    #: shape have ``k`` free nodes).
    shapes: Dict[str, List[int]]

    @classmethod
    def initial(
        cls, shard_id: int, machines: Sequence[MachineTopology]
    ) -> "ShardSummary":
        """The summary of a freshly built (empty) shard — what the router
        knows before the shard's first response arrives."""
        shapes: Dict[str, List[int]] = {}
        for machine in machines:
            histogram = shapes.setdefault(
                machine.name, [0] * (machine.n_nodes + 1)
            )
            histogram[machine.n_nodes] += 1
        return cls(
            shard_id=shard_id,
            n_hosts=len(machines),
            free_nodes_total=sum(m.n_nodes for m in machines),
            total_nodes=sum(m.n_nodes for m in machines),
            used_threads=0,
            total_threads=sum(m.total_threads for m in machines),
            active_containers=0,
            shapes=shapes,
        )


#: The fields of the sample an outcome's and a departure's row end with.
SAMPLE_WIDTH = len(FragmentationSample._fields)

#: ``WorkloadProfile -> row``: the declared fields, built once per profile.
profile_row = WorkloadProfile.row
_request_row = attrgetter(
    "request_id", "vcpus", "goal_fraction", "arrival_time", "lifetime"
)
_placement_row = attrgetter(
    "machine.name", "nodes", "vcpus", "l2_share", "l3_groups_per_node"
)
_decision_row = attrgetter(
    "placement_id", "predicted_relative", "block_exact", "reject_reason"
)
_grade_row = attrgetter("achieved_relative", "violated", "decision_seconds")
_migration_row = attrgetter(*(f.name for f in fields(MigrationRecord)))
_SUMMARY_SCALARS = tuple(
    f.name for f in fields(ShardSummary) if f.name != "shapes"
)
_summary_row = attrgetter(*_SUMMARY_SCALARS)


class ProfileMemo:
    """Bounded ``profile_row -> WorkloadProfile`` memo of one decoder.

    Validation (``__post_init__``) runs once per distinct profile; a
    repeat costs one dict lookup.  Jittered streams mint a one-off
    profile per request, so the memo is cleared when it reaches
    ``bound`` instead of growing with the stream.  An entry is a pure
    function of its key: nothing to invalidate.
    """

    def __init__(self, bound: int = 4096) -> None:
        self.bound = bound
        self._profiles: Dict[tuple, WorkloadProfile] = {}

    def __len__(self) -> int:
        return len(self._profiles)

    def __call__(self, row: Sequence) -> WorkloadProfile:
        key = row if type(row) is tuple else tuple(row)
        profile = self._profiles.get(key)
        if profile is None:
            if len(self._profiles) >= self.bound:
                self._profiles.clear()
            profile = self._profiles[key] = WorkloadProfile(*key)
        return profile


class PlacementMemo:
    """Bounded ``placement row -> Placement`` memo: the front end's twin
    of the policy's realized-placement memo.

    A fleet realizes a few hundred distinct ``(shape, nodes, sharing)``
    placements however many requests it places, so a decoded reply
    validates a :class:`~repro.core.placements.Placement` once per
    distinct row, not once per request.  Placements are immutable, so
    decisions share them safely.  Cleared when it reaches ``bound``,
    like :class:`ProfileMemo`; an entry is a pure function of its row and
    of the machine its name resolves to, which is checked on every hit.
    """

    def __init__(self, bound: int = 4096) -> None:
        self.bound = bound
        self._placements: Dict[tuple, Placement] = {}

    def __len__(self) -> int:
        return len(self._placements)

    def __call__(
        self, row: Sequence, machines: Mapping[str, MachineTopology]
    ) -> Placement:
        name, nodes, vcpus, l2_share, l3_groups = row
        key = (name, tuple(nodes), vcpus, l2_share, l3_groups)
        machine = resolve_machine(name, machines)
        placement = self._placements.get(key)
        if placement is None or placement.machine is not machine:
            if placement is None and len(self._placements) >= self.bound:
                self._placements.clear()
            placement = self._placements[key] = Placement(
                machine,
                nodes,
                vcpus,
                l2_share=l2_share,
                l3_groups_per_node=l3_groups,
            )
        return placement


#: The process's decode-side memo (``decode_graded`` keeps its signature).
_PLACEMENTS = PlacementMemo()


def encode_arrival(request: PlacementRequest, event_time: float) -> tuple:
    return (*_request_row(request), profile_row(request.profile), event_time)


def decode_arrival(
    row: Sequence, profiles: ProfileMemo
) -> Tuple[PlacementRequest, float]:
    request_id, vcpus, goal, arrival_time, lifetime, profile, event_time = row
    request = PlacementRequest(
        request_id, profiles(profile), vcpus, goal, arrival_time, lifetime
    )
    return request, event_time


def encode_graded(entry: GradedDecision) -> tuple:
    decision = entry.decision
    placement = decision.placement
    return (
        decision.request.request_id,
        decision.host_id,
        None if placement is None else _placement_row(placement),
        *_decision_row(decision),
        *_grade_row(entry),
    )


def decode_graded(
    row: Sequence,
    request: PlacementRequest,
    machines: Mapping[str, MachineTopology],
) -> GradedDecision:
    """Rebuild a graded decision around ``request`` — the one the caller
    sent at this position.  ``row[0]`` is the shard's echo of its id;
    checking it is the caller's job (it knows which shard to blame)."""
    _, host_id, placement, *decision, achieved, violated, seconds = row
    if placement is not None:
        placement = _PLACEMENTS(placement, machines)
    return GradedDecision(
        FleetDecision(request, host_id, placement, *decision),
        achieved,
        violated,
        seconds,
    )


#: kind -> the wire form of its record's payload; a departure's
#: ``released`` crosses as it is.
_PAYLOADS = {
    PLACED: encode_graded,
    REJECTED: encode_graded,
    REGRADED: encode_graded,
    MIGRATED: _migration_row,
}


def encode_change(record: tuple) -> tuple:
    """A state change record's wire row: the record with its payload
    encoded, kind, request id and sample untouched."""
    encode = _PAYLOADS.get(record[0])
    if encode is None:
        return record
    return (record[0], record[1], encode(record[2]), *record[3:])


def decode_move(row: Sequence, shard: int, shards: int) -> MigrationRecord:
    """A move's field row, its host ids made fleet-global: local host
    ``h`` of shard ``shard`` (of ``shards``) is global host
    ``h * shards + shard``."""
    move = MigrationRecord(*row)
    return replace(
        move,
        source_host=move.source_host * shards + shard,
        dest_host=move.dest_host * shards + shard,
    )


def encode_summary(summary: ShardSummary) -> tuple:
    return (
        *_summary_row(summary),
        tuple(
            (name, *histogram)
            for name, histogram in summary.shapes.items()
        ),
    )


def decode_summary(row: Sequence, shard_id: int) -> ShardSummary:
    """Rebuild the summary shard ``shard_id`` attached to a reply; a row
    of the wrong shape, one whose histograms do not count its hosts, or
    one written by another shard, is a :class:`ShardError` against the
    shard that sent it."""
    try:
        *scalars, shapes = row
        summary = ShardSummary(
            **dict(zip(_SUMMARY_SCALARS, scalars, strict=True)),
            shapes={name: histogram for name, *histogram in shapes},
        )
        if summary.shard_id != shard_id:
            raise ValueError(f"it is the summary of shard {summary.shard_id}")
        counted = sum(map(sum, summary.shapes.values()))
        if counted != summary.n_hosts:
            raise ValueError(
                f"its histograms count {counted} hosts, not {summary.n_hosts}"
            )
    except (TypeError, ValueError) as error:
        raise ShardError(
            shard_id, f"malformed summary row: {error}"
        ) from error
    return summary
