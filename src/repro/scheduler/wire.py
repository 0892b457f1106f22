"""Flat-row codec for the shard boundary.

What the front end and a shard say to each other about a request is a
fixed-layout row of scalars, not a dict of dicts:

* an **arrival** (``arrive`` events and ``decide`` requests alike) is
  ``(request_id, vcpus, goal_fraction, arrival_time, lifetime,
  profile_row, event_time)``, ``profile_row`` being the
  :class:`~repro.perfsim.workload.WorkloadProfile` fields as declared;
* a **graded reply** is ``(request_id, host_id, placement_row | None,
  placement_id, predicted_relative, block_exact, reject_reason,
  achieved_relative, violated, decision_seconds)`` — no request echo:
  the front end re-attaches the request it sent, by position;
* **churn statistics** cross the ``report`` reply with migrations as
  rows and the fragmentation timeline as one column per sample field.

Rows hold JSON-safe scalars only, so a message is immutable on the
inline transport, pickles small over the pipe, and decodes to equal
objects after a JSON round trip (tuples come back as lists; decoders
take both).  A type flattened whole takes its layout from
``dataclasses.fields``, so a new field cannot be forgotten.  ``to_dict``
/ ``from_dict`` remain the *report* format; nothing on the shard
boundary calls them for requests or decisions.
"""

from __future__ import annotations

from dataclasses import fields
from itertools import starmap
from operator import attrgetter
from typing import Dict, Mapping, Sequence, Tuple

from repro.core.placements import Placement
from repro.core.serialize import resolve_machine
from repro.perfsim.workload import WorkloadProfile
from repro.scheduler.lifecycle import (
    ChurnStats,
    FragmentationSample,
    MigrationRecord,
)
from repro.scheduler.policies import FleetDecision
from repro.scheduler.requests import PlacementRequest
from repro.scheduler.scheduler import GradedDecision
from repro.topology.machine import MachineTopology

PROFILE_FIELDS = tuple(f.name for f in fields(WorkloadProfile))
TIMELINE_COLUMNS = FragmentationSample._fields
_CHURN_COUNTERS = tuple(
    f.name
    for f in fields(ChurnStats)
    if f.name not in ("migrations", "fragmentation_timeline")
)

#: ``WorkloadProfile -> row``: one C-level pass over the declared fields.
profile_row = attrgetter(*PROFILE_FIELDS)
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


def encode_churn(stats: ChurnStats) -> Dict:
    payload = {name: getattr(stats, name) for name in _CHURN_COUNTERS}
    payload["migrations"] = [_migration_row(m) for m in stats.migrations]
    # Samples are tuples in column order: the transpose is one zip (which
    # yields nothing for an empty timeline, hence the explicit columns).
    payload["timeline"] = [
        list(column) for column in zip(*stats.fragmentation_timeline)
    ] or [[] for _ in TIMELINE_COLUMNS]
    return payload


def decode_churn(payload: Dict) -> ChurnStats:
    return ChurnStats(
        migrations=list(starmap(MigrationRecord, payload["migrations"])),
        fragmentation_timeline=list(
            map(FragmentationSample._make, zip(*payload["timeline"]))
        ),
        **{name: payload[name] for name in _CHURN_COUNTERS},
    )
