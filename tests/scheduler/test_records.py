"""The per-request records are slotted dataclasses, and stay values.

``PlacementRequest``, ``LifecycleEvent``, ``FleetDecision``,
``GradedDecision`` and ``MigrationRecord`` are built once or more per
arrival and the front end keeps one decision per arrival, so they carry
no ``__dict__``.  Slots must not change what they are: each pickles,
copies and ``dataclasses.replace`` s to an equal record, the frozen ones
hash alike, and a lifecycle event still orders on ``(time, seq)`` only.
"""

import copy
import dataclasses
import pickle

import pytest

from repro.core.placements import Placement
from repro.perfsim import workload_by_name
from repro.scheduler import (
    EventKind,
    FleetDecision,
    GradedDecision,
    LifecycleEvent,
    MigrationRecord,
    PlacementRequest,
)
from repro.topology import amd_opteron_6272


def _request(request_id=7, **changes):
    fields = dict(
        request_id=request_id,
        profile=workload_by_name("gcc"),
        vcpus=8,
        goal_fraction=0.9,
        arrival_time=1.5,
        lifetime=30.0,
    )
    fields.update(changes)
    return PlacementRequest(**fields)


def _decision():
    return FleetDecision(
        _request(),
        host_id=3,
        placement=Placement(amd_opteron_6272(), (0, 1), 8),
        placement_id=2,
        predicted_relative=0.97,
    )


#: One record of each class, and a field ``replace`` gives a new value.
RECORDS = {
    "PlacementRequest": (_request(), "vcpus", 16),
    "LifecycleEvent": (
        LifecycleEvent(1.5, 4, EventKind.ARRIVAL, _request()),
        "seq",
        5,
    ),
    "FleetDecision": (_decision(), "host_id", 4),
    "GradedDecision": (
        GradedDecision(_decision(), 0.95, False, 0.001),
        "violated",
        True,
    ),
    "MigrationRecord": (
        MigrationRecord(
            time=9.25,
            request_id=4,
            workload="gcc",
            source_host=1,
            dest_host=3,
            engine="criu",
            seconds=12.5,
            moved_gb=1.75,
            triggered_by=9,
        ),
        "dest_host",
        5,
    ),
}


@pytest.fixture(params=sorted(RECORDS))
def record(request):
    return RECORDS[request.param]


def test_slotted(record):
    value, _, _ = record
    assert "__slots__" in type(value).__dict__
    assert not hasattr(value, "__dict__")


def test_pickle_round_trip(record):
    value, _, _ = record
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        rebuilt = pickle.loads(pickle.dumps(value, protocol))
        assert rebuilt == value
        assert type(rebuilt) is type(value)


def test_copy_and_replace(record):
    value, name, new = record
    copied = copy.copy(value)
    assert copied == value and copied is not value
    changed = dataclasses.replace(value, **{name: new})
    assert getattr(changed, name) == new
    assert changed != value
    assert dataclasses.replace(changed, **{name: getattr(value, name)}) == value


def test_frozen_records_hash_by_value(record):
    value, name, new = record
    params = type(value).__dataclass_params__
    if not params.frozen:
        assert type(value).__hash__ is None  # mutable: unhashable
        return
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, name, new)
    assert hash(copy.copy(value)) == hash(value)
    assert hash(pickle.loads(pickle.dumps(value))) == hash(value)


def test_lifecycle_events_order_on_time_and_seq_only():
    arrival = LifecycleEvent(2.0, 1, EventKind.ARRIVAL, _request(1))
    departure = LifecycleEvent(2.0, 1, EventKind.DEPARTURE, _request(2))
    assert arrival == departure  # kind and request are not compared
    assert hash(arrival) == hash(departure)
    assert not arrival < departure and not departure < arrival
    later_seq = LifecycleEvent(2.0, 2, EventKind.ARRIVAL, _request(1))
    later_time = LifecycleEvent(2.5, 0, EventKind.ARRIVAL, _request(1))
    assert arrival < later_seq < later_time
    assert sorted([later_time, later_seq, departure]) == [
        departure,
        later_seq,
        later_time,
    ]
