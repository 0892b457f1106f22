"""Tests for the lifecycle event queue."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.perfsim import workload_by_name
from repro.scheduler import (
    EventKind,
    EventQueue,
    LifecycleEvent,
    PlacementRequest,
    events_from_requests,
)


def _request(request_id, *, arrival=0.0, lifetime=None, vcpus=8):
    return PlacementRequest(
        request_id=request_id,
        profile=workload_by_name("gcc"),
        vcpus=vcpus,
        arrival_time=arrival,
        lifetime=lifetime,
    )


class TestEventQueue:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        queue.push(5.0, EventKind.ARRIVAL, _request(1))
        queue.push(1.0, EventKind.ARRIVAL, _request(2))
        queue.push(3.0, EventKind.ARRIVAL, _request(3))
        times = [event.time for event in queue.drain()]
        assert times == [1.0, 3.0, 5.0]
        assert not queue

    def test_equal_times_keep_insertion_order(self):
        queue = EventQueue()
        first = queue.push(2.0, EventKind.ARRIVAL, _request(1))
        second = queue.push(2.0, EventKind.DEPARTURE, _request(2))
        assert queue.pop() is first
        assert queue.pop() is second

    @settings(max_examples=50, deadline=None)
    @given(
        times=st.lists(
            st.sampled_from([0.0, 0.5, 1.0, 2.5, 7.0]), max_size=40
        ),
        prebuilt=st.integers(0, 40),
    )
    def test_pops_in_time_then_sequence_order(self, times, prebuilt):
        """The heap holds ``(time, seq, event)`` tuples; what comes out is
        the events sorted by ``(time, seq)`` whether they went in through
        the constructor or through ``push`` (coarse times tie often)."""
        request = _request(1)
        events = [
            LifecycleEvent(time, seq, EventKind.ARRIVAL, request)
            for seq, time in enumerate(times[:prebuilt])
        ]
        queue = EventQueue(events)
        events += [
            queue.push(time, EventKind.DEPARTURE, request)
            for time in times[prebuilt:]
        ]
        assert [event.seq for event in events] == list(range(len(times)))
        popped = list(queue.drain())
        assert len(popped) == len(events)
        assert all(
            a is b
            for a, b in zip(
                popped, sorted(events, key=lambda e: (e.time, e.seq))
            )
        )

    def test_hand_built_events_may_share_time_and_sequence(self):
        """Equal ``(time, seq)`` falls through to comparing the events,
        which order on the same two fields and so compare equal — no
        ``TypeError`` from comparing requests or kinds."""
        twins = [
            LifecycleEvent(1.0, 0, EventKind.ARRIVAL, _request(1)),
            LifecycleEvent(1.0, 0, EventKind.DEPARTURE, _request(2)),
            LifecycleEvent(0.5, 0, EventKind.ARRIVAL, _request(3)),
        ]
        queue = EventQueue(twins)
        assert queue.pop() is twins[2]
        assert {id(queue.pop()), id(queue.pop())} == {
            id(twins[0]),
            id(twins[1]),
        }
        assert queue.push(2.0, EventKind.ARRIVAL, _request(4)).seq == 1

    def test_len_and_bool(self):
        queue = EventQueue()
        assert len(queue) == 0 and not queue
        queue.push(0.0, EventKind.ARRIVAL, _request(1))
        assert len(queue) == 1 and queue

    def test_describe(self):
        queue = EventQueue()
        event = queue.push(1.5, EventKind.DEPARTURE, _request(9))
        assert "departure" in event.describe()
        assert "req#9" in event.describe()


class TestEventsFromRequests:
    def test_arrival_and_departure_pairs(self):
        requests = [
            _request(1, arrival=0.0, lifetime=10.0),
            _request(2, arrival=5.0),  # immortal: no departure event
        ]
        events = list(events_from_requests(requests).drain())
        assert [(e.time, e.kind) for e in events] == [
            (0.0, EventKind.ARRIVAL),
            (5.0, EventKind.ARRIVAL),
            (10.0, EventKind.DEPARTURE),
        ]

    def test_departure_beats_simultaneous_later_arrival(self):
        """A departure coinciding with a later request's arrival must sort
        first, so the freed nodes are visible to that arrival."""
        requests = [
            _request(1, arrival=0.0, lifetime=7.0),
            _request(2, arrival=7.0),
        ]
        events = list(events_from_requests(requests).drain())
        assert [(e.kind, e.request.request_id) for e in events] == [
            (EventKind.ARRIVAL, 1),
            (EventKind.DEPARTURE, 1),
            (EventKind.ARRIVAL, 2),
        ]

    def test_interleaved_stream(self):
        requests = [
            _request(i, arrival=float(i), lifetime=2.5) for i in range(1, 5)
        ]
        events = list(events_from_requests(requests).drain())
        assert len(events) == 8
        assert [e.time for e in events] == sorted(e.time for e in events)


class TestRequestLifetimes:
    def test_departure_time(self):
        assert _request(1, arrival=3.0, lifetime=4.0).departure_time == 7.0
        assert _request(1, arrival=3.0).departure_time is None

    def test_validation(self):
        with pytest.raises(ValueError):
            _request(1, arrival=-1.0)
        with pytest.raises(ValueError):
            _request(1, lifetime=0.0)
        with pytest.raises(ValueError):
            _request(1, lifetime=-5.0)
