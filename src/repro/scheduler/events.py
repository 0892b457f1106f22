"""Timestamped lifecycle events and the queue that orders them.

The lifecycle engine (:mod:`repro.scheduler.lifecycle`) is event-driven:
every container produces an ARRIVAL event at its ``arrival_time`` and, when
it has a finite lifetime, a DEPARTURE event at ``arrival_time + lifetime``.
The queue replays them in global time order, with a deterministic
tie-break — same-instant events run in insertion order, and a departure
scheduled for the same instant as an arrival frees its nodes first (the
sequence number of a departure is assigned when the pair is built, before
later arrivals).

Nothing here knows about hosts or placements; the queue is pure event
plumbing so tests can drive the engine with hand-built event lists.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Sequence, Tuple

from repro.scheduler.requests import PlacementRequest


class EventKind(enum.Enum):
    """What happens to a container at an event's timestamp."""

    ARRIVAL = "arrival"
    DEPARTURE = "departure"


@dataclass(order=True, frozen=True, slots=True)
class LifecycleEvent:
    """One timestamped thing happening to one container.

    Ordering is ``(time, seq)`` — ``kind`` and ``request`` are excluded
    from comparisons, so the queue never compares requests and equal-time
    events keep their insertion order.
    """

    time: float
    seq: int
    kind: EventKind = field(compare=False)
    request: PlacementRequest = field(compare=False)

    def describe(self) -> str:
        return f"t={self.time:9.2f}s {self.kind.value:9s} {self.request.describe()}"


class EventQueue:
    """A min-heap of lifecycle events, popped in time order.

    Entries are ``(time, seq, event)`` tuples, so the heap orders them
    with C tuple comparisons instead of the dataclass's Python
    ``__lt__``; the event itself is only compared when hand-built events
    share a ``(time, seq)``, and then compares equal.
    """

    def __init__(self, events: Iterable[LifecycleEvent] = ()) -> None:
        self._heap: List[Tuple[float, int, LifecycleEvent]] = [
            (event.time, event.seq, event) for event in events
        ]
        heapq.heapify(self._heap)
        self._next_seq = max((seq for _, seq, _ in self._heap), default=-1) + 1

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(
        self, time: float, kind: EventKind, request: PlacementRequest
    ) -> LifecycleEvent:
        event = LifecycleEvent(time, self._next_seq, kind, request)
        self._next_seq += 1
        heapq.heappush(self._heap, (time, event.seq, event))
        return event

    def pop(self) -> LifecycleEvent:
        return heapq.heappop(self._heap)[2]

    def drain(self) -> Iterator[LifecycleEvent]:
        heap = self._heap
        while heap:
            yield heapq.heappop(heap)[2]


def events_from_requests(
    requests: Sequence[PlacementRequest],
) -> EventQueue:
    """Build the event queue for a request stream.

    Each request contributes an arrival and — when its lifetime is finite
    — a departure.  The departure's sequence number is assigned right
    after its arrival's, so a departure coinciding with a *later*
    request's arrival sorts first and the freed nodes are visible to that
    arrival (the optimistic tie-break; real control planes race here).
    """
    queue = EventQueue()
    for request in requests:
        queue.push(request.arrival_time, EventKind.ARRIVAL, request)
        departure = request.departure_time
        if departure is not None:
            queue.push(departure, EventKind.DEPARTURE, request)
    return queue
