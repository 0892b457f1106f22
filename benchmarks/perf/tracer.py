"""Benchmark-side tracing: spans around the program's public callables.

The program has no spans of its own yet (ROADMAP item 1), so the traced run
wraps its layer boundaries from outside: a delegating client around each
shard client (the way ``FaultInjectingClient`` wraps), instance attributes
on the worker's engine, policy, registry and index, and a few module
bindings.  A span records name, start, end and parent; a layer's *self* time
is its spans' time minus their children's, so self times add up to the wall
time of the root span.  ``FleetHost.find_block``/``allocate``/``release`` are
counted, not timed: timing calls that frequent would cost more than they do.
"""

from __future__ import annotations

import contextlib
import json
from collections import defaultdict
from multiprocessing import connection as mp_connection
from multiprocessing.reduction import ForkingPickler
from time import perf_counter
from typing import Callable, Dict, Iterator, List
from unittest import mock


class Tracer:
    """In-memory spans (parallel lists, one entry per span) and counters."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        #: Index of the enclosing span, -1 for a root.
        self.parents: List[int] = []
        self.counters: Dict[str, int] = defaultdict(int)
        #: Named instants (first occurrence wins), e.g. the first report request.
        self.marks: Dict[str, float] = {}
        self._open = -1

    def begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open)
        self.ends.append(0.0)
        self._open = index
        self.starts.append(perf_counter())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._open = self.parents[index]

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def traced(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """``fn`` inside a span; ``after(result, *args)`` updates counters."""
        begin, end = self.begin, self.end

        def wrapper(*args, **kwargs):
            index = begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(index)
            if after is not None:
                after(result, *args)
            return result

        return wrapper

    def counted(self, key: str, fn: Callable) -> Callable:
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------------
    # Read-out (``first`` selects the spans recorded from that index on)
    # ------------------------------------------------------------------

    def durations(self, name: str, first: int = 0, last: int | None = None) -> List[float]:
        last = len(self.names) if last is None else last
        return [
            self.ends[i] - self.starts[i] for i in range(first, last) if self.names[i] == name
        ]

    def self_seconds(self, first: int = 0) -> Dict[str, float]:
        """Self time per span name: each span's duration minus the part its
        children cover.  Spans are properly nested (one thread, begin/end
        paired), so the values sum to the duration of the root spans."""
        own = [self.ends[i] - self.starts[i] for i in range(first, len(self.names))]
        for i in range(first, len(self.names)):
            parent = self.parents[i]
            if parent >= first:
                own[parent - first] -= self.ends[i] - self.starts[i]
        totals: Dict[str, float] = defaultdict(float)
        for i, seconds in enumerate(own, start=first):
            totals[self.names[i]] += seconds
        return totals

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (name, start, end, parent)."""
        with open(path, "w") as handle:
            for row in zip(self.names, self.starts, self.ends, self.parents):
                handle.write(json.dumps(row) + "\n")


class TracedClient:
    """Delegating shard client: spans and counters around the transport.

    ``shard.wire`` spans cover ``send``/``recv``/``request``; with the inline
    transport the worker's ``handle`` runs inside ``send`` as a child span,
    so the wire span's self time is the JSON round trip.  Message sizes are
    measured by encoding a payload once more the way the transport does (JSON
    inline, pickle over the pipe).  That costs as much as the wire itself, so
    only every ``BYTES_SAMPLE``-th message of each op (and its reply) is sized
    — a fixed sample, the same for the same seed, scaled back up — inside a
    ``trace.accounting`` span, so the tracer's own cost is a line of the
    budget and not part of a layer.
    """

    BYTES_SAMPLE = 4

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer
        self._encode = json.dumps if inner.transport == "inline" else ForkingPickler.dumps
        self._sent_by_op: Dict[str, int] = defaultdict(int)
        #: (send time, whether the message was sized) per in-flight message,
        #: oldest first.
        self._in_flight: List[tuple] = []
        #: Round-trip seconds per message (send start to reply in hand).
        self.round_trips: List[float] = []

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def _size(self, payload) -> None:
        with self._tracer.span("trace.accounting"):
            size = len(self._encode(payload))
            self._tracer.counters["shard.wire_bytes"] += self.BYTES_SAMPLE * size

    def _outgoing(self, message) -> bool:
        """Count one message; returns whether it (and its reply) is sized."""
        counters = self._tracer.counters
        counters["shard.messages"] += 1
        op = message.get("op")
        if op == "arrive":
            counters["shard.arrive_messages"] += 1
            counters["shard.arrivals"] += len(message["events"])
        elif op == "report":
            self._tracer.marks.setdefault("report", perf_counter())
        self._sent_by_op[op] += 1
        sized = self._sent_by_op[op] % self.BYTES_SAMPLE == 0
        if sized:
            self._size(message)
        return sized

    def send(self, message, timeout_s=None):
        sized = self._outgoing(message)
        self._in_flight.append((perf_counter(), sized))
        with self._tracer.span("shard.wire"):
            return self._inner.send(message, timeout_s)

    def recv(self, timeout_s=None):
        with self._tracer.span("shard.wire"):
            response = self._inner.recv(timeout_s)
        sent_at, sized = self._in_flight.pop(0)
        self.round_trips.append(perf_counter() - sent_at)
        if sized:
            self._size(response)
        return response

    def request(self, message, timeout_s=None):
        sized = self._outgoing(message)
        start = perf_counter()
        with self._tracer.span("shard.wire"):
            response = self._inner.request(message, timeout_s)
        self.round_trips.append(perf_counter() - start)
        if sized:
            self._size(response)
        return response


class _TracedWait:
    """Stands in for ``multiprocessing.connection`` in the service module:
    the front-end's blocking ``wait`` for shard replies becomes a span."""

    def __init__(self, tracer: Tracer) -> None:
        self.wait = tracer.traced("shard.wait", mp_connection.wait)


@contextlib.contextmanager
def instrument_modules(tracer: Tracer) -> Iterator[None]:
    """Patch module bindings and class-level call counters; undone on exit."""
    from repro.core import memo, model
    from repro.scheduler import fleet, lifecycle, policies, service

    def fused_rows(_result, plans) -> None:
        tracer.counters["arena.rows"] += sum(len(features) for _, features in plans)

    host = fleet.FleetHost
    patches = [
        (
            policies,
            "predict_fused",
            tracer.traced("arena.predict", policies.predict_fused, fused_rows),
        ),
        (
            lifecycle,
            "grade_decision",
            tracer.traced("scheduler.grade", lifecycle.grade_decision),
        ),
        (
            memo,
            "enumerate_important_placements",
            tracer.traced("core.enumeration", memo.enumerate_important_placements),
        ),
        (service, "mp_connection", _TracedWait(tracer)),
        (host, "find_block", tracer.counted("fleet.find_block_calls", host.find_block)),
        (host, "allocate", tracer.counted("fleet.allocate_calls", host.allocate)),
        (host, "release", tracer.counted("fleet.release_calls", host.release)),
        (
            model.PlacementModel,
            "fit",
            tracer.counted("registry.fits", model.PlacementModel.fit),
        ),
    ]
    with contextlib.ExitStack() as stack:
        for target, name, replacement in patches:
            stack.enter_context(mock.patch.object(target, name, replacement))
        yield


def instrument_engine(tracer: Tracer, engine) -> None:
    """Spans around one ``LifecycleScheduler`` and the policy, registry and
    fleet index under it (instance attributes shadow the methods)."""
    from repro.scheduler.events import EventKind

    policy, registry, index = engine.policy, engine.registry, engine.fleet.index
    step = engine.step

    def traced_step(event):
        arrival = event.kind is EventKind.ARRIVAL
        span = tracer.begin("lifecycle.step" if arrival else "lifecycle.depart")
        try:
            return step(event)
        finally:
            tracer.end(span)

    def probe_rows(_result, _machine, profiles, *_rest) -> None:
        tracer.counters["registry.probe_rows"] += len(profiles)

    def candidate_hosts(result, *_args) -> None:
        tracer.counters["index.hosts"] += len(result)

    engine.step = traced_step
    engine.step_batch = tracer.traced("lifecycle.step", engine.step_batch)
    engine.depart = tracer.traced("lifecycle.depart", engine.depart)
    policy.decide_batch = tracer.traced("policies.decide", policy.decide_batch)
    registry.probe_ipc_batch = tracer.traced(
        "registry.probe", registry.probe_ipc_batch, probe_rows
    )
    registry.model = tracer.traced("registry.model", registry.model)
    index.candidates = tracer.traced("index.candidates", index.candidates, candidate_hosts)


def end_setup_spans(engine) -> None:
    """Stop tracing ``registry.model``: it trains during set-up, but once every
    model exists it is a dictionary lookup, several per arrival, that costs
    less than the span around it."""
    del engine.registry.model


def instrument_service(tracer: Tracer, service) -> List[TracedClient]:
    """Wrap every shard client of a ``SchedulerService`` (and, for inline
    shards, the worker behind it) plus the admission screen; returns the
    wrapping clients, which hold the round-trip samples."""
    clients = []
    for shard, client in enumerate(service.clients):
        worker = getattr(client, "worker", None)  # process shards live elsewhere
        if worker is not None:
            worker.handle = tracer.traced("shard.handle", worker.handle)
            instrument_engine(tracer, worker.engine)
        clients.append(TracedClient(client, tracer))
        service.clients[shard] = clients[-1]
    if service.admission is not None:
        service.admission.screen = tracer.traced(
            "admission.screen", service.admission.screen
        )
    return clients
