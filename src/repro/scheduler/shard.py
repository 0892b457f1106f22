"""Worker shards: each owns a fleet slice behind a message protocol.

The sharded service (:mod:`repro.scheduler.service`) is two-level
scheduling in the Borg/Omega mold: a front-end routes requests across
*shards*, and each shard runs the existing engines — the policies'
``decide_batch``, the lifecycle engine's churn handling, the rebalancer —
unchanged against its own :class:`~repro.scheduler.fleet.Fleet`,
:class:`~repro.scheduler.registry.ModelRegistry`, and (through them) its
own fleet index and block-score tables.  A shard never sees another
shard's hosts, so its candidate scans are ``1/n_shards`` the size, and a
window of routed arrivals is decided in one policy batch so the fused
forest call amortizes per shard.

Messages are dicts of JSON-safe scalars and *rows*
(:mod:`repro.scheduler.wire`): an arrival is one flat tuple with its
workload profile as a nested row, a graded decision is one flat tuple
that does not echo the request (the front end re-attaches the one it
sent, by position, and checks the echoed id), and a
:class:`~repro.scheduler.wire.ShardSummary` rides on every response as
one more row, so the router's view refreshes for free.  Rows are
immutable, so :class:`InlineShardClient` hands a message straight to
the in-process worker and serializes nothing;
:class:`ProcessShardClient` pickles the same message onto a pipe.  That
no payload works on one transport only is established off the request
path — ``repro lint``'s pipe-safety rule, the JSON-round-tripping
client the equivalence gates run through
(``tests/scheduler/test_json_transport.py``), and the inline ≡ process
decision digests — not by a ``json.dumps``/``loads`` pair per message.

Worker message protocol (every payload JSON-safe and picklable):

========= ==========================================================
op        meaning
========= ==========================================================
arrive    lifecycle arrivals: ``events=[arrival_row, ...]`` decided
          in one ``step_batch`` window; returns ``graded=[row, ...]``,
          one graded row per arrival, in order.  The departures the
          front end deferred for this shard ride along as
          ``departures=[[request_id, time], ...]`` (a departure needs
          nothing but the id; the key is absent when there are none)
          and are applied before the window is decided
decide    one-shot batch (no churn): ``requests=[arrival_row, ...]``,
          the same rows, the same optional ``departures`` and the same
          ``graded`` reply as ``arrive``
depart    departures with no window left to ride, at the end of a
          stream: ``events=[[request_id, time], ...]``
summary   just the shard's routing summary
report    the shard's counters in the FleetReport format (without
          decisions), its churn statistics row-coded: migrations as
          rows, the fragmentation timeline as one column per field
stop      shut the worker down (process transport exits its loop)
========= ==========================================================

``arrival_row`` is ``(request_id, vcpus, goal_fraction, arrival_time,
lifetime, profile_row, event_time)``; a graded row is ``(request_id,
host_id, placement_row | None, placement_id, predicted_relative,
block_exact, reject_reason, achieved_relative, violated,
decision_seconds)``.  Supervised messages add ``seq``, and every
response carries ``summary`` — the summary row of
:func:`~repro.scheduler.wire.encode_summary` — and echoes ``seq``.

Both clients expose the protocol twice: the classic blocking
``request(message)`` round trip, and the split ``send(message)`` /
``recv(timeout)`` pair (plus a pipelined ``request_many``) the service's
overlapped dispatcher uses to fire every shard's message before waiting
on any reply.  ``send`` stamps the reply deadline, ``recv`` polls only
the remaining budget, and ``reply_ready`` / ``gather_connection`` /
``recv_deadline`` are the gather surface
``multiprocessing.connection.wait`` selects over.

A process worker that has just answered waits for its next message by
polling the pipe for a short, bounded while before it blocks
(:func:`_await_message`).  The front end's turnaround between two
messages is well under a millisecond, and a core that is put to sleep and
woken for every message runs the next burst cold (on a virtualized host a
halted vCPU is handed to somebody else), which made the process
transport's speed depend on whatever else kept the machine awake.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import time
from collections import deque
from dataclasses import replace
from typing import Deque, Dict, List, Sequence

from repro.scheduler.events import EventKind, LifecycleEvent
from repro.scheduler.lifecycle import LifecycleScheduler, RebalanceConfig
from repro.scheduler.capacity import CapacityTracker
from repro.scheduler.scheduler import FleetReport, GradedDecision, grade_decision
from repro.scheduler.wire import (
    ProfileMemo,
    ShardError,
    ShardSummary,
    decode_arrival,
    encode_churn,
    encode_graded,
    encode_summary,
)
from repro.topology.machine import MachineTopology


class ShardCrashError(ShardError):
    """The worker died: its pipe closed, its process exited, or a fault
    plan killed it.  Whatever state it held is gone — recovery means a
    respawn plus a journal replay, never a plain retry."""


class ShardTimeoutError(ShardError):
    """The worker did not answer within the request timeout.  The message
    may or may not have been applied (a lost reply looks identical to a
    wedged worker), which is exactly why retries carry the same sequence
    number: an applied message is answered from the worker's dedup cache
    instead of being applied twice."""


class ShardWorker:
    """One shard: a fleet slice plus the engines that schedule on it.

    Parameters
    ----------
    shard_id:
        This shard's index; also selects the fleet slice (host ``g`` of
        the global fleet belongs to shard ``g % shards``).
    config:
        The service-wide :class:`~repro.scheduler.config.ScheduleConfig`.
        The worker builds its own registry and policy from it.  The
        registry is a view of the process-wide artifact store
        (:mod:`repro.scheduler.artifacts`): an inline worker finds the
        models the front end trained, a forked process worker inherits
        them, and a spawned one trains bit-for-bit the same artifacts
        (everything derives from the seed and the preset names).
    machines:
        Optional explicit fleet slice (one topology per local host).
        Defaults to ``config.machine_list()[shard_id::config.shards]``.
    """

    def __init__(
        self,
        shard_id: int,
        config,
        *,
        machines: Sequence[MachineTopology] | None = None,
    ) -> None:
        from repro.scheduler.fleet import Fleet

        self.shard_id = shard_id
        self.config = config
        if machines is None:
            machines = config.machine_list()[shard_id :: config.shards]
        if not machines:
            raise ValueError(
                f"shard {shard_id} of {config.shards} owns no hosts "
                f"({config.hosts} total)"
            )
        self.machines = list(machines)
        self.fleet = Fleet(self.machines)
        self.registry = config.build_registry()
        self.policy = config.build_policy(self.registry)
        self.engine = LifecycleScheduler(
            self.fleet,
            self.policy,
            registry=self.registry,
            config=RebalanceConfig(
                enabled=config.rebalance_enabled,
                reject_penalty_seconds=config.penalty_seconds,
            ),
        )
        #: Incremental available-space tracker (admission mode only —
        #: built *after* the fleet so the hosts are already indexed, and
        #: only then so the admission-off wire bytes carry no capacity
        #: key).
        self.capacity: CapacityTracker | None = None
        if getattr(config, "admission", False):
            self.capacity = CapacityTracker(self.fleet.index, config.vcpus)
        self._next_seq = 0
        #: Decoded workload profiles, validated once per distinct row.
        self._profiles = ProfileMemo()
        #: One-shot ("decide") accounting, separate from the lifecycle
        #: engine's graded list.
        self._one_shot_graded: List[GradedDecision] = []
        #: Wall-clock seconds spent inside handle() — the shard's own
        #: busy time, reported alongside the front-end's elapsed time.
        self.busy_seconds = 0.0
        #: Highest supervised sequence number applied, and its response.
        #: A retried message whose reply was lost is answered from here
        #: instead of being applied twice (see ShardTimeoutError).
        self._applied_seq = -1
        self._last_response: Dict | None = None

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------

    def handle(self, message: Dict) -> Dict:
        """Process one protocol message; returns the response, which the
        caller may hold but must not mutate (a same-``seq`` retry is
        answered with the same object).

        A message is applied once or not at all: the ``seq`` check comes
        first, so a retried or replayed window releases the departures
        it carries exactly as often as it places its arrivals.  Those
        are released before the op runs — the order in which the shard
        would have seen them as a message of their own."""
        seq = message.get("seq")
        if seq is not None and seq <= self._applied_seq:
            if seq == self._applied_seq and self._last_response is not None:
                return self._last_response
            return {
                "deduped": True,
                "seq": seq,
                "summary": encode_summary(self.summary()),
            }
        start = time.perf_counter()
        op = message["op"]
        departures = message.get("departures")
        if departures:
            self._handle_depart(departures)
        if op == "arrive":
            response = self._handle_arrive(message["events"])
        elif op == "depart":
            response = self._handle_depart(message["events"])
        elif op == "decide":
            response = self._handle_decide(message["requests"])
        elif op == "summary":
            response = {}
        elif op == "report":
            response = {"report": self._report_payload()}
        elif op == "stop":
            response = {"stopped": True}
        else:
            raise ValueError(f"unknown shard op {op!r}")
        response["summary"] = encode_summary(self.summary())
        self.busy_seconds += time.perf_counter() - start
        if seq is not None:
            # Echo the sequence number so a client that timed out and
            # retried can discard the stale reply of an earlier attempt
            # (only supervised messages carry seq, so the unsupervised
            # wire bytes are untouched).
            response["seq"] = seq
            self._applied_seq = seq
            self._last_response = response
        return response

    def _handle_arrive(self, events: Sequence) -> Dict:
        arrivals = []
        for row in events:
            request, event_time = decode_arrival(row, self._profiles)
            arrivals.append(
                LifecycleEvent(
                    event_time, self._next_seq, EventKind.ARRIVAL, request
                )
            )
            self._next_seq += 1
        window = self.engine.step_batch(arrivals)
        return {"graded": [encode_graded(entry) for entry in window]}

    def _handle_depart(self, events: Sequence) -> Dict:
        for request_id, event_time in events:
            self.engine.depart(request_id, event_time)
        return {"departed": len(events)}

    def _handle_decide(self, requests: Sequence) -> Dict:
        """One-shot batch: decide + grade, no lifecycle bookkeeping —
        exactly what :class:`~repro.scheduler.scheduler.FleetScheduler`
        does with one of its batches."""
        batch = [decode_arrival(row, self._profiles)[0] for row in requests]
        start = time.perf_counter()
        decisions = self.policy.decide_batch(batch, self.fleet)
        per_request = (time.perf_counter() - start) / max(len(batch), 1)
        graded = []
        for decision in decisions:
            entry = grade_decision(decision, self.fleet, self.registry)
            entry.decision_seconds = per_request
            graded.append(entry)
        self._one_shot_graded.extend(graded)
        return {"graded": [encode_graded(entry) for entry in graded]}

    def _report_payload(self) -> Dict:
        """The ``report`` reply: this shard's counters in the report
        format, its churn statistics row-coded (the fragmentation
        timeline has one sample per event — the one part of a report
        that grows with the stream)."""
        report = self.report()
        payload = replace(report, churn=None).to_dict(include_decisions=False)
        if report.churn is not None:
            payload["churn"] = encode_churn(report.churn)
        return payload

    # ------------------------------------------------------------------
    # State views
    # ------------------------------------------------------------------

    def summary(self) -> ShardSummary:
        """The shard's routing summary, from the index's O(1) state."""
        index = self.fleet.index
        shapes: Dict[str, Dict[str, int]] = {}
        for fingerprint, machine in index.machines():
            buckets = index.buckets(fingerprint)
            sizes = [size for size, ids in buckets.items() if ids]
            shapes[machine.name] = {
                "n_hosts": len(index.host_ids(fingerprint)),
                "free_nodes": sum(
                    size * len(ids) for size, ids in buckets.items()
                ),
                "largest_free_block": max(sizes, default=0),
            }
        return ShardSummary(
            shard_id=self.shard_id,
            n_hosts=len(self.fleet),
            free_nodes_total=index.free_nodes_total,
            total_nodes=index.total_nodes,
            used_threads=index.used_threads,
            total_threads=index.total_threads,
            active_containers=len(self.engine._active),
            shapes=shapes,
            capacity=(
                None if self.capacity is None else self.capacity.vector()
            ),
        )

    def report(self) -> FleetReport:
        """This shard's own FleetReport (local host ids, local counters)."""
        if self._one_shot_graded and not self.engine.graded:
            return FleetReport.collect(
                policy=self.policy,
                fleet=self.fleet,
                registry=self.registry,
                n_requests=len(self._one_shot_graded),
                decisions=self._one_shot_graded,
                elapsed_seconds=self.busy_seconds,
            )
        return self.engine.collect_report(
            self.engine.stats.arrivals, self.busy_seconds
        )


# ----------------------------------------------------------------------
# Transports
# ----------------------------------------------------------------------


class InlineShardClient:
    """In-process shard: the worker lives in the caller's process.

    Messages are immutable rows under a dict the worker only reads, so
    ``send`` hands the message straight to ``worker.handle`` and buffers
    the reply as is — no copy, no serialization (the module docstring
    says where "a payload that only works inline" is caught instead).

    The client speaks the split protocol (:meth:`send` then
    :meth:`recv`) the overlapped dispatcher uses; because the worker is
    in-process, the work happens synchronously inside ``send`` and the
    response waits in a FIFO buffer until ``recv`` collects it.
    """

    transport = "inline"

    def __init__(
        self,
        shard_id: int,
        config,
        *,
        machines: Sequence[MachineTopology] | None = None,
    ) -> None:
        self.shard_id = shard_id
        self.worker: ShardWorker | None = ShardWorker(
            shard_id, config, machines=machines
        )
        #: Responses produced at send time, awaiting recv, oldest first.
        self._pending: Deque[Dict] = deque()

    def send(self, message: Dict, timeout_s: float | None = None) -> None:
        """Deliver one message; the response buffers until :meth:`recv`."""
        if self.worker is None:
            raise ShardCrashError(self.shard_id, "worker was killed")
        self._pending.append(self.worker.handle(message))

    def recv(self, timeout_s: float | None = None) -> Dict:
        if not self._pending:
            raise ShardError(
                self.shard_id, "recv() without a pending send()"
            )
        return self._pending.popleft()

    def request(self, message: Dict, timeout_s: float | None = None) -> Dict:
        self.send(message, timeout_s)
        return self.recv(timeout_s)

    def request_many(
        self,
        messages: Sequence[Dict],
        timeout_s: float | None = None,
        on_response=None,
    ) -> List[Dict]:
        """Round-trip a message batch in order (inline: sequentially)."""
        responses = []
        for message in messages:
            response = self.request(message, timeout_s)
            if on_response is not None:
                on_response(response)
            responses.append(response)
        return responses

    # -- gather surface (overlapped dispatch) ---------------------------

    def reply_ready(self) -> bool:
        """A response is buffered: recv() will not block."""
        return bool(self._pending)

    def gather_connection(self):
        """No pipe to wait on: inline replies are ready at send time."""
        return None

    def recv_deadline(self) -> float | None:
        return None

    def kill(self) -> None:
        """Simulate a crash: the worker and all its state are dropped, and
        every later request raises :class:`ShardCrashError` — the same
        contract a dead process presents to the front-end."""
        self.worker = None
        self._pending.clear()

    def close(self) -> None:  # symmetric with ProcessShardClient
        pass


#: Longest a process worker polls its pipe for the next message before it
#: blocks.  Covers the front end's turnaround between two messages of a
#: busy stream (a few hundred microseconds); an idle worker gives up after
#: one budget and sleeps like any blocked reader.
POLL_SECONDS = 0.002
#: One poll-and-yield pass takes tens of microseconds.  A pass that took
#: longer than this was descheduled — something else wants this core — so
#: the worker stops polling and blocks: only a core nobody asked for is
#: ever kept busy.
POLL_LOST_SECONDS = 0.0002


def _await_message(connection, poll: bool) -> bool:
    """Wait until ``connection`` is readable; returns whether the wait was
    short enough (under :data:`POLL_SECONDS`) that the next one should
    start by polling.

    With ``poll`` the pipe is polled, yielding the core between passes,
    until the message is there, the budget is spent, or a pass shows the
    core was taken; then (and without ``poll``, at once) the wait blocks.
    Polling after a short wait and blocking after a long one is the
    adaptive-spin rule: a worker in a busy stream never sleeps between
    messages, one in a sparse stream wastes at most one budget per burst.
    """
    start = previous = time.perf_counter()
    while poll:
        if connection.poll(0):
            return True
        os.sched_yield()
        now = time.perf_counter()
        if now - previous > POLL_LOST_SECONDS or now - start > POLL_SECONDS:
            break
        previous = now
    connection.poll(None)
    return time.perf_counter() - start < POLL_SECONDS


def _shard_worker_main(
    connection, shard_id: int, config_data: Dict, parent_connection=None
) -> None:
    """Entry point of one shard worker process: rebuild the shard from
    the serialized config, then serve the message loop until ``stop``."""
    from repro.scheduler.config import ScheduleConfig

    if parent_connection is not None:
        # Drop the fork-inherited copy of the parent's pipe end: while
        # the child holds it open, the parent closing its end would
        # never EOF this worker's recv().
        parent_connection.close()
    # Everything alive at this point came with the process — under fork,
    # the parent's whole heap, trained artifact store included — and this
    # worker never frees any of it.  Take it out of the collector's reach:
    # a full collection would walk all of it and, by writing every
    # object's GC header, copy each inherited page (measured on the
    # 2-shard benchmark: one 22-25 ms pause and ~1200 page faults per
    # worker, in the middle of serving).
    gc.freeze()
    worker = ShardWorker(shard_id, ScheduleConfig.from_dict(config_data))
    # Yielding between passes is what keeps the polling polite; where
    # the platform cannot yield, the worker only ever blocks in recv().
    can_poll = hasattr(os, "sched_yield")
    poll = False
    while True:
        try:
            poll = can_poll and _await_message(connection, poll)
            message = connection.recv()
        except (EOFError, OSError):
            return  # parent hung up (crashed or closed): exit cleanly
        try:
            connection.send(worker.handle(message))
        except (BrokenPipeError, OSError):
            return  # reply pipe gone mid-send: nothing left to serve
        if message.get("op") == "stop":
            return


class ProcessShardClient:
    """One worker process per shard, connected by a pipe.

    The child rebuilds its fleet, registry, and policy from the
    serialized :class:`~repro.scheduler.config.ScheduleConfig` — nothing
    but dicts of JSON-safe scalars and rows crosses the pipe.  Trained
    models never travel on the wire: a forked child inherits the
    parent's artifact store, and a child started any other way trains
    the same artifacts from the same seed and preset names the parent
    used.

    The split protocol is where the parallelism lives: :meth:`send`
    writes the message and stamps its reply deadline (monotonic clock,
    measured **from the send**), and :meth:`recv` polls only for the
    *remaining* budget — so a front-end that fires every shard's message
    first and gathers afterwards runs all workers' deadlines
    concurrently, and a slow shard cannot inflate the budget of the
    shards gathered after it.
    """

    transport = "process"

    def __init__(
        self, shard_id: int, config, *, timeout_s: float | None = None
    ) -> None:
        self.shard_id = shard_id
        #: Default reply deadline for request(); None blocks forever.
        self.timeout_s = timeout_s
        #: In-flight sends, oldest first: (reply deadline or None,
        #: expected response seq or None).
        self._in_flight: Deque[tuple] = deque()
        #: Replies drained off the pipe (to keep its buffers empty during
        #: pipelined batches) but not yet returned by recv().
        self._drained: Deque[Dict] = deque()
        parent, child = multiprocessing.Pipe()
        self._connection = parent
        self._process = multiprocessing.Process(
            target=_shard_worker_main,
            args=(child, shard_id, config.to_dict(), parent),
            daemon=True,
        )
        try:
            self._process.start()
        finally:
            # The parent must not hold the child's pipe end: while it
            # does, a dead worker never EOFs the parent's reads and the
            # descriptor itself leaks.
            child.close()

    def send(self, message: Dict, timeout_s: float | None = None) -> None:
        """Write one message to the worker and stamp its reply deadline."""
        timeout = self.timeout_s if timeout_s is None else timeout_s
        deadline = None if timeout is None else time.monotonic() + timeout
        try:
            self._connection.send(message)
        except (EOFError, BrokenPipeError, ConnectionResetError, OSError) as error:
            raise ShardCrashError(
                self.shard_id,
                f"worker pipe closed ({type(error).__name__})",
            ) from error
        self._in_flight.append((deadline, message.get("seq")))

    def recv(self, timeout_s: float | None = None) -> Dict:
        """Collect the oldest in-flight reply.

        Polls with the budget *remaining* from the matching send (or the
        explicit ``timeout_s`` override, measured from now); a reply that
        is already buffered is returned even if the deadline has passed.
        Replies carrying a stale sequence number — a late answer to an
        attempt that already timed out — are discarded, so a retried
        message can never be paired with its predecessor's reply.
        """
        if not self._in_flight:
            raise ShardError(
                self.shard_id, "recv() without a pending send()"
            )
        deadline, expected = self._in_flight.popleft()
        if timeout_s is not None:
            deadline = time.monotonic() + timeout_s
        try:
            while True:
                if self._drained:
                    reply = self._drained.popleft()
                else:
                    remaining = (
                        None
                        if deadline is None
                        else deadline - time.monotonic()
                    )
                    if not self._connection.poll(
                        remaining if remaining is None else max(remaining, 0.0)
                    ):
                        raise ShardTimeoutError(
                            self.shard_id,
                            "no reply within the deadline stamped at send",
                        )
                    reply = self._connection.recv()
                if (
                    expected is not None
                    and isinstance(reply, dict)
                    and reply.get("seq") is not None
                    and reply["seq"] < expected
                ):
                    continue  # stale reply from a timed-out earlier attempt
                return reply
        except (EOFError, BrokenPipeError, ConnectionResetError) as error:
            raise ShardCrashError(
                self.shard_id,
                f"worker pipe closed ({type(error).__name__})",
            ) from error

    def request(self, message: Dict, timeout_s: float | None = None) -> Dict:
        self.send(message, timeout_s)
        return self.recv()

    def request_many(
        self,
        messages: Sequence[Dict],
        timeout_s: float | None = None,
        on_response=None,
    ) -> List[Dict]:
        """Pipeline a message batch over the pipe.

        All messages are written up front (the worker applies them in
        order); replies already available are drained between writes so
        neither side ever blocks on a full pipe buffer, then collected in
        order.  Used by journal replay, where the batch can span a whole
        stream's worth of windows.
        """
        responses = []
        for message in messages:
            self.send(message, timeout_s)
            try:
                while self._connection.poll(0):
                    self._drained.append(self._connection.recv())
            except (EOFError, BrokenPipeError, ConnectionResetError) as error:
                raise ShardCrashError(
                    self.shard_id,
                    f"worker pipe closed ({type(error).__name__})",
                ) from error
        for _ in messages:
            response = self.recv()
            if on_response is not None:
                on_response(response)
            responses.append(response)
        return responses

    # -- gather surface (overlapped dispatch) ---------------------------

    def reply_ready(self) -> bool:
        """A reply can be read without blocking (buffered, pending on the
        pipe, or the pipe has hit EOF — recv() resolves which)."""
        if self._drained:
            return True
        try:
            return self._connection.poll(0)
        except (OSError, EOFError, BrokenPipeError):
            return True  # dead pipe: recv() will raise ShardCrashError

    def gather_connection(self):
        """The pipe end ``multiprocessing.connection.wait`` can select on."""
        return self._connection

    def recv_deadline(self) -> float | None:
        """Monotonic deadline of the oldest in-flight reply (None: no
        deadline, or the reply is already buffered)."""
        if self._drained or not self._in_flight:
            return None
        return self._in_flight[0][0]

    def kill(self) -> None:
        """Hard-kill the worker (no stop handshake) and release the pipe —
        what a crash fault does, and close()'s last resort."""
        self._in_flight.clear()
        self._drained.clear()
        try:
            if self._process.is_alive():
                self._process.terminate()
                self._process.join(timeout=5.0)
                if self._process.is_alive():  # pragma: no cover - defensive
                    self._process.kill()
                    self._process.join(timeout=5.0)
        finally:
            try:
                self._connection.close()
            except OSError:  # pragma: no cover - defensive
                pass

    def close(self) -> None:
        try:
            if self._process.is_alive():
                try:
                    self.request(
                        {"op": "stop"},
                        timeout_s=5.0 if self.timeout_s is None else None,
                    )
                except (ShardError, OSError):
                    pass
            self._process.join(timeout=5.0)
        finally:
            # The parent connection is closed (and a stuck worker is
            # terminated) even when the handshake or join above fails.
            self.kill()
