"""Deterministic fault injection for the sharded scheduler service.

A :class:`FaultPlan` is a seeded, JSON-serializable schedule of failures
— *crash shard s at its Nth message*, *delay message N by M ms*, *drop
the reply to message N*, *wedge forever from message N* — that wraps
either transport as a :class:`FaultInjectingClient`.  Faults fire on the
client (front-end) side of the pipe, exactly where real failures are
observed, so the same plan reproduces the same failure sequence on the
inline and the process transport alike.

Determinism contract:

* Message indices count the requests a shard's client actually issues —
  retries and journal replays included — so a plan is a pure function of
  the service's own traffic.
* Each :class:`FaultAction` fires **at most once**.  The fired set lives
  on the per-shard :class:`ShardFaultSchedule`, which survives the
  respawn of the client it wraps; a crash-at-every-message sweep
  therefore always converges — the replay after a crash cannot re-crash
  on the same action.
* Plan generators draw from ``random.Random(seed)`` only, so a plan is
  reproducible from ``(n_shards, seed)`` and round-trips through JSON
  (``to_dict`` / ``from_dict``) for benchmark provenance.
"""

from __future__ import annotations

import random
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List

from repro.scheduler.shard import ShardCrashError, ShardTimeoutError

#: The supported failure modes.
FAULT_KINDS = ("crash", "delay", "drop", "wedge")


@dataclass(frozen=True)
class FaultAction:
    """One injected failure: shard ``shard``, at its ``at_message``-th
    request (0-based, counted across respawns), do ``kind``."""

    shard: int
    at_message: int
    kind: str
    delay_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}"
            )
        if self.shard < 0:
            raise ValueError(f"shard must be >= 0, got {self.shard}")
        if self.at_message < 0:
            raise ValueError(
                f"at_message must be >= 0, got {self.at_message}"
            )
        if self.delay_ms < 0:
            raise ValueError(f"delay_ms must be >= 0, got {self.delay_ms}")

    def to_dict(self) -> Dict:
        return {
            "shard": self.shard,
            "at_message": self.at_message,
            "kind": self.kind,
            "delay_ms": self.delay_ms,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "FaultAction":
        return cls(**data)


class ShardFaultSchedule:
    """One shard's live view of a plan: a message counter plus the
    actions still pending.  Deliberately *not* reset on respawn — the
    counter keeps running and fired actions stay fired, which is what
    makes fault handling convergent (see the module docstring)."""

    def __init__(self, shard_id: int, actions: List[FaultAction]) -> None:
        self.shard_id = shard_id
        self.messages_seen = 0
        self.fired: List[FaultAction] = []
        self._pending: Dict[int, List[FaultAction]] = {}
        for action in actions:
            self._pending.setdefault(action.at_message, []).append(action)

    def next_action(self) -> FaultAction | None:
        """Advance the message counter; return the action due at this
        index (at most one — extras queue for later indices), if any."""
        index = self.messages_seen
        self.messages_seen += 1
        queue = self._pending.get(index)
        if not queue:
            return None
        action = queue.pop(0)
        if queue:
            # More than one action at the same index: shift the rest to
            # the next index so none is silently lost.
            self._pending.setdefault(index + 1, []).extend(queue)
            del self._pending[index]
        self.fired.append(action)
        return action


@dataclass
class FaultPlan:
    """A reproducible schedule of :class:`FaultAction`\\ s plus the seed
    that generated it (kept for provenance in benchmark payloads)."""

    actions: List[FaultAction] = field(default_factory=list)
    seed: int = 0

    def to_dict(self) -> Dict:
        return {
            "actions": [action.to_dict() for action in self.actions],
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "FaultPlan":
        return cls(
            actions=[
                FaultAction.from_dict(entry) for entry in data["actions"]
            ],
            seed=data["seed"],
        )

    def bind(self, shard_id: int) -> ShardFaultSchedule:
        """The mutable per-shard schedule a client consumes.  Bind once
        per shard per service — rebinding would re-arm fired actions."""
        return ShardFaultSchedule(
            shard_id,
            [action for action in self.actions if action.shard == shard_id],
        )

    @classmethod
    def crash_at(cls, shard: int, at_message: int) -> "FaultPlan":
        """Single-crash convenience used all over the sweep tests."""
        return cls(actions=[FaultAction(shard, at_message, "crash")])

    @classmethod
    def kill_each_shard_once(
        cls, n_shards: int, *, seed: int = 0, span: int = 8
    ) -> "FaultPlan":
        """Crash every shard exactly once, each at a seeded message index
        in ``[0, span)`` — the reference kill schedule of the chaos
        benchmark and the acceptance gate."""
        rng = random.Random(seed)
        actions = [
            FaultAction(shard, rng.randrange(span), "crash")
            for shard in range(n_shards)
        ]
        return cls(actions=actions, seed=seed)

    @classmethod
    def storm(
        cls,
        n_shards: int,
        *,
        seed: int = 0,
        n_faults: int = 8,
        span: int = 32,
        delay_ms: float = 2.0,
    ) -> "FaultPlan":
        """A seeded mixed-mode schedule (crashes, drops, delays, wedges)
        for soak-style chaos runs."""
        rng = random.Random(seed)
        actions = []
        for _ in range(n_faults):
            kind = FAULT_KINDS[rng.randrange(len(FAULT_KINDS))]
            actions.append(
                FaultAction(
                    shard=rng.randrange(n_shards),
                    at_message=rng.randrange(span),
                    kind=kind,
                    delay_ms=delay_ms if kind == "delay" else 0.0,
                )
            )
        return cls(actions=actions, seed=seed)


class FaultInjectingClient:
    """Wrap a shard client (either transport) with a fault schedule.

    Fault semantics, chosen to mirror what each failure looks like from
    the front-end:

    ``crash``
        The inner worker is killed (its state is gone) and
        :class:`ShardCrashError` is raised — the message was **not**
        applied.  The crashed state latches for this client incarnation;
        recovery must respawn the client.
    ``wedge``
        :class:`ShardTimeoutError` on this and every later request, and
        nothing is applied.  The worker process (if any) is still alive
        until the supervisor kills it at mark-down.
    ``drop``
        The message **is** delivered and applied, but the reply is lost:
        :class:`ShardTimeoutError` after the fact.  A supervised retry
        resends the same sequence number and is answered from the
        worker's dedup cache.
    ``delay``
        Sleep ``delay_ms`` and then deliver normally.
    """

    def __init__(self, inner, schedule: ShardFaultSchedule) -> None:
        self.inner = inner
        self.schedule = schedule
        self.shard_id = inner.shard_id
        self.transport = inner.transport
        #: Latched terminal state of this incarnation ("crash"/"wedge").
        #: Cleared only by respawning the client; latched failures do not
        #: consume message indices, so retries stay deterministic.
        self._latched: str | None = None
        #: Outcomes of split-protocol sends, oldest first, consumed by
        #: recv(): ("ok" | "drop" | "wedge", fired message index | None).
        self._outcomes: Deque[tuple] = deque()

    def request(self, message: Dict, timeout_s: float | None = None) -> Dict:
        if self._latched == "crash":
            raise ShardCrashError(self.shard_id, "crashed by fault plan")
        if self._latched == "wedge":
            raise ShardTimeoutError(self.shard_id, "wedged by fault plan")
        action = self.schedule.next_action()
        if action is not None:
            index = self.schedule.messages_seen - 1
            if action.kind == "crash":
                self._latched = "crash"
                self.inner.kill()
                raise ShardCrashError(
                    self.shard_id, f"injected crash at message #{index}"
                )
            if action.kind == "wedge":
                self._latched = "wedge"
                raise ShardTimeoutError(
                    self.shard_id, f"injected wedge at message #{index}"
                )
            if action.kind == "drop":
                self.inner.request(message, timeout_s)
                raise ShardTimeoutError(
                    self.shard_id,
                    f"injected dropped reply at message #{index}",
                )
            time.sleep(action.delay_ms / 1000.0)
        return self.inner.request(message, timeout_s)

    # -- split protocol (overlapped dispatch) ---------------------------
    #
    # The same fault semantics, decomposed so the front-end can keep
    # several shards' messages in flight at once: a crash fires at
    # ``send`` (the pipe is dead before anything else happens), while a
    # wedge or dropped reply surfaces at ``recv`` — exactly where a real
    # lost reply is observed.  Outcomes queue FIFO per send, so the
    # pairing stays deterministic however dispatch is interleaved.

    def send(self, message: Dict, timeout_s: float | None = None) -> None:
        if self._latched == "crash":
            raise ShardCrashError(self.shard_id, "crashed by fault plan")
        if self._latched == "wedge":
            # Nothing is delivered; recv() reports the timeout.
            self._outcomes.append(("wedge", None))
            return
        action = self.schedule.next_action()
        if action is not None:
            index = self.schedule.messages_seen - 1
            if action.kind == "crash":
                self._latched = "crash"
                self.inner.kill()
                raise ShardCrashError(
                    self.shard_id, f"injected crash at message #{index}"
                )
            if action.kind == "wedge":
                self._latched = "wedge"
                self._outcomes.append(("wedge", index))
                return
            if action.kind == "drop":
                self.inner.send(message, timeout_s)
                self._outcomes.append(("drop", index))
                return
            time.sleep(action.delay_ms / 1000.0)
        self.inner.send(message, timeout_s)
        self._outcomes.append(("ok", None))

    def recv(self, timeout_s: float | None = None) -> Dict:
        if not self._outcomes:
            return self.inner.recv(timeout_s)
        kind, index = self._outcomes.popleft()
        if kind == "wedge":
            raise ShardTimeoutError(
                self.shard_id,
                "wedged by fault plan"
                if index is None
                else f"injected wedge at message #{index}",
            )
        if kind == "drop":
            # The message was applied, but its reply is lost in transit.
            self.inner.recv(timeout_s)
            raise ShardTimeoutError(
                self.shard_id,
                f"injected dropped reply at message #{index}",
            )
        return self.inner.recv(timeout_s)

    def request_many(
        self,
        messages,
        timeout_s: float | None = None,
        on_response=None,
    ) -> List[Dict]:
        """Sequential on purpose: fault actions fire by message index,
        and pipelining would decouple the index from the delivery."""
        responses = []
        for message in messages:
            response = self.request(message, timeout_s)
            if on_response is not None:
                on_response(response)
            responses.append(response)
        return responses

    # -- gather surface -------------------------------------------------

    def reply_ready(self) -> bool:
        if self._outcomes and self._outcomes[0][0] == "wedge":
            return True  # the reply will never arrive; recv() raises now
        return self.inner.reply_ready()

    def gather_connection(self):
        if self._outcomes and self._outcomes[0][0] == "wedge":
            return None
        return self.inner.gather_connection()

    def recv_deadline(self) -> float | None:
        if self._outcomes and self._outcomes[0][0] == "wedge":
            return None
        return self.inner.recv_deadline()

    def kill(self) -> None:
        self._outcomes.clear()
        self.inner.kill()

    def close(self) -> None:
        self.inner.close()


__all__ = [
    "FAULT_KINDS",
    "FaultAction",
    "FaultInjectingClient",
    "FaultPlan",
    "ShardFaultSchedule",
]
