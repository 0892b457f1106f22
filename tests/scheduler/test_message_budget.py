"""A transport gate that does not read a clock.

A routing round costs one message per routed shard: the departures a
shard is owed ride inside its window message, not in a flush of their
own ahead of it.  On the process transport a second round trip per
window is a double-digit share of the throughput, but this sandbox's
wall clock spreads ±15 % between identical runs — so, like
``test_call_budget.py``, the gate counts instead: the messages of a
seeded stream are the same on every machine.
"""

from repro.scheduler import ScheduleConfig, SchedulerService
from tests.scheduler.oracle_dispatch import SequentialDispatchService

SHARDS = 2
CONFIG = ScheduleConfig(
    machine="amd",
    hosts=6,
    requests=400,
    seed=17,
    churn=True,
    policy="first-fit",
    arrival_rate=2.0,
    mean_lifetime=12.0,
    heavy_tail=True,
    vcpus=(8, 8, 16, 32),
    shards=SHARDS,
    window=8,
)


class CountingClient:
    """Shard client wrapper: logs ``(shard, op, carried departures)``
    for every message, whichever half of the protocol sends it."""

    def __init__(self, inner, log) -> None:
        self.inner = inner
        self.log = log

    def __getattr__(self, name):  # transport, gather surface, close, ...
        return getattr(self.inner, name)

    def _count(self, message):
        carried = message.get(
            "events" if message["op"] == "depart" else "departures", ()
        )
        self.log.append((self.inner.shard_id, message["op"], len(carried)))

    def send(self, message, timeout_s=None):
        self._count(message)
        self.inner.send(message, timeout_s)


def _serve_counted(config, service_class):
    """(report, message log, per round: routed shards and the slice of
    the log its dispatch sent)."""
    log, rounds = [], []
    with service_class(config) as service:
        service.clients = [
            CountingClient(client, log) for client in service.clients
        ]
        dispatch = service._dispatch_window

        def spy(items, groups, *rest):
            begin = len(log)
            dispatch(items, groups, *rest)
            rounds.append((sorted(groups), log[begin:]))

        service._dispatch_window = spy
        return service.serve(), log, rounds


def _assert_one_message_per_routed_shard(service_class):
    report, log, rounds = _serve_counted(CONFIG, service_class)
    stats = report.service
    assert stats.rounds == len(rounds) == 400 // 8
    assert stats.crashes == stats.timeouts == stats.failovers == 0

    # Inside a round's dispatch: exactly one message per routed shard,
    # and it is the window.
    for routed, sent in rounds:
        assert [(shard, op) for shard, op, _ in sent] == [
            (shard, "arrive") for shard in routed
        ]
    dispatched = sum(len(routed) for routed, _ in rounds)

    # Outside it, a window-op message is a one-arrival retry; nothing
    # else is sent until the stream has ended.
    ops = [op for _, op, _ in log]
    assert ops.count("arrive") == dispatched + stats.retries
    last_window = max(i for i, op in enumerate(ops) if op == "arrive")
    tail = ops[last_window + 1 :]
    assert "depart" not in ops[:last_window]
    assert sorted(tail) == sorted(
        ["depart"] * tail.count("depart") + ["report"] * SHARDS
    )
    assert tail.count("depart") <= SHARDS
    assert len(log) == dispatched + stats.retries + len(tail)

    # The stream exercises what the budget is about: departures did
    # ride on windows, retries did happen, and every batch is counted.
    carrying = [entry for entry in log if entry[2]]
    assert stats.departure_batches == len(carrying)
    assert sum(count for _, _, count in carrying) == stats.departures_routed
    assert stats.departures_routed == 400
    assert len(carrying) - tail.count("depart") > stats.rounds // 2
    assert stats.retries > 0
    return log


def test_a_round_costs_one_message_per_routed_shard():
    _assert_one_message_per_routed_shard(SchedulerService)


def test_sequential_dispatch_sends_the_same_messages():
    """The sequential oracle keeps the budget and sends the very same
    messages in the very same order."""
    overlapped = _assert_one_message_per_routed_shard(SchedulerService)
    sequential = _assert_one_message_per_routed_shard(
        SequentialDispatchService
    )
    assert sequential == overlapped
