"""The inline transport cannot cheat — checked here, not on every request.

``InlineShardClient`` hands row-coded messages straight to the worker, so
nothing on the request path proves any more that a payload would survive
a pipe or a JSON file.  :class:`JsonRoundTripClient` is that proof as a
test client: a delegating wrapper (the shape of ``FaultInjectingClient``)
that pushes every message and every reply through ``json.dumps`` /
``json.loads``, so tuples arrive as lists, dict keys as strings, and
anything that is not a JSON scalar fails loudly.  The service's
equivalence gates — inline ≡ process, overlapped ≡ sequential, crash at
every message index — each run once through it and must produce the
digests and counters of the plain run.  The opposite guard runs too: a
plain inline ``serve`` with ``json.dumps`` / ``json.loads`` disabled, so
the round trip cannot creep back onto the request path.
"""

import json
from dataclasses import replace
from unittest import mock

import pytest

from repro.scheduler import FaultPlan, ScheduleConfig, SchedulerService
from repro.scheduler.wire import decode_summary
from tests.scheduler.test_faults import _fast_config, _report_signature
from tests.scheduler.test_service import CHURN_REFERENCE


def _json(payload):
    return json.loads(json.dumps(payload))


class JsonRoundTripClient:
    """Shard client wrapper: every message and reply crosses JSON."""

    def __init__(self, inner) -> None:
        self.inner = inner

    def __getattr__(self, name):  # transport, shard_id, gather surface, ...
        return getattr(self.inner, name)

    def send(self, message, timeout_s=None):
        self.inner.send(_json(message), timeout_s)

    def recv(self, timeout_s=None):
        return _json(self.inner.recv(timeout_s))

    def request(self, message, timeout_s=None):
        return _json(self.inner.request(_json(message), timeout_s))

    def request_many(self, messages, timeout_s=None, on_response=None):
        responses = []
        for message in messages:
            responses.append(self.request(message, timeout_s))
            if on_response is not None:
                on_response(responses[-1])
        return responses


def _through_json(service):
    """Wrap every client the service has and every one it will build
    (respawns after a crash included)."""
    make_client = service._make_client
    service._make_client = lambda shard: JsonRoundTripClient(
        make_client(shard)
    )
    service.clients = [
        JsonRoundTripClient(client) for client in service.clients
    ]


def _serve(config, faults=None, *, through_json):
    with SchedulerService(config, faults=faults) as service:
        if through_json:
            _through_json(service)
        report = service.serve()
        return report, service.stats


def _counters(stats):
    """Every routing counter; wall-clock fields and the transport name
    are the only things two equivalent runs may differ in."""
    return replace(
        stats,
        transport="",
        window_wall_seconds=0.0,
        shard_service_seconds=0.0,
    )


class TestJsonRoundTripGates:
    def test_inline_through_json_matches_plain_inline_and_process(self):
        config = ScheduleConfig(
            **dict(CHURN_REFERENCE, requests=30), shards=2, window=4
        )
        plain, plain_stats = _serve(config, through_json=False)
        carried, carried_stats = _serve(config, through_json=True)
        process, process_stats = _serve(
            replace(config, workers="process"), through_json=False
        )
        assert _report_signature(carried) == _report_signature(plain)
        assert _report_signature(carried) == _report_signature(process)
        assert _counters(carried_stats) == _counters(plain_stats)
        assert _counters(carried_stats) == _counters(process_stats)

    def test_departures_and_summary_rows_cross_as_json(self):
        """The two riders are really on the JSON path: the departure
        pairs a window message brings along, and the summary row every
        reply brings back (a list by the time it is decoded)."""
        config = ScheduleConfig(
            **dict(CHURN_REFERENCE, requests=30), shards=2, window=4
        )
        carried = []
        with SchedulerService(config) as service:
            _through_json(service)
            for client in service.clients:
                handle = client.inner.worker.handle

                def spy(message, handle=handle):
                    carried.extend(message.get("departures", ()))
                    return handle(message)

                client.inner.worker.handle = spy
            service.serve()
            assert len(carried) > 10
            for shard, client in enumerate(service.clients):
                row = client.request({"op": "summary"})["summary"]
                assert type(row) is list and type(row[-2]) is list
                assert decode_summary(row, shard) == service.summaries[shard]

    def test_one_shot_decide_through_json_matches_plain(self):
        """``decide`` shares the codec with ``arrive``."""
        config = ScheduleConfig(
            machine="mixed", hosts=6, requests=60, seed=3, shards=2,
            vcpus=(4, 8, 16, 10), batch_size=16,
        )

        def run(through_json):
            with SchedulerService(config) as service:
                if through_json:
                    _through_json(service)
                return service.run()

        plain, carried = run(False), run(True)
        assert carried.placed > 0 and carried.rejected > 0
        for a, b in zip(carried.decisions, plain.decisions, strict=True):
            a.decision_seconds = b.decision_seconds = 0.0
            assert a.to_dict() == b.to_dict()

    def test_overlapped_matches_sequential_through_json(self):
        config = ScheduleConfig(
            **CHURN_REFERENCE, shards=2, window=4, supervised=True
        )
        overlapped, on_stats = _serve(config, through_json=True)
        sequential, off_stats = _serve(
            replace(config, overlap=False), through_json=True
        )
        plain, _ = _serve(config, through_json=False)
        assert _report_signature(overlapped) == _report_signature(sequential)
        assert _report_signature(overlapped) == _report_signature(plain)
        assert on_stats.overlapped_rounds > 0
        assert _counters(replace(on_stats, overlapped_rounds=0)) == _counters(
            off_stats
        )

    def test_crash_at_every_message_index_through_json(self):
        """The journal stores the row-coded message it sent; replaying it
        through JSON (lists where tuples were) must rebuild the shard
        bit for bit, whichever message the crash interrupts."""
        config = _fast_config(requests=24, seed=7, supervised=True)
        plain, _ = _serve(
            config, FaultPlan(actions=[]), through_json=False
        )
        signature = _report_signature(plain)
        with SchedulerService(config, faults=FaultPlan(actions=[])) as probe:
            probe.serve()
            message_counts = [
                schedule.messages_seen for schedule in probe._fault_schedules
            ]
        assert all(count > 0 for count in message_counts)
        for shard, count in enumerate(message_counts):
            for index in range(count):
                report, stats = _serve(
                    config, FaultPlan.crash_at(shard, index), through_json=True
                )
                assert _report_signature(report) == signature, (
                    f"crash at shard {shard} message {index} diverged"
                )
                assert stats.crashes == 1
                assert stats.journal_replays >= 1


class TestNoJsonOnTheRequestPath:
    def test_inline_serve_never_calls_json(self):
        """``json.dumps`` / ``json.loads`` raise for the whole of
        ``serve``: an inline service moves no bytes, so it serializes
        nothing — not per message, not per reply, not for the report."""
        config = ScheduleConfig(
            **dict(CHURN_REFERENCE, requests=30), shards=2, window=4
        )
        expected, _ = _serve(config, through_json=False)

        def forbidden(*args, **kwargs):
            raise AssertionError("JSON on the inline request path")

        with SchedulerService(config) as service:
            with mock.patch.object(json, "dumps", forbidden), mock.patch.object(
                json, "loads", forbidden
            ):
                report = service.serve()
        assert _report_signature(report) == _report_signature(expected)

    def test_the_guard_can_fail(self):
        """Through the JSON client the same patch trips: the guard
        watches the calls it claims to watch."""
        config = _fast_config(requests=8)
        with SchedulerService(config) as service:
            _through_json(service)
            with mock.patch.object(
                json, "dumps", side_effect=AssertionError("tripped")
            ):
                with pytest.raises(AssertionError, match="tripped"):
                    service.serve()
