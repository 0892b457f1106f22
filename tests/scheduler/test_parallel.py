"""Overlapped dispatch: split protocol, deadlines, and equivalence.

The contracts under test:

* **Split protocol** — ``send()``/``recv()`` pair FIFO on both
  transports, ``request_many`` pipelines (process) or loops (inline)
  with identical results, and a ``recv()`` without a pending ``send()``
  is a programming error.
* **Deadline semantics** — the reply deadline is stamped at ``send()``;
  ``recv()`` polls with the *remaining* budget, so time the front-end
  spends elsewhere between send and recv is charged against the same
  deadline instead of resetting it.
* **Equivalence** — the service's overlapped dispatch produces
  bit-for-bit the decisions, merged reports, counters and journals of
  the sequential oracle (``tests/scheduler/oracle_dispatch.py``: gather
  after every send), on both transports.
"""

import gc
import multiprocessing
import os
import signal
import threading
import time
from dataclasses import replace

import pytest

from repro.core.memo import DEFAULT_ENUMERATION_CACHE
from repro.scheduler import (
    InlineShardClient,
    ProcessShardClient,
    ScheduleConfig,
    SchedulerService,
    ShardError,
    ShardTimeoutError,
)
from repro.scheduler.shard import (
    POLL_SECONDS,
    _await_message,
    _shard_worker_main,
)
from tests.scheduler.oracle_dispatch import SequentialDispatchService
from tests.scheduler.test_service import CHURN_REFERENCE, _fingerprints


def _client_config(**overrides):
    values = dict(machine="amd", hosts=4, requests=8, shards=2, window=2)
    values.update(overrides)
    return ScheduleConfig(**values)


def _serve(config, service_class=SchedulerService):
    with service_class(config) as service:
        report = service.serve()
        return report, service.stats


def _signature(report):
    return (
        _fingerprints(report.decisions),
        report.placed,
        report.rejected,
        report.churn.to_dict(),
    )


class TestInlineSplitProtocol:
    def _client(self):
        config = _client_config()
        return InlineShardClient(
            0, config, machines=config.machine_list()[::2]
        )

    def test_send_recv_pair_fifo(self):
        client = self._client()
        client.send({"op": "summary"})
        client.send({"op": "report"})
        first = client.recv()
        second = client.recv()
        assert "summary" in first
        assert "report" in second

    def test_recv_without_send_is_an_error(self):
        client = self._client()
        with pytest.raises(ShardError, match="without a pending send"):
            client.recv()

    def test_request_many_invokes_callback_in_order(self):
        client = self._client()
        seen = []
        responses = client.request_many(
            [{"op": "summary"}, {"op": "summary"}],
            on_response=seen.append,
        )
        assert responses == seen
        assert len(responses) == 2

    def test_gather_surface(self):
        client = self._client()
        assert client.reply_ready() is False
        assert client.gather_connection() is None
        client.send({"op": "summary"})
        assert client.reply_ready() is True
        client.recv()
        assert client.reply_ready() is False


class TestProcessSplitProtocol:
    def test_split_matches_request(self):
        config = _client_config(workers="process")
        client = ProcessShardClient(0, config, timeout_s=30.0)
        try:
            via_request = client.request({"op": "summary"})
            client.send({"op": "summary"})
            via_split = client.recv()
            assert via_split == via_request
        finally:
            client.close()

    def test_request_many_pipelines(self):
        config = _client_config(workers="process")
        client = ProcessShardClient(0, config, timeout_s=30.0)
        try:
            seen = []
            responses = client.request_many(
                [{"op": "summary"}] * 4, on_response=seen.append
            )
            assert responses == seen
            assert len(responses) == 4
        finally:
            client.close()

    def test_recv_charges_the_remaining_deadline(self):
        """The deadline is stamped at send(): a stalled worker times out
        after the *remaining* budget, not a fresh full timeout per
        recv() call."""
        config = _client_config(workers="process")
        client = ProcessShardClient(0, config, timeout_s=30.0)
        try:
            client.request({"op": "summary"})  # worker fully up
            os.kill(client._process.pid, signal.SIGSTOP)
            try:
                budget = 0.6
                client.send({"op": "summary"}, timeout_s=budget)
                time.sleep(budget / 2)
                start = time.monotonic()
                with pytest.raises(ShardTimeoutError):
                    client.recv()
                waited = time.monotonic() - start
                # Remaining budget is ~0.3s; a fixed full-timeout poll
                # would have waited the whole 0.6s again.
                assert waited < budget
            finally:
                os.kill(client._process.pid, signal.SIGCONT)
        finally:
            client.close()

    def test_explicit_recv_timeout_overrides_deadline(self):
        config = _client_config(workers="process")
        client = ProcessShardClient(0, config, timeout_s=30.0)
        try:
            client.request({"op": "summary"})
            os.kill(client._process.pid, signal.SIGSTOP)
            try:
                client.send({"op": "summary"}, timeout_s=30.0)
                start = time.monotonic()
                with pytest.raises(ShardTimeoutError):
                    client.recv(timeout_s=0.2)
                assert time.monotonic() - start < 5.0
            finally:
                os.kill(client._process.pid, signal.SIGCONT)
        finally:
            client.close()


class TestWorkerPolling:
    """The process worker's wait for its next message: poll after a short
    wait, block after a long one, never burn more than one budget."""

    @pytest.mark.parametrize("poll", [False, True])
    def test_waiting_message_returns_at_once(self, poll):
        parent, child = multiprocessing.Pipe()
        try:
            parent.send({"op": "summary"})
            assert _await_message(child, poll) is True
            assert child.recv() == {"op": "summary"}
        finally:
            parent.close()
            child.close()

    @pytest.mark.parametrize("poll", [False, True])
    def test_long_wait_blocks_and_stops_the_polling(self, poll):
        parent, child = multiprocessing.Pipe()
        delay = 50 * POLL_SECONDS
        timer = threading.Timer(delay, parent.send, args=({"op": "stop"},))
        try:
            cpu_before = time.process_time()
            start = time.perf_counter()
            timer.start()
            assert _await_message(child, poll) is False
            waited = time.perf_counter() - start
            burned = time.process_time() - cpu_before
            assert waited >= delay * 0.9
            # At most one polling budget of CPU (with slack for the
            # timer thread), not the whole wait.
            assert burned < delay / 2
            assert child.recv() == {"op": "stop"}
        finally:
            timer.cancel()
            parent.close()
            child.close()

    def test_hung_up_pipe_ends_the_wait(self):
        parent, child = multiprocessing.Pipe()
        parent.close()
        try:
            _await_message(child, True)
            with pytest.raises(EOFError):
                child.recv()
        finally:
            child.close()


class TestWorkersInheritTheArtifactStore:
    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="workers inherit the store only when forked",
    )
    def test_forked_shards_train_nothing(self, empty_artifact_store):
        """The front end trains before it spawns, so process shards report
        no enumeration of their own and the merged counts equal the inline
        transport's: one run per key per service, whatever the transport."""
        config = ScheduleConfig(**CHURN_REFERENCE, shards=2, window=4)
        inline, _ = _serve(config)
        DEFAULT_ENUMERATION_CACHE.clear()
        empty_artifact_store.clear()
        with SchedulerService(replace(config, workers="process")) as service:
            trained = empty_artifact_store.info().misses
            forked = service.serve()
            shard_reports = [
                client.request({"op": "report"})["report"]
                for client in service.clients
            ]
        assert trained == 2  # vCPU classes 8 and 32 on one shape
        assert [r["enumeration_runs"] for r in shard_reports] == [0, 0]
        assert forked.enumeration_runs == inline.enumeration_runs == 2
        assert forked.cache_info.misses == inline.cache_info.misses == 2
        assert _signature(forked) == _signature(inline)


    def test_worker_freezes_the_heap_it_started_with(self):
        """A worker never frees what it inherited, so its collector must
        not walk it (and copy every inherited page by writing GC
        headers): the heap is frozen before the shard is built."""
        context = multiprocessing.get_context()
        parent, child = context.Pipe()
        verdict, answer = context.Pipe(duplex=False)
        config = ScheduleConfig(**CHURN_REFERENCE, shards=1, policy="first-fit")
        process = context.Process(
            target=_serve_then_report_frozen,
            args=(child, config, answer),
            daemon=True,
        )
        process.start()
        try:
            parent.send({"op": "stop"})
            parent.recv()
            assert verdict.poll(20.0)
            assert verdict.recv() > 0
        finally:
            process.join(5.0)
            for end in (parent, child, verdict, answer):
                end.close()


def _serve_then_report_frozen(connection, config, answer):
    _shard_worker_main(connection, 0, config)
    answer.send(gc.get_freeze_count())


def _untimed(stats):
    """Every counter; the wall-clock fields are all two equivalent runs
    may differ in."""
    return replace(stats, window_wall_seconds=0.0, shard_service_seconds=0.0)


class TestOverlapEquivalence:
    def test_inline_overlap_matches_sequential(self):
        config = ScheduleConfig(**CHURN_REFERENCE, shards=2, window=4)
        overlapped, on_stats = _serve(config)
        sequential, off_stats = _serve(config, SequentialDispatchService)
        assert _signature(overlapped) == _signature(sequential)
        assert _untimed(on_stats) == _untimed(off_stats)
        assert on_stats.rounds > 0

    def test_supervised_overlap_matches_sequential(self):
        config = ScheduleConfig(
            **CHURN_REFERENCE, shards=2, window=4, supervised=True
        )

        def serve(service_class):
            with service_class(config) as service:
                report = service.serve()
                journals = [
                    (journal.next_seq, list(journal))
                    for journal in service.supervisor.journals
                ]
                return report, service.stats, journals

        overlapped, on_stats, on_journals = serve(SchedulerService)
        sequential, off_stats, off_journals = serve(SequentialDispatchService)
        assert _signature(overlapped) == _signature(sequential)
        # The same messages under the same sequence numbers: a window
        # carries its shard's departures whichever dispatch sends it.
        assert on_journals == off_journals
        carrying = [
            entry
            for _, entries in on_journals
            for entry in entries
            if entry.message.get("departures")
        ]
        assert len(carrying) > 10
        assert on_stats.departure_batches == off_stats.departure_batches
        assert on_stats.departure_batches >= len(carrying)
        assert _untimed(on_stats) == _untimed(off_stats)

    def test_process_overlap_matches_sequential(self):
        config = ScheduleConfig(
            **dict(CHURN_REFERENCE, requests=30), shards=2, window=4
        )
        process = replace(config, workers="process")
        overlapped, on_stats = _serve(process)
        sequential, off_stats = _serve(process, SequentialDispatchService)
        inline, _ = _serve(config)
        assert _signature(overlapped) == _signature(sequential)
        assert _signature(overlapped) == _signature(inline)
        assert _untimed(on_stats) == _untimed(off_stats)

    def test_overlap_records_split_timing(self):
        config = dict(CHURN_REFERENCE, shards=2, window=4)
        _, stats = _serve(ScheduleConfig(**config))
        assert stats.window_wall_seconds > 0.0
        assert stats.shard_service_seconds > 0.0

    def test_supervisor_tracks_multiple_in_flight_sends(self):
        config = ScheduleConfig(
            **dict(CHURN_REFERENCE, shards=2, window=4, supervised=True)
        )
        with SchedulerService(config) as service:
            service.serve()
            assert service.supervisor.max_in_flight >= 2
            assert service.supervisor._in_flight == {}

        with SequentialDispatchService(config) as service:
            service.serve()
            assert service.supervisor.max_in_flight == 1
