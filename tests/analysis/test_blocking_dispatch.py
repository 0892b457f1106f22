"""blocking-dispatch rule: no blocking request() anywhere in the service."""

from __future__ import annotations

from repro.analysis import analyze_source

PATH = "/tmp/fixture.py"


def findings_of(source: str):
    return analyze_source(source, path=PATH, rules=["blocking-dispatch"])


class TestTruePositives:
    def test_request_in_for_loop_flagged(self):
        source = """
class Service:
    def _place_window(self, groups):
        for shard in sorted(groups):
            response = self.clients[shard].request({"op": "arrive"})
"""
        findings = findings_of(source)
        assert [f.rule for f in findings] == ["blocking-dispatch"]
        assert "send()" in findings[0].message

    def test_request_in_while_loop_flagged(self):
        source = """
class Service:
    def _drain(self, shard):
        while self.pending:
            self.clients[shard].request(self.pending.pop())
"""
        assert len(findings_of(source)) == 1

    def test_nested_loop_reports_once(self):
        source = """
class Service:
    def _sweep(self, rounds, shards):
        for _ in range(rounds):
            for shard in shards:
                self.clients[shard].request({"op": "report"})
"""
        assert len(findings_of(source)) == 1

    def test_request_outside_loop_flagged(self):
        source = """
class Service:
    def _send(self, shard, message):
        return self.clients[shard].request(message)
"""
        assert [f.rule for f in findings_of(source)] == ["blocking-dispatch"]

    def test_former_send_helpers_flagged(self):
        """The blocking send helpers that once had an exemption are
        flagged like any other caller: a dispatch of one goes through
        ``_dispatch`` too."""
        for name in (
            "_send",
            "_send_supervised",
            "_resolve_supervised",
            "_tracked_request",
        ):
            source = f"""
class Service:
    def {name}(self, shard, message):
        while True:
            return self.clients[shard].request(message)
"""
            assert len(findings_of(source)) == 1, name

    def test_pipe_safety_family_still_scans_request_many_payloads(self):
        source = """
import numpy as np

class Service:
    def _replay(self, client, entries):
        client.request_many([{"count": np.int64(len(entries))}])
"""
        findings = analyze_source(source, path=PATH, rules=["pipe-safety"])
        assert [f.rule for f in findings] == ["pipe-safety"]


class TestNegatives:
    def test_request_many_replay_clean(self):
        source = """
class Service:
    def _recover_shard(self, shard, entries):
        self.clients[shard].request_many(entries)
"""
        assert findings_of(source) == []

    def test_send_gather_loop_clean(self):
        source = """
class Service:
    def _dispatch(self, sends):
        for shard, message in sends:
            self.clients[shard].send(message)
        return [self.clients[shard].recv() for shard, _ in sends]
"""
        assert findings_of(source) == []

    def test_suppression_honored(self):
        source = """
class Service:
    def _legacy(self, shards):
        for shard in shards:
            self.clients[shard].request({})  # repro-lint: disable=blocking-dispatch — A/B baseline
"""
        assert findings_of(source) == []
