"""Pipe-safety rule: shard payloads stay JSON-safe."""

from __future__ import annotations

from repro.analysis import analyze_source

PATH = "/tmp/fixture.py"


def findings_of(source: str):
    return analyze_source(source, path=PATH, rules=["pipe-safety"])


class TestTruePositives:
    def test_numpy_scalar_in_send_flagged(self):
        source = """
import numpy as np

class Client:
    def push(self, connection, events):
        connection.send({"departed": np.int64(len(events))})
"""
        findings = findings_of(source)
        assert [f.rule for f in findings] == ["pipe-safety"]
        assert "numpy.int64" in findings[0].message

    def test_numpy_scalar_in_handler_return_flagged(self):
        source = """
import numpy as np

class Worker:
    def _handle_depart(self, events):
        return {"departed": np.mean(events)}
"""
        findings = findings_of(source)
        assert [f.rule for f in findings] == ["pipe-safety"]

    def test_wire_object_constructor_flagged(self):
        source = """
class Worker:
    def handle(self, message):
        return {"summary": ShardSummary(1, 2)}
"""
        findings = findings_of(source)
        assert len(findings) == 1
        assert "ShardSummary" in findings[0].message

    def test_unencoded_summary_in_response_flagged(self):
        # The reply carries encode_summary(...)'s row; the object itself
        # assigned into the response is still a finding.
        source = """
class Worker:
    def handle(self, message):
        response = {}
        response["summary"] = ShardSummary(self.shard_id, 2)
        return response
"""
        findings = findings_of(source)
        assert len(findings) == 1
        assert "ShardSummary" in findings[0].message
        assert "encoded row" in findings[0].message

    def test_numpy_scalar_in_summary_row_flagged(self):
        source = """
import numpy as np

def encode_summary(summary):
    return (summary.shard_id, np.int64(summary.n_hosts), None)
"""
        findings = analyze_source(
            source, path="src/repro/scheduler/wire.py", rules=["pipe-safety"]
        )
        assert [f.rule for f in findings] == ["pipe-safety"]
        assert "numpy.int64" in findings[0].message

    def test_from_dict_in_payload_flagged(self):
        source = """
class Worker:
    def _handle_arrive(self, message):
        return {"graded": GradedDecision.from_dict(message)}
"""
        findings = findings_of(source)
        assert len(findings) == 1
        assert "from_dict" in findings[0].message

    def test_payload_variable_assignments_followed(self):
        source = """
import numpy as np

class Worker:
    def handle(self, message):
        response = {"ok": True}
        response["stat"] = np.float64(1.0)
        return response
"""
        findings = findings_of(source)
        assert [f.rule for f in findings] == ["pipe-safety"]


    def test_numpy_scalar_in_encoded_row_flagged(self):
        source = """
import numpy as np

def encode_graded(entry):
    return (entry.request_id, np.float64(entry.seconds), entry.violated)
"""
        findings = findings_of(source)
        assert [f.rule for f in findings] == ["pipe-safety"]
        assert "numpy.float64" in findings[0].message

    def test_wire_object_in_encoded_row_flagged(self):
        source = """
def encode_arrival(request, event_time):
    return (request.request_id, PlacementRequest(1, request.profile, 8), event_time)
"""
        findings = findings_of(source)
        assert len(findings) == 1
        assert "PlacementRequest" in findings[0].message


class TestTrueNegatives:
    def test_rows_of_attribute_reads_clean(self):
        source = """
from operator import attrgetter

profile_row = attrgetter("name", "ipc_base")

def encode_arrival(request, event_time):
    return (request.request_id, profile_row(request.profile), event_time)

def decode_arrival(row):
    return PlacementRequest(*row)
"""
        assert findings_of(source) == []

    def test_row_codec_module_is_in_scope(self):
        source = """
import numpy as np

def encode_graded(entry):
    return (np.int64(entry.host_id),)
"""
        assert analyze_source(
            source,
            path="src/repro/scheduler/wire.py",
            rules=["pipe-safety"],
        )

    def test_encoded_summary_in_response_clean(self):
        # encode_* calls are the row codec: their result is JSON-safe
        # (their own bodies are scanned where they are defined), so the
        # descent stops there even when the argument is a wire object.
        source = """
class Worker:
    def handle(self, message):
        response = {"graded": [encode_graded(entry) for entry in message]}
        response["summary"] = encode_summary(ShardSummary(self.shard_id, 2))
        return response
"""
        assert findings_of(source) == []

    def test_to_dict_values_clean(self):
        source = """
class Worker:
    def handle(self, message):
        return {"graded": [entry.to_dict() for entry in message]}
"""
        assert findings_of(source) == []

    def test_conversion_wrappers_clean(self):
        source = """
import numpy as np

class Worker:
    def _handle_summary(self, values):
        return {
            "mean": float(np.mean(values)),
            "lanes": np.asarray(values).tolist(),
            "count": len(values),
        }
"""
        assert findings_of(source) == []

    def test_numpy_outside_payload_clean(self):
        source = """
import numpy as np

class Worker:
    def _decide(self, values):
        scores = np.asarray(values)
        best = int(scores.argmax())
        return {"best": best}

    def handle(self, message):
        return self._decide(message)
"""
        assert findings_of(source) == []

    def test_non_transport_repro_module_skipped(self):
        source = """
import numpy as np

class Anything:
    def handle(self, message):
        return {"x": np.int64(3)}
"""
        # Inside the package but not a transport module: rule stays out.
        assert (
            analyze_source(
                source,
                path="src/repro/scheduler/policies.py",
                rules=["pipe-safety"],
            )
            == []
        )
        # The transport modules themselves are in scope.
        assert analyze_source(
            source,
            path="src/repro/scheduler/shard.py",
            rules=["pipe-safety"],
        )


class TestProcessLocalCaches:
    """Cached hashes are salted per interpreter: nothing a transport
    module builds may reach one."""

    def test_cached_hash_in_row_getter_flagged(self):
        # The codec's getters are module-level: checked wherever they are.
        source = """
from operator import attrgetter

_placement_row = attrgetter("machine.name", "nodes", "_hash")
"""
        findings = findings_of(source)
        assert [f.rule for f in findings] == ["pipe-safety"]
        assert "_hash" in findings[0].message
        assert "process-local" in findings[0].message

    def test_cached_hash_read_into_a_row_flagged(self):
        source = """
def encode_arrival(request, event_time):
    return (request.request_id, request.profile._hash, event_time)
"""
        findings = findings_of(source)
        assert [f.rule for f in findings] == ["pipe-safety"]
        assert "_hash" in findings[0].message

    def test_instance_dict_in_message_flagged(self):
        # __dict__ carries the caches beside the fields.
        source = """
class Client:
    def push(self, connection, request):
        connection.send({"profile": vars(request.profile)})
        connection.send({"profile": request.profile.__dict__})
        connection.send({"hash": getattr(request.profile, "_hash")})
"""
        findings = findings_of(source)
        assert [f.rule for f in findings] == ["pipe-safety"] * 3
        assert all("process-local" in f.message for f in findings)

    def test_rows_built_from_declared_fields_clean(self):
        # What the codec does: the profile's own row, attribute reads of
        # declared fields — and a cache read that feeds no payload.
        source = """
from operator import attrgetter

profile_row = WorkloadProfile.row
_placement_row = attrgetter("machine.name", "nodes", "vcpus")

def encode_arrival(request, event_time):
    return (request.request_id, profile_row(request.profile), event_time)

class Key:
    def __hash__(self):
        return self._hash
"""
        assert findings_of(source) == []


class TestSuppression:
    def test_line_suppression(self):
        source = """
import numpy as np

class Worker:
    def handle(self, message):
        return {"x": np.int64(3)}  # repro-lint: disable=pipe-safety — fixture
"""
        assert findings_of(source) == []
