"""Wire-schema rule: declared fields must survive the dict round trip."""

from __future__ import annotations

from repro.analysis import analyze_source

PATH = "/tmp/fixture.py"


def findings_of(source: str):
    return analyze_source(source, path=PATH, rules=["wire-schema"])


MATCHING = """
from dataclasses import dataclass

@dataclass(frozen=True)
class Summary:
    shard_id: int
    n_hosts: int

    def to_dict(self):
        return {"shard_id": self.shard_id, "n_hosts": self.n_hosts}

    @classmethod
    def from_dict(cls, data):
        return cls(shard_id=data["shard_id"], n_hosts=data["n_hosts"])
"""


RECORD = """
from dataclasses import dataclass

from repro.core.serialize import Record

@dataclass
class Summary(Record):
    shard_id: int
    n_hosts: int
"""


class TestTrueNegatives:
    def test_matching_pair_clean(self):
        assert findings_of(MATCHING) == []

    def test_asdict_with_wildcard_clean(self):
        source = """
from dataclasses import asdict, dataclass

@dataclass
class Config:
    hosts: int
    vcpus: tuple

    def to_dict(self):
        data = asdict(self)
        data["vcpus"] = list(self.vcpus)
        return data

    @classmethod
    def from_dict(cls, data):
        values = dict(data)
        values["vcpus"] = tuple(values["vcpus"])
        return cls(**values)
"""
        assert findings_of(source) == []

    def test_extra_emitted_key_is_legal(self):
        # Reports attach derived summary blocks that from_dict never
        # reads back (FleetReport does this); only *fields* must survive.
        source = MATCHING.replace(
            '"n_hosts": self.n_hosts}',
            '"n_hosts": self.n_hosts, "summary": {"placed": 1}}',
        )
        assert findings_of(source) == []

    def test_conditionally_emitted_field_counts(self):
        source = """
from dataclasses import dataclass

@dataclass
class Report:
    hosts: int
    decisions: list

    def to_dict(self, include_decisions=True):
        payload = {"hosts": self.hosts}
        if include_decisions:
            payload["decisions"] = list(self.decisions)
        return payload

    @classmethod
    def from_dict(cls, data):
        return cls(
            hosts=data["hosts"], decisions=data.get("decisions", [])
        )
"""
        assert findings_of(source) == []

    def test_class_without_to_dict_ignored(self):
        assert findings_of("class Plain:\n    pass\n") == []

    def test_bare_record_clean(self):
        assert findings_of(RECORD) == []

    def test_super_override_clean(self):
        # ServiceStats' shape: every field via super(), two of them
        # dropped only on one branch; from_dict drops a retired key.
        source = RECORD + """
    def to_dict(self):
        data = super().to_dict()
        if self.n_hosts == 0:
            data.pop("n_hosts")
            data.pop("shard_id")
        return data

    @classmethod
    def from_dict(cls, data, machines=None):
        values = dict(data)
        values.pop("retired", None)
        return super().from_dict(values, machines)
"""
        assert findings_of(source) == []

    def test_super_override_moving_a_field_last_clean(self):
        # FleetReport's shape: a field popped, then re-added on a branch.
        source = RECORD + """
    def to_dict(self, include_hosts=True):
        payload = super().to_dict()
        hosts = payload.pop("n_hosts")
        payload["summary"] = {}
        if include_hosts:
            payload["n_hosts"] = hosts
        return payload
"""
        assert findings_of(source) == []


class TestTruePositives:
    def test_missing_from_dict(self):
        source = MATCHING[: MATCHING.index("    @classmethod")]
        findings = findings_of(source)
        assert [f.rule for f in findings] == ["wire-schema"]
        assert "no from_dict" in findings[0].message

    def test_from_dict_never_reads_field(self):
        source = MATCHING.replace(', n_hosts=data["n_hosts"]', "")
        findings = findings_of(source)
        assert len(findings) == 1
        assert "never reads declared field 'n_hosts'" in findings[0].message

    def test_to_dict_omits_field(self):
        source = MATCHING.replace(', "n_hosts": self.n_hosts', "")
        findings = findings_of(source)
        assert any(
            "to_dict omits declared field 'n_hosts'" in f.message
            for f in findings
        )

    def test_wildcard_pop_drops_field(self):
        source = """
from dataclasses import dataclass

@dataclass
class Config:
    hosts: int
    window: int

    def to_dict(self):
        return {"hosts": self.hosts, "window": self.window}

    @classmethod
    def from_dict(cls, data):
        values = dict(data)
        values.pop("window")
        return cls(**values)
"""
        findings = findings_of(source)
        assert [f.rule for f in findings] == ["wire-schema"]
        assert "drops declared field 'window'" in findings[0].message

    def test_from_dict_reads_unemitted_key(self):
        source = MATCHING.replace('data["n_hosts"]', 'data["hosts"]')
        findings = findings_of(source)
        messages = " | ".join(f.message for f in findings)
        assert "never reads declared field 'n_hosts'" in messages
        assert "reads key 'hosts' that to_dict never emits" in messages

    def test_hand_built_record_override_drops_field(self):
        source = RECORD + """
    def to_dict(self):
        return {"shard_id": self.shard_id}
"""
        findings = findings_of(source)
        assert [f.rule for f in findings] == ["wire-schema"]
        assert "to_dict omits declared field 'n_hosts'" in findings[0].message

    def test_unconditional_pop_after_super_drops_field(self):
        source = RECORD + """
    def to_dict(self):
        data = super().to_dict()
        data.pop("n_hosts")
        return data
"""
        findings = findings_of(source)
        assert [f.rule for f in findings] == ["wire-schema"]
        assert "to_dict omits declared field 'n_hosts'" in findings[0].message

    def test_record_from_dict_override_pop_drops_field(self):
        source = RECORD + """
    @classmethod
    def from_dict(cls, data, machines=None):
        values = dict(data)
        values.pop("n_hosts")
        return super().from_dict(values, machines)
"""
        findings = findings_of(source)
        assert [f.rule for f in findings] == ["wire-schema"]
        assert "drops declared field 'n_hosts'" in findings[0].message

    def test_plain_class_key_mismatch(self):
        source = """
class Point:
    def __init__(self, x, y):
        self.x, self.y = x, y

    def to_dict(self):
        return {"x": self.x, "y": self.y}

    @classmethod
    def from_dict(cls, data):
        return cls(data["x"], 0.0)
"""
        findings = findings_of(source)
        assert len(findings) == 1
        assert "never reads emitted key 'y'" in findings[0].message


class TestSuppression:
    def test_file_level_suppression(self):
        source = (
            "# repro-lint: disable-file=wire-schema — fixture\n"
            + MATCHING[: MATCHING.index("    @classmethod")]
        )
        assert findings_of(source) == []
