"""Framework-level tests: findings, suppressions, scoping, the cache."""

from __future__ import annotations

import json

import pytest

from repro.analysis import (
    Analyzer,
    Finding,
    LintCache,
    RULE_CLASSES,
    analyze_source,
    default_rules,
    rules_named,
)
from repro.analysis.engine import ModuleInfo, _subpackage_of


class TestFinding:
    def test_round_trips_through_dict(self):
        finding = Finding(
            path="a.py", line=3, col=7, rule="pipe-safety", message="m"
        )
        assert Finding.from_dict(finding.to_dict()) == finding

    def test_describe_is_clickable(self):
        finding = Finding(
            path="src/x.py", line=12, col=4, rule="unseeded-rng", message="m"
        )
        assert finding.describe().startswith("src/x.py:12:4: [unseeded-rng]")

    def test_orders_by_location(self):
        early = Finding(path="a.py", line=1, col=0, rule="z", message="m")
        late = Finding(path="a.py", line=9, col=0, rule="a", message="m")
        assert sorted([late, early]) == [early, late]


class TestRegistry:
    def test_default_rules_cover_the_registry(self):
        assert {rule.id for rule in default_rules()} == set(RULE_CLASSES)

    def test_rules_named_selects(self):
        rules = rules_named(["blocking-dispatch", "pipe-safety"])
        assert [rule.id for rule in rules] == ["blocking-dispatch", "pipe-safety"]

    def test_rules_named_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown rule"):
            rules_named(["no-such-rule"])


class TestModuleInfo:
    def test_subpackage_detection(self):
        assert _subpackage_of("src/repro/scheduler/policies.py") == "scheduler"
        assert _subpackage_of("src/repro/cli.py") == ""
        assert _subpackage_of("/tmp/fixture.py") is None

    def test_import_alias_resolution(self):
        module = ModuleInfo(
            "m.py",
            "import numpy as np\nfrom random import Random as R\n",
        )
        import ast

        call = ast.parse("np.random.default_rng()").body[0].value
        assert module.resolve(call.func) == "numpy.random.default_rng"
        call = ast.parse("R()").body[0].value
        assert module.resolve(call.func) == "random.Random"


class TestSuppressions:
    SOURCE = (
        "import random\n"
        "def f():\n"
        "    return random.Random()  "
        "# repro-lint: disable=unseeded-rng — fixture\n"
    )

    def test_line_suppression(self):
        assert analyze_source(self.SOURCE, path="/tmp/fixture.py") == []

    def test_wrong_rule_does_not_suppress(self):
        source = self.SOURCE.replace("unseeded-rng", "pipe-safety")
        findings = analyze_source(source, path="/tmp/fixture.py")
        assert [f.rule for f in findings] == ["unseeded-rng"]

    def test_disable_all(self):
        source = self.SOURCE.replace("disable=unseeded-rng", "disable=all")
        assert analyze_source(source, path="/tmp/fixture.py") == []

    def test_file_suppression(self):
        source = (
            "# repro-lint: disable-file=unseeded-rng — fixture\n"
            "import random\n"
            "def f():\n"
            "    return random.Random()\n"
        )
        assert analyze_source(source, path="/tmp/fixture.py") == []

    def test_comma_separated_rules(self):
        source = (
            "import random, time\n"
            "def f():\n"
            "    return random.Random(), time.time()  "
            "# repro-lint: disable=unseeded-rng, wall-clock — fixture\n"
        )
        assert analyze_source(source, path="/tmp/fixture.py") == []


class TestParseErrors:
    def test_unparsable_module_is_one_finding(self):
        findings = analyze_source("def broken(:\n", path="/tmp/broken.py")
        assert [f.rule for f in findings] == ["parse-error"]


class TestScoping:
    def test_decision_rules_skip_non_decision_subpackages(self):
        source = "import random\nr = random.Random()\n"
        # Inside a non-decision subpackage: the determinism rule stays out.
        assert (
            analyze_source(source, path="src/repro/analysis/fixture.py") == []
        )
        # Inside a decision subpackage or outside the package: it fires.
        assert analyze_source(source, path="src/repro/scheduler/x.py")
        assert analyze_source(source, path="/tmp/fixture.py")


class TestAnalyzePaths:
    def test_walks_sorted_and_skips_pycache(self, tmp_path):
        (tmp_path / "b.py").write_text("import random\nr = random.Random()\n")
        (tmp_path / "a.py").write_text("x = 1\n")
        pycache = tmp_path / "__pycache__"
        pycache.mkdir()
        (pycache / "c.py").write_text("import random\nr = random.Random()\n")
        findings, n_files = Analyzer().analyze_paths([tmp_path])
        assert n_files == 2
        assert [f.rule for f in findings] == ["unseeded-rng"]
        assert findings[0].path.endswith("b.py")

    def test_duplicate_paths_analyzed_once(self, tmp_path):
        target = tmp_path / "a.py"
        target.write_text("import random\nr = random.Random()\n")
        findings, n_files = Analyzer().analyze_paths([target, target, tmp_path])
        assert n_files == 1
        assert len(findings) == 1


class TestCache:
    def test_hit_after_save_and_reload(self, tmp_path):
        source_file = tmp_path / "a.py"
        source_file.write_text("import random\nr = random.Random()\n")
        cache_file = tmp_path / "cache.json"

        analyzer = Analyzer(cache=LintCache(cache_file))
        first = analyzer.analyze_file(source_file)
        analyzer.cache.save()
        assert cache_file.exists()

        reloaded = Analyzer(cache=LintCache(cache_file))
        assert reloaded.analyze_file(source_file) == first

    def test_content_change_invalidates(self, tmp_path):
        source_file = tmp_path / "a.py"
        source_file.write_text("import random\nr = random.Random()\n")
        cache = LintCache(tmp_path / "cache.json")
        analyzer = Analyzer(cache=cache)
        assert len(analyzer.analyze_file(source_file)) == 1
        source_file.write_text("import random\nr = random.Random(7)\n")
        assert analyzer.analyze_file(source_file) == []

    def test_rule_set_change_misses(self, tmp_path):
        source_file = tmp_path / "a.py"
        source_file.write_text("import random\nr = random.Random()\n")
        cache_file = tmp_path / "cache.json"
        full = Analyzer(cache=LintCache(cache_file))
        assert len(full.analyze_file(source_file)) == 1
        full.cache.save()
        narrowed = Analyzer(
            rules_named(["pipe-safety"]), cache=LintCache(cache_file)
        )
        assert narrowed.analyze_file(source_file) == []

    def test_corrupt_cache_file_is_ignored(self, tmp_path):
        cache_file = tmp_path / "cache.json"
        cache_file.write_text("{not json")
        cache = LintCache(cache_file)
        assert len(cache) == 0
        source_file = tmp_path / "a.py"
        source_file.write_text("x = 1\n")
        assert Analyzer(cache=cache).analyze_file(source_file) == []
        # An entry that does not decode (an older or hand-edited cache)
        # is a miss: the file is analysed again and the entry replaced.
        source_file.write_text("import random\nr = random.Random()\n")
        for entry in ([{"path": "a.py"}], ["junk"]):
            analyzer = Analyzer(cache=LintCache(cache_file))
            key = analyzer.cache.key(
                str(source_file), source_file.read_text(), analyzer.signature
            )
            analyzer.cache.put(key, entry)
            findings = analyzer.analyze_file(source_file)
            assert [f.rule for f in findings] == ["unseeded-rng"]
            assert analyzer.cache.get(key) == [f.to_dict() for f in findings]

    def test_cache_file_is_plain_json(self, tmp_path):
        source_file = tmp_path / "a.py"
        source_file.write_text("x = 1\n")
        cache = LintCache(tmp_path / "cache.json")
        Analyzer(cache=cache).analyze_file(source_file)
        cache.save()
        raw = json.loads((tmp_path / "cache.json").read_text())
        assert raw["version"] == 1
        assert isinstance(raw["entries"], dict)
