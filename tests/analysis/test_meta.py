"""Meta-tests: the tree itself lints clean, stays fast, and each rule's
canonical violation — injected into the real module it guards —
produces exactly one finding with the right id and location."""

from __future__ import annotations

import ast
import json
import time
from pathlib import Path

import pytest

import repro
from repro.analysis import Analyzer, analyze_source
from repro.cli import main as cli_main

PACKAGE_ROOT = Path(repro.__file__).parent

#: Generous wall-time bound for a cold full-tree run; the analyzer must
#: never become the slow step next to the test tiers (CI additionally
#: caches per-file results, making warm runs near-instant).
FULL_RUN_BUDGET_SECONDS = 30.0


class TestTreeIsClean:
    def test_zero_findings_over_src_repro(self):
        """One timed cold run: the tree lints clean, within the budget."""
        start = time.perf_counter()
        findings, n_files = Analyzer().analyze_paths([PACKAGE_ROOT])
        elapsed = time.perf_counter() - start
        assert n_files > 50  # the walk really covered the tree
        assert findings == [], "\n".join(f.describe() for f in findings)
        assert elapsed < FULL_RUN_BUDGET_SECONDS, (
            f"cold lint run took {elapsed:.1f}s; "
            f"budget is {FULL_RUN_BUDGET_SECONDS:.0f}s"
        )


def imports_of_tests(source: str) -> list:
    """Lines importing the top-level ``tests`` package or a module in it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "tests" for name in names):
            lines.append(node.lineno)
    return lines


class TestOneWayDependency:
    """Tests and benchmarks import the oracles under ``tests/``; the
    package must never import them back."""

    def test_no_module_under_src_repro_imports_tests(self):
        paths = sorted(PACKAGE_ROOT.rglob("*.py"))
        assert len(paths) > 50
        assert [
            (path.name, imports_of_tests(path.read_text(encoding="utf-8")))
            for path in paths
            if imports_of_tests(path.read_text(encoding="utf-8"))
        ] == []

    def test_seeded_violation_is_found(self):
        source = (PACKAGE_ROOT / "scheduler/policies.py").read_text(encoding="utf-8")
        anchor = "from repro.scheduler.index import FleetIndex\n"
        assert anchor in source and imports_of_tests(source) == []
        seeded = source.replace(
            anchor, anchor + "from tests.scheduler.oracle_linear import SearchBlocks\n"
        ) + "\n\ndef _reference():\n    import tests.scheduler.oracle_policy\n"
        line = source[: source.index(anchor)].count("\n") + 2
        assert imports_of_tests(seeded) == [line, seeded.count("\n")]
        # A look-alike package and a relative import are not ``tests``.
        assert imports_of_tests("import testsuite\nfrom .tests import x\n") == []


def inject(relative: str, old: str, new: str, prefix: str = "") -> list:
    """Textually mutate a real module and analyze the result under its
    real path (so package scoping applies exactly as in CI)."""

    path = PACKAGE_ROOT / relative
    source = path.read_text(encoding="utf-8")
    assert old in source, f"injection anchor vanished from {relative}: {old!r}"
    return analyze_source(
        prefix + source.replace(old, new), path=str(path)
    )


class TestCanonicalInjections:
    def test_unseeded_rng_in_policies(self):
        path = PACKAGE_ROOT / "scheduler/policies.py"
        baseline = analyze_source(
            path.read_text(encoding="utf-8"), path=str(path)
        )
        assert baseline == []  # the real module is clean
        source = path.read_text(encoding="utf-8") + (
            "\n\ndef _jitter():\n"
            "    import random\n"
            "    return random.Random().random()\n"
        )
        findings = analyze_source(source, path=str(path))
        assert len(findings) == 1
        assert findings[0].rule == "unseeded-rng"
        assert findings[0].path.endswith("scheduler/policies.py")
        n_lines = source.count("\n")
        assert findings[0].line == n_lines  # the injected return line

    def test_cached_hash_in_a_wire_row(self):
        findings = inject(
            "scheduler/wire.py",
            '"machine.name", "nodes", "vcpus", "l2_share", "l3_groups_per_node"',
            '"machine.name", "nodes", "vcpus", "l2_share", "_hash"',
        )
        assert len(findings) == 1
        assert findings[0].rule == "pipe-safety"
        assert findings[0].path.endswith("scheduler/wire.py")
        assert "_hash" in findings[0].message
        assert "process-local" in findings[0].message

    def test_numpy_scalar_in_shard_message(self):
        findings = inject(
            "scheduler/shard.py",
            '{"stopped": True}',
            '{"stopped": True, "handled": np.int64(self._next_seq)}',
            prefix="import numpy as np\n",
        )
        assert len(findings) == 1
        assert findings[0].rule == "pipe-safety"
        assert findings[0].path.endswith("scheduler/shard.py")
        assert "numpy.int64" in findings[0].message


class TestLintCli:
    def test_clean_tree_exits_zero(self, capsys, tmp_path):
        code = cli_main(
            [
                "lint",
                str(PACKAGE_ROOT),
                "--cache-file",
                str(tmp_path / "cache.json"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "0 findings" in out

    def test_findings_exit_nonzero_with_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nr = random.Random()\n")
        code = cli_main(["lint", str(bad), "--format", "json", "--no-cache"])
        out = capsys.readouterr().out
        assert code == 1
        payload = json.loads(out)
        assert payload["files"] == 1
        assert [f["rule"] for f in payload["findings"]] == ["unseeded-rng"]

    def test_rules_filter(self, capsys, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nr = random.Random()\n")
        code = cli_main(
            ["lint", str(bad), "--rules", "pipe-safety", "--no-cache"]
        )
        capsys.readouterr()
        assert code == 0

    def test_unknown_rule_rejected(self, tmp_path):
        # ``wire-schema`` and ``memo-invalidation`` are retired: the
        # report codecs' round-trip property (tests/scheduler/test_wire.py)
        # and the memo surfaces' differential properties
        # (tests/test_memo_surfaces.py) check them instead.
        for name in ("nope", "wire-schema", "memo-invalidation"):
            with pytest.raises(SystemExit, match="unknown rule"):
                cli_main(["lint", str(tmp_path), "--rules", name, "--no-cache"])

    def test_missing_path_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="no such path"):
            cli_main(["lint", str(tmp_path / "absent"), "--no-cache"])

    def test_list_rules(self, capsys):
        code = cli_main(["lint", "--list-rules"])
        out = capsys.readouterr().out
        assert code == 0
        for rule_id in (
            "unseeded-rng",
            "blocking-dispatch",
            "pipe-safety",
        ):
            assert rule_id in out

    def test_cache_round_trip_keeps_result(self, capsys, tmp_path):
        cache_file = tmp_path / "cache.json"
        for _ in range(2):
            code = cli_main(
                [
                    "lint",
                    str(PACKAGE_ROOT / "analysis"),
                    "--cache-file",
                    str(cache_file),
                ]
            )
            assert code == 0
        assert cache_file.exists()
        capsys.readouterr()
