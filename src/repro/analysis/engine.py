"""Shared core of the invariant lints: findings, modules, the analyzer.

The analysis subsystem is a small AST-based checker framework.  Each rule
is a :class:`Rule` subclass that inspects one parsed module
(:class:`ModuleInfo`) and returns :class:`Finding` objects.  The
:class:`Analyzer` owns a rule set, applies package scoping, filters
suppressed findings, and (optionally) consults a content-hash cache so a
clean CI run over the whole tree stays fast.

Suppression syntax (mirrors the familiar ``# noqa`` shape)::

    risky_call()  # repro-lint: disable=unseeded-rng — reason why

    # repro-lint: disable-file=pipe-safety — whole-module opt-out

``disable=all`` suppresses every rule on that line; rule lists may be
comma-separated.  Everything after the rule list (a dash and a reason)
is ignored by the parser but required by convention: a suppression
without a reason will not survive review.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

#: Bump when rule semantics change so stale cache entries are ignored.
ANALYZER_VERSION = 1

_SUPPRESSION = re.compile(
    r"#\s*repro-lint:\s*(disable(?:-file)?)\s*=\s*([A-Za-z0-9_,\- ]+)"
)

#: Subpackages of ``repro`` where placement decisions are made; the
#: determinism rules scope themselves to these (plus standalone files,
#: so fixtures outside the package are always checked).
DECISION_PACKAGES = frozenset({"core", "scheduler", "serving", "ml", "perfsim"})


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def describe(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Finding":
        return cls(
            path=str(data["path"]),
            line=int(data["line"]),  # type: ignore[arg-type]
            col=int(data["col"]),  # type: ignore[arg-type]
            rule=str(data["rule"]),
            message=str(data["message"]),
        )


def _parse_suppressions(
    source: str,
) -> Tuple[Set[str], Dict[int, Set[str]]]:
    """Extract file-level and per-line suppression directives."""

    file_rules: Set[str] = set()
    line_rules: Dict[int, Set[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        if "repro-lint" not in text:
            continue
        for match in _SUPPRESSION.finditer(text):
            kind, raw = match.group(1), match.group(2)
            rules = {token.strip() for token in raw.split(",")}
            rules.discard("")
            if not rules:
                continue
            if kind == "disable-file":
                file_rules |= rules
            else:
                line_rules.setdefault(lineno, set()).update(rules)
    return file_rules, line_rules


def _subpackage_of(path: str) -> Optional[str]:
    """``repro`` subpackage a file belongs to, '' for top-level modules,
    ``None`` for files outside the package (e.g. test fixtures)."""

    parts = Path(path).parts
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            remainder = parts[index + 1 :]
            if len(remainder) >= 2:
                return remainder[0]
            return ""
    return None


def _import_map(tree: ast.Module) -> Dict[str, str]:
    """Map local names to canonical dotted names (``np`` -> ``numpy``,
    ``default_rng`` -> ``numpy.random.default_rng``)."""

    mapping: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                mapping[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                mapping[local] = f"{node.module}.{alias.name}"
    return mapping


def dotted_name(node: ast.AST, imports: Mapping[str, str]) -> Optional[str]:
    """Canonical dotted name of an expression, resolving import aliases.

    ``np.random.default_rng`` with ``import numpy as np`` resolves to
    ``numpy.random.default_rng``; plain names resolve through ``from``
    imports.  Returns ``None`` for anything that is not a simple
    attribute/name chain.
    """

    segments: List[str] = []
    while isinstance(node, ast.Attribute):
        segments.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    segments.append(node.id)
    segments.reverse()
    root = segments[0]
    resolved = imports.get(root)
    if resolved is not None:
        segments[0:1] = resolved.split(".")
    return ".".join(segments)


class ModuleInfo:
    """A parsed module plus everything rules need: the AST, the import
    alias map, the owning ``repro`` subpackage, and suppressions."""

    def __init__(self, path: str, source: str) -> None:
        self.path = path
        self.source = source
        self.tree = ast.parse(source, filename=path)
        self.subpackage = _subpackage_of(path)
        self.imports = _import_map(self.tree)
        self._file_suppressions, self._line_suppressions = _parse_suppressions(
            source
        )

    def resolve(self, node: ast.AST) -> Optional[str]:
        return dotted_name(node, self.imports)

    def suppressed(self, finding: Finding) -> bool:
        for rules in (
            self._file_suppressions,
            self._line_suppressions.get(finding.line, frozenset()),
        ):
            if finding.rule in rules or "all" in rules:
                return True
        return False


class Rule:
    """Base class for one lint rule.

    Subclasses set ``id`` (the name used in findings, ``--rules``
    filters, and suppression comments), optionally ``packages`` (a
    frozenset of ``repro`` subpackages the rule scopes itself to), and
    implement :meth:`check`.
    """

    id: str = ""
    #: ``None`` means the rule applies to every module it sees.
    packages: Optional[frozenset] = None

    def applies_to(self, module: ModuleInfo) -> bool:
        if self.packages is None:
            return True
        if module.subpackage is None:
            return True  # standalone files (fixtures) are always checked
        return module.subpackage in self.packages

    def check(self, module: ModuleInfo) -> List[Finding]:
        raise NotImplementedError

    def finding(
        self, module: ModuleInfo, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.id,
            message=message,
        )


class Analyzer:
    """Run a rule set over sources, files, or directory trees."""

    def __init__(
        self,
        rules: Optional[Sequence[Rule]] = None,
        cache: Optional["LintCache"] = None,
    ) -> None:
        if rules is None:
            from repro.analysis import default_rules

            rules = default_rules()
        self.rules: List[Rule] = list(rules)
        self.cache = cache

    @property
    def signature(self) -> str:
        """Cache key component describing the analyzer + active rule set."""

        rules = ",".join(sorted(rule.id for rule in self.rules))
        return f"v{ANALYZER_VERSION}:{rules}"

    def analyze_source(self, source: str, path: str = "<string>") -> List[Finding]:
        try:
            module = ModuleInfo(path, source)
        except SyntaxError as error:
            return [
                Finding(
                    path=path,
                    line=error.lineno or 1,
                    col=(error.offset or 1) - 1,
                    rule="parse-error",
                    message=f"could not parse module: {error.msg}",
                )
            ]
        findings: List[Finding] = []
        for rule in self.rules:
            if rule.applies_to(module):
                findings.extend(rule.check(module))
        return sorted(f for f in findings if not module.suppressed(f))

    def analyze_file(self, path: Path) -> List[Finding]:
        source = path.read_text(encoding="utf-8")
        if self.cache is not None:
            key = self.cache.key(str(path), source, self.signature)
            cached = self.cache.get(key)
            if cached is not None:
                try:
                    return [Finding.from_dict(entry) for entry in cached]
                except (KeyError, TypeError, ValueError):
                    pass  # an entry that does not decode is a miss
        findings = self.analyze_source(source, str(path))
        if self.cache is not None:
            self.cache.put(key, [f.to_dict() for f in findings])
        return findings

    def analyze_paths(
        self, paths: Iterable[Path]
    ) -> Tuple[List[Finding], int]:
        """Analyze files and directory trees; returns (findings, n_files).

        Directory trees are walked in sorted order so output is stable
        across filesystems — the determinism discipline the suite
        enforces applies to the suite itself.
        """

        files: List[Path] = []
        seen: Set[Path] = set()
        for path in paths:
            if path.is_dir():
                candidates = sorted(path.rglob("*.py"))
            else:
                candidates = [path]
            for candidate in candidates:
                if "__pycache__" in candidate.parts:
                    continue
                resolved = candidate.resolve()
                if resolved in seen:
                    continue
                seen.add(resolved)
                files.append(candidate)
        findings: List[Finding] = []
        for file_path in files:
            findings.extend(self.analyze_file(file_path))
        return sorted(findings), len(files)


from repro.analysis.cache import LintCache  # noqa: E402  (cycle-free re-export)

__all__ = [
    "ANALYZER_VERSION",
    "Analyzer",
    "DECISION_PACKAGES",
    "Finding",
    "LintCache",
    "ModuleInfo",
    "Rule",
    "dotted_name",
]
