"""Reachability guard: every definition under ``src/repro`` is named by
code that production runs.

The scan parses ``src/repro``, ``benchmarks/**`` and ``examples/*``.
Module-level code is live, every definition outside ``src/repro`` is
live, and so is the body of every live definition; a ``def`` / ``class``
in ``src/repro`` is live once a live body names it (a fixpoint).  A name
is a ``Name`` id, an ``Attribute`` attr, an import alias, a keyword
argument or an identifier-shaped string constant (so ``__all__`` counts);
docstrings and comments do not.  A dunder is code of the scope that
defines it, not a definition: the interpreter calls ``__init__``,
``__hash__`` or a module's ``__getattr__`` without any code naming it, so
its body is live exactly when its class (or module) is.

A definition that only tests call does not belong in ``src/``: delete it
or move it next to the tests that use it.  ``KEPT`` lists the few that
stay for a consumer outside this tree.  This is a test and not a
``repro lint`` rule because the lint cache stores findings per file,
while this answer for one file depends on every other file.
"""

from __future__ import annotations

import ast
import functools
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

import repro

PACKAGE_ROOT = Path(repro.__file__).parent
REPO_ROOT = PACKAGE_ROOT.parents[1]

#: Definitions no code in the tree names that stay anyway, each with the
#: consumer outside the tests it serves.
KEPT = {
    "choose_placement": "the paper's single-host policy: a library user's placement call",
    "read_sysfs_tree": "real topology input: loads a machine from a sysfs dump",
    "write_sysfs_tree": "real topology input: writes what read_sysfs_tree loads",
    "symmetric_interconnect": "TopologyBuilder's call for a custom uniform-interconnect machine",
    "generate_state": "NumPy's SeedSequence protocol: seeding a PCG64 calls it by name",
}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


@dataclass
class Definition:
    name: str
    path: str
    line: int
    n_lines: int
    refs: set = field(default_factory=set)

    def describe(self) -> str:
        return f"{self.path}:{self.line}: {self.name} ({self.n_lines} lines)"


def _is_docstring(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _collect_refs(node: ast.AST, refs: set) -> None:
    """Add every name ``node`` mentions to ``refs`` (bare string
    statements, docstrings among them, mention nothing)."""
    stack = [] if _is_docstring(node) else [node]
    while stack:
        current = stack.pop()
        if isinstance(current, ast.Name):
            refs.add(current.id)
        elif isinstance(current, ast.Attribute):
            refs.add(current.attr)
        elif isinstance(current, ast.alias):
            refs.add(current.name.split(".")[-1])
            if current.asname:
                refs.add(current.asname)
        elif isinstance(current, ast.keyword) and current.arg:
            refs.add(current.arg)
        elif isinstance(current, ast.Constant) and isinstance(current.value, str):
            if _IDENTIFIER.match(current.value):
                refs.add(current.value)
        stack.extend(
            child for child in ast.iter_child_nodes(current) if not _is_docstring(child)
        )


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _walk_body(body: list, path: str, in_src: bool, live: set, defs: list) -> None:
    """Sort a module or class body into definitions and code.

    Under ``src`` every function and class, and every member of a class,
    becomes a :class:`Definition` (a function's nested functions are part
    of its body); everything else, dunder methods included, adds its
    names to ``live``.
    """
    for statement in body:
        if not (
            in_src
            and isinstance(statement, _DEFINITION)
            and not _is_dunder(statement.name)
        ):
            _collect_refs(statement, live)
            continue
        definition = Definition(
            statement.name,
            path,
            statement.lineno,
            statement.end_lineno - statement.lineno + 1,
        )
        defs.append(definition)
        for decorator in statement.decorator_list:
            _collect_refs(decorator, definition.refs)
        if isinstance(statement, ast.ClassDef):
            for base in [*statement.bases, *statement.keywords]:
                _collect_refs(base, definition.refs)
            _walk_body(statement.body, path, in_src, definition.refs, defs)
        else:
            _collect_refs(statement.args, definition.refs)
            if statement.returns is not None:
                _collect_refs(statement.returns, definition.refs)
            for node in statement.body:
                _collect_refs(node, definition.refs)


def tree_sources(overrides: dict | None = None) -> dict:
    """``{path: (source, in_src)}`` of the scanned tree; ``overrides``
    replaces some files' text (seeded violations)."""
    overrides = overrides or {}
    paths = [(p, True) for p in sorted(PACKAGE_ROOT.rglob("*.py"))]
    paths += [(p, False) for p in sorted((REPO_ROOT / "benchmarks").rglob("*.py"))]
    paths += [(p, False) for p in sorted((REPO_ROOT / "examples").glob("*.py"))]
    sources = {}
    for path, in_src in paths:
        relative = str(path.relative_to(REPO_ROOT))
        text = overrides.get(relative) or path.read_text(encoding="utf-8")
        sources[relative] = (text, in_src)
    return sources


@functools.lru_cache(maxsize=None)
def _scan_file(path: str, source: str, in_src: bool) -> tuple:
    """One file's definitions and the names its live code mentions,
    parsed once per text (a seeded override re-parses only its file)."""
    defs: list = []
    roots: set = set()
    _walk_body(ast.parse(source).body, path, in_src, roots, defs)
    return tuple(defs), frozenset(roots)


def scan(sources: dict) -> tuple:
    """The definitions under ``src`` and the names live code mentions."""
    defs: list = []
    roots: set = set()
    for path, (source, in_src) in sources.items():
        file_defs, file_roots = _scan_file(path, source, in_src)
        defs.extend(file_defs)
        roots |= file_roots
    return defs, roots


def live_names(defs: list, roots) -> set:
    """Every name reached from ``roots`` through live definitions."""
    by_name: dict = {}
    for definition in defs:
        by_name.setdefault(definition.name, []).append(definition)
    live = set(roots)
    pending = list(live)
    while pending:
        for definition in by_name.pop(pending.pop(), ()):
            fresh = definition.refs - live
            live |= fresh
            pending.extend(fresh)
    return live


def unreachable(defs: list, roots: set, kept) -> list:
    live = live_names(defs, roots | set(kept))
    return [d for d in defs if d.name not in live]


def stale_kept(defs: list, roots: set, kept) -> list:
    """``KEPT`` entries that name no definition, or whose definition live
    code reaches without the entry."""
    defined = {d.name for d in defs}
    return [
        name
        for name in kept
        if name not in defined or name in live_names(defs, roots | (set(kept) - {name}))
    ]


def findings(overrides: dict | None = None, kept=KEPT) -> tuple:
    """``(unreachable definitions, stale KEPT entries)`` of the tree."""
    defs, roots = scan(tree_sources(overrides))
    return unreachable(defs, roots, kept), stale_kept(defs, roots, kept)


class TestTreeIsReachable:
    def test_zero_findings(self):
        start = time.perf_counter()
        dead, stale = findings()
        elapsed = time.perf_counter() - start
        assert [d.describe() for d in dead] == []
        assert stale == []
        assert elapsed < 2.0, f"reachability scan took {elapsed:.2f}s"

    def test_scan_covers_the_tree(self):
        sources = tree_sources()
        assert sum(in_src for _, in_src in sources.values()) > 50
        assert "benchmarks/perf/run.py" in sources
        assert "examples/quickstart.py" in sources

    def test_kept_stays_small_and_explained(self):
        assert len(KEPT) <= 15
        assert all(reason.strip() for reason in KEPT.values())


POLICIES = "src/repro/scheduler/policies.py"
ANCHOR = "\nclass GoalAwareFleetPolicy("
EXAMPLE = "examples/quickstart.py"
TWIN = "\ndef _seeded_twin():\n    return 1\n\n"


def _seeded(relative: str, old: str, new: str) -> dict:
    source = (REPO_ROOT / relative).read_text(encoding="utf-8")
    assert old in source, f"seed anchor vanished from {relative}: {old!r}"
    return {relative: source.replace(old, new, 1)}


def _with_twin(caller: str = "") -> dict:
    """``policies.py`` with ``_seeded_twin`` (and ``caller``) injected."""
    return _seeded(POLICIES, ANCHOR, TWIN + caller + ANCHOR)


def _appended(relative: str, code: str) -> dict:
    return {relative: (REPO_ROOT / relative).read_text(encoding="utf-8") + code}


def _dead_names(overrides: dict) -> list:
    return sorted(d.name for d in findings(overrides)[0])


class TestSeededViolations:
    def test_injected_function_is_reported(self):
        dead, _ = findings(_with_twin())
        assert [(d.name, d.path, d.n_lines) for d in dead] == [("_seeded_twin", POLICIES, 2)]

    def test_injected_method_is_reported(self):
        seeded = _seeded(
            POLICIES,
            "\n    def decide_batch(",
            "\n    def seeded_accessor(self):\n        return self\n\n    def decide_batch(",
        )
        assert _dead_names(seeded) == ["seeded_accessor"]

    def test_a_docstring_or_comment_mention_does_not_count(self):
        seeded = _with_twin(
            '\ndef _seeded_caller():\n    """_seeded_twin"""\n    # _seeded_twin()\n\n'
        )
        seeded[POLICIES] += "\n_seeded_caller()\n"
        assert _dead_names(seeded) == ["_seeded_twin"]

    def test_a_dead_caller_does_not_keep_its_callee(self):
        seeded = _with_twin("\ndef _seeded_caller():\n    return _seeded_twin()\n\n")
        assert _dead_names(seeded) == ["_seeded_caller", "_seeded_twin"]

    def test_a_name_an_example_uses_is_not_reported(self):
        seeded = _with_twin()
        seeded.update(_appended(EXAMPLE, "\ndef _use(module):\n    return module._seeded_twin\n"))
        assert _dead_names(seeded) == []

    def test_a_helper_only_a_dunder_calls_is_not_reported(self):
        # No code names __bool__: the interpreter calls it on a truth test.
        defs, roots = scan(tree_sources())
        assert all("__bool__" not in names for names in [roots, *(d.refs for d in defs)])
        seeded = _with_twin(
            "\nclass _SeededBox:\n    def __bool__(self):\n"
            "        return bool(_seeded_twin())\n\n"
        )
        seeded[POLICIES] += "\n_SEEDED = _SeededBox()\n"
        assert _dead_names(seeded) == []

    def test_a_kept_entry_that_is_not_defined_fails(self):
        kept = {**KEPT, "_seeded_deleted": "a consumer that is gone"}
        assert findings(kept=kept) == ([], ["_seeded_deleted"])

    def test_a_kept_entry_live_code_reaches_fails(self):
        seeded = _appended(EXAMPLE, "\ndef _use(policy):\n    return policy.choose_placement\n")
        assert findings(seeded) == ([], ["choose_placement"])
