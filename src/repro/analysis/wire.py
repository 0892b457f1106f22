"""Wire-schema rule: ``to_dict``/``from_dict`` must round-trip every
declared field.

Reports, configs and fault plans travel as ``to_dict`` payloads, most
of them :class:`repro.core.serialize.Record` dataclasses whose pair is
derived from the fields.  A field forgotten by a hand-written pair or a
record's override survives the in-process path and silently zeroes out
across a pipe or in ``--emit-json`` output.  Shard *messages* (rows
laid out by ``dataclasses.fields``, ``repro/scheduler/wire.py``) are the
pipe-safety rule's business, not this one's.

Checks, per class that defines ``to_dict`` (or is a ``Record``):

* a ``from_dict`` must exist (a ``Record`` inherits one that reads
  every field, like ``cls(**values)``);
* for dataclasses, every declared field must appear in the emitted keys
  (``asdict(self)`` and ``super().to_dict()`` count as all fields, less
  keys popped outside any branch) and must be handled by ``from_dict``
  (``cls(**values)`` and ``super().from_dict(values)`` count as all
  fields minus keys the body pops without reading);
* for plain classes, the emitted key set and the handled key set are
  compared directly.

Extra *emitted* keys are legal (reports attach derived summaries);
``from_dict`` reading a key that is neither a field nor ever emitted is
not.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.engine import Finding, ModuleInfo, Rule

_DATACLASS_NAMES = frozenset({"dataclass", "dataclasses.dataclass"})
_RECORD_NAME = "repro.core.serialize.Record"


def _is_dataclass(node: ast.ClassDef, module: ModuleInfo) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if module.resolve(target) in _DATACLASS_NAMES:
            return True
    return False


def _is_record(node: ast.ClassDef, module: ModuleInfo) -> bool:
    return any(module.resolve(base) == _RECORD_NAME for base in node.bases)


def _is_super_call(node: ast.expr, method: str) -> bool:
    """``super().method`` or ``super(Cls, obj).method``."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == method
        and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Name)
        and node.value.func.id == "super"
    )


def _declared_fields(node: ast.ClassDef) -> List[str]:
    fields: List[str] = []
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            if "ClassVar" in ast.unparse(stmt.annotation):
                continue
            fields.append(stmt.target.id)
    return fields


class _KeySet:
    """A set of string keys plus a ``known`` flag; unknown means the
    analysis lost track (dynamic keys) and the check stays silent."""

    def __init__(self, keys: Optional[Set[str]] = None, known: bool = True):
        self.keys: Set[str] = set(keys or ())
        self.known = known

    def merge(self, other: "_KeySet") -> None:
        self.keys |= other.keys
        self.known = self.known and other.known

    @classmethod
    def unknown(cls) -> "_KeySet":
        return cls(known=False)


def _emitted_keys(
    func: ast.FunctionDef,
    module: ModuleInfo,
    fields: List[str],
    is_dataclass: bool,
) -> _KeySet:
    """Keys the ``to_dict`` body can emit, via local dataflow over dict
    literals, ``asdict(self)``/``super().to_dict()``, subscript stores,
    ``update``, and ``pop`` at the body's top level (one under a branch
    or loop may not run)."""

    env: Dict[str, _KeySet] = {}
    result = _KeySet()

    def eval_expr(node: ast.expr) -> _KeySet:
        if isinstance(node, ast.Dict):
            keyset = _KeySet()
            for key, value in zip(node.keys, node.values):
                if key is None:  # **spread
                    if isinstance(value, ast.Name) and value.id in env:
                        keyset.merge(env[value.id])
                    else:
                        keyset.merge(eval_expr(value))
                elif isinstance(key, ast.Constant) and isinstance(
                    key.value, str
                ):
                    keyset.keys.add(key.value)
                else:
                    keyset.known = False
            return keyset
        if isinstance(node, ast.Call):
            name = module.resolve(node.func)
            if name in {"asdict", "dataclasses.asdict"} or _is_super_call(
                node.func, "to_dict"
            ):
                return _KeySet(set(fields), known=is_dataclass)
            if name == "dict":
                if not node.args and not node.keywords:
                    return _KeySet()
                if len(node.args) == 1 and not node.keywords:
                    return eval_expr(node.args[0])
                return _KeySet.unknown()
        if isinstance(node, ast.Name):
            return _KeySet(env[node.id].keys, env[node.id].known) if (
                node.id in env
            ) else _KeySet.unknown()
        if isinstance(node, ast.IfExp):
            keyset = eval_expr(node.body)
            keyset.merge(eval_expr(node.orelse))
            return keyset
        return _KeySet.unknown()

    def apply(node: ast.AST, conditional: bool) -> None:
        if isinstance(node, ast.Assign):
            value = eval_expr(node.value)
            for target in node.targets:
                if isinstance(target, ast.Name):
                    env[target.id] = value
                elif (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in env
                    and isinstance(target.slice, ast.Constant)
                    and isinstance(target.slice.value, str)
                ):
                    env[target.value.id].keys.add(target.slice.value)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if isinstance(node.target, ast.Name):
                env[node.target.id] = eval_expr(node.value)
        elif isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            owner = node.func.value
            if not (isinstance(owner, ast.Name) and owner.id in env):
                return
            keyset = env[owner.id]
            if node.func.attr == "update":
                for arg in node.args:
                    keyset.merge(eval_expr(arg))
                for keyword in node.keywords:
                    if keyword.arg is not None:
                        keyset.keys.add(keyword.arg)
                    else:
                        keyset.known = False
            elif node.func.attr in {"pop", "__delitem__"}:
                if (
                    not conditional
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)
                ):
                    keyset.keys.discard(node.args[0].value)
            elif node.func.attr == "setdefault":
                if (
                    node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)
                ):
                    keyset.keys.add(node.args[0].value)

    # Statement order first, so a key deleted and then re-added under a
    # branch stays emitted; return expressions are evaluated last,
    # against the final environment.
    for stmt in func.body:
        conditional = hasattr(stmt, "body")  # if / for / while / try / with
        for node in ast.walk(stmt):
            apply(node, conditional)
    for node in ast.walk(func):
        if isinstance(node, ast.Return) and node.value is not None:
            result.merge(eval_expr(node.value))
    return result


def _handled_keys(
    func: ast.FunctionDef,
) -> Tuple[Set[str], bool, Set[str]]:
    """Keys ``from_dict`` reads: (handled, wildcard, popped_unread).

    ``wildcard`` is set by ``cls(**values)`` or
    ``super().from_dict(values)`` where ``values`` aliases the payload —
    every remaining key reaches the constructor.
    ``popped_unread`` collects keys removed with a bare ``pop`` whose
    value is discarded: those never reach the object at all.
    """

    args = func.args.args
    skip = 1 if args and args[0].arg in {"cls", "self"} else 0
    if len(args) <= skip:
        return set(), False, set()
    aliases: Set[str] = {args[skip].arg}
    handled: Set[str] = set()
    popped_unread: Set[str] = set()
    wildcard = False

    def is_alias(node: ast.expr) -> bool:
        return isinstance(node, ast.Name) and node.id in aliases

    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            if isinstance(target, ast.Name):
                if (
                    isinstance(value, ast.Call)
                    and not value.keywords
                    and len(value.args) == 1
                    and is_alias(value.args[0])
                    and isinstance(value.func, ast.Name)
                    and value.func.id == "dict"
                ):
                    aliases.add(target.id)
                elif (
                    isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Attribute)
                    and value.func.attr == "copy"
                    and is_alias(value.func.value)
                ):
                    aliases.add(target.id)
                elif is_alias(value):
                    aliases.add(target.id)
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Subscript)
            and is_alias(node.value)
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)
        ):
            handled.add(node.slice.value)
        elif isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Attribute)
                and is_alias(node.func.value)
                and node.func.attr in {"get", "pop"}
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                handled.add(node.args[0].value)
            for keyword in node.keywords:
                if keyword.arg is None and is_alias(keyword.value):
                    wildcard = True
            if (
                _is_super_call(node.func, "from_dict")
                and node.args
                and is_alias(node.args[0])
            ):
                wildcard = True  # Record.from_dict reads every field
    # A bare `values.pop("k")` statement drops the key without reading it
    # anywhere else: under a wildcard construction that key is lost.
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute)
            and node.value.func.attr == "pop"
            and is_alias(node.value.func.value)
            and node.value.args
            and isinstance(node.value.args[0], ast.Constant)
            and isinstance(node.value.args[0].value, str)
        ):
            popped_unread.add(node.value.args[0].value)
    return handled, wildcard, popped_unread


class WireSchemaRule(Rule):
    """Flag wire classes whose ``to_dict``/``from_dict`` drop fields.

    A field that does not survive ``from_dict(to_dict(x))`` diverges
    the moment a report crosses a process boundary.
    """

    id = "wire-schema"
    packages = None  # wire types may live anywhere

    def check(self, module: ModuleInfo) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                findings.extend(self._check_class(module, node))
        return findings

    def _check_class(
        self, module: ModuleInfo, node: ast.ClassDef
    ) -> List[Finding]:
        methods = {
            stmt.name: stmt
            for stmt in node.body
            if isinstance(stmt, ast.FunctionDef)
        }
        to_dict = methods.get("to_dict")
        from_dict = methods.get("from_dict")
        record = _is_record(node, module)
        if to_dict is None and not record:
            return []
        if from_dict is None and not record:
            return [
                self.finding(
                    module,
                    to_dict,
                    f"{node.name} defines to_dict but no from_dict; wire "
                    "types must round-trip (see repro/core/serialize.py)",
                )
            ]
        is_dc = _is_dataclass(node, module)
        fields = _declared_fields(node) if is_dc else []
        # A record's inherited pair emits and reads every field.
        emitted = (
            _KeySet(set(fields), known=is_dc)
            if to_dict is None
            else _emitted_keys(to_dict, module, fields, is_dc)
        )
        handled, wildcard, popped_unread = (
            (set(), True, set())
            if from_dict is None
            else _handled_keys(from_dict)
        )
        findings: List[Finding] = []
        if is_dc:
            if emitted.known:
                for field in fields:
                    if field not in emitted.keys:
                        findings.append(
                            self.finding(
                                module,
                                to_dict,
                                f"{node.name}.to_dict omits declared field "
                                f"{field!r}",
                            )
                        )
            if wildcard:
                for field in sorted(popped_unread):
                    if field in fields:
                        findings.append(
                            self.finding(
                                module,
                                from_dict,
                                f"{node.name}.from_dict drops declared "
                                f"field {field!r} (popped, never read)",
                            )
                        )
            else:
                for field in fields:
                    if field not in handled:
                        findings.append(
                            self.finding(
                                module,
                                from_dict,
                                f"{node.name}.from_dict never reads "
                                f"declared field {field!r}",
                            )
                        )
                if emitted.known:
                    for key in sorted(handled - set(fields) - emitted.keys):
                        findings.append(
                            self.finding(
                                module,
                                from_dict,
                                f"{node.name}.from_dict reads key {key!r} "
                                "that to_dict never emits",
                            )
                        )
        elif emitted.known:
            if not wildcard:
                for key in sorted(emitted.keys - handled):
                    findings.append(
                        self.finding(
                            module,
                            from_dict,
                            f"{node.name}.from_dict never reads emitted "
                            f"key {key!r}",
                        )
                    )
                for key in sorted(handled - emitted.keys):
                    findings.append(
                        self.finding(
                            module,
                            from_dict,
                            f"{node.name}.from_dict reads key {key!r} "
                            "that to_dict never emits",
                        )
                    )
        return findings


__all__ = ["WireSchemaRule"]
