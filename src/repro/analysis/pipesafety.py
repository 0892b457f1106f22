"""Pipe-safety rule: shard transport payloads must be JSON-safe.

The sharded scheduler service speaks one message protocol over two
transports: ``ProcessShardClient`` pickles each message onto a
``multiprocessing.Pipe``, and ``InlineShardClient`` hands the very same
object to an in-process worker without serializing anything.  Neither
would notice a numpy scalar or a dataclass instance in a payload — both
pickle, both survive a function call — but the write-ahead journal's
stored form (``ShardJournal.to_dict``) and the benchmark's tracer write
the same payloads as JSON, and a mutable object shared by reference
across the inline boundary would let one side edit the other's state.
The guarantee that the in-process path cannot cheat used to be paid per
message (a ``json.dumps``/``loads`` pair in the inline client); it now
rests on three checks that cost nothing at serving time: this rule,
the JSON-round-tripping test client under ``tests/scheduler/`` that the
equivalence gates run through, and the inline ≡ process digest gates.

The rule scopes itself to the transport modules (``scheduler/shard.py``,
``scheduler/service.py``, the row codec ``scheduler/wire.py``, ...) and
inspects payload roots only: arguments of ``.send``/``.request``/
``._send`` calls, and return values of ``handle``/``_handle_*``/
``*_message``/``encode_*``/``to_dict`` functions, following local
variable assignments.  Inside a payload expression, calls into the
``numpy`` namespace, wire-class constructors, and ``from_dict`` calls
are flagged; conversion wrappers (``float``/``int``/``str``/``bool``/
``len``/``round``, ``.to_dict()``/``.tolist()``/``.item()``) and the
row codec's ``encode_*`` functions (``encode_summary(self.summary())``
— their own return values are payload roots, scanned where they are
defined) terminate the descent as known-safe.

Value objects on the arrival path cache their identity (a profile's and
a placement's hash, beside their fields): those caches cover strings,
whose hashes are salted per interpreter, so they are *process-local* —
dropped when the object is pickled, and never part of a row.  The rule
therefore also flags any way a transport module could reach one
(:data:`PROCESS_LOCAL_ATTRS`): reading it inside a payload, an
``attrgetter``/``getattr`` naming it anywhere in the module (the row
codec builds its getters at module level), and ``vars()`` /
``__dict__`` of anything in a payload, which carry it along.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Set

from repro.analysis.engine import Finding, ModuleInfo, Rule

#: Module path suffixes that speak the shard wire protocol.  The
#: supervision layer journals and replays the same wire messages
#: (supervisor.py) and the fault layer forwards them (faults.py), so
#: both are payload-bearing modules; the row codec (wire.py) builds what
#: all of them carry.
TRANSPORT_SUFFIXES = (
    "scheduler/shard.py",
    "scheduler/service.py",
    "scheduler/wire.py",
    "scheduler/supervisor.py",
    "scheduler/faults.py",
    "scheduler/capacity.py",
    "scheduler/admission.py",
)

#: Payload-bearing call attributes (the split protocol fires payloads
#: through ``send``/``request_many`` as well as the blocking ``request``).
_SEND_ATTRS = frozenset({"send", "request", "request_many", "_send"})

#: Calls that produce JSON-safe values; descent stops at them.
_SAFE_CALLS = frozenset(
    {"float", "int", "str", "bool", "len", "round", "abs", "sorted", "list",
     "tuple", "dict", "min", "max", "sum"}
)
_SAFE_METHODS = frozenset({"to_dict", "tolist", "item", "as_dict"})

#: Classes whose instances are wire *objects* — sending one raw (instead
#: of its encoded row or ``to_dict()``) breaks the JSON transport.
WIRE_CLASSES = frozenset(
    {
        "ShardSummary",
        "GradedDecision",
        "FleetReport",
        "PlacementRequest",
        "Placement",
        "ChurnStats",
        "CacheInfo",
        "FaultAction",
        "FaultPlan",
        "JournalEntry",
        "ServiceStats",
        "CapacityVector",
        "AdmissionDecision",
        "AdmissionStats",
    }
)


#: Attributes that hold (or, for ``__dict__``, carry) a process-local
#: identity cache: ``WorkloadProfile._hash``, ``Placement._hash``,
#: ``Fingerprint._hash``.  A cached hash is only valid in the interpreter
#: that computed it.
PROCESS_LOCAL_ATTRS = frozenset({"_hash", "__dict__"})

#: Calls that read attributes by name: their string arguments are checked
#: against :data:`PROCESS_LOCAL_ATTRS` wherever they appear.
_GETTER_CALLS = frozenset({"attrgetter", "getattr"})


def _is_transport_module(module: ModuleInfo) -> bool:
    if module.subpackage is None:
        return True  # standalone fixtures opt in by construction
    normalized = module.path.replace("\\", "/")
    return any(normalized.endswith(suffix) for suffix in TRANSPORT_SUFFIXES)


def _payload_function(name: str) -> bool:
    return (
        name == "handle"
        or name.startswith("_handle")
        or name.endswith("_message")
        or name.startswith("encode_")
        or name == "to_dict"
    )


class PipeSafetyRule(Rule):
    """Flag non-JSON-safe values in shard transport payloads.

    Motivated by the transport-equivalence gates: a numpy scalar rides
    a ``multiprocessing.Pipe`` (and an in-process hand-off) unnoticed
    and fails the first time the payload is stored as JSON — this rule
    catches it before either transport runs, and
    ``tests/scheduler/test_json_transport.py`` catches what static
    inspection cannot see.
    """

    id = "pipe-safety"
    packages = None  # scoped by module suffix instead

    def applies_to(self, module: ModuleInfo) -> bool:
        return _is_transport_module(module)

    def check(self, module: ModuleInfo) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                findings.extend(self._check_function(module, node))
            elif isinstance(node, ast.Call):
                findings.extend(self._check_getter(module, node))
        return findings

    def _check_getter(
        self, module: ModuleInfo, call: ast.Call
    ) -> List[Finding]:
        """``attrgetter("..._hash")`` / ``getattr(x, "_hash")`` anywhere
        in a transport module: a row getter that reads an identity cache
        puts a salted hash on the wire."""
        name = module.resolve(call.func)
        if name is None or name.split(".")[-1] not in _GETTER_CALLS:
            return []
        return [
            self._process_local(module, arg, arg.value.split(".")[-1])
            for arg in call.args
            if isinstance(arg, ast.Constant)
            and isinstance(arg.value, str)
            and arg.value.split(".")[-1] in PROCESS_LOCAL_ATTRS
        ]

    def _process_local(
        self, module: ModuleInfo, node: ast.AST, attr: str
    ) -> Finding:
        return self.finding(
            module,
            node,
            f"{attr} is a process-local identity cache (string hashes "
            "are salted per interpreter); a wire row carries declared "
            "fields only",
        )

    def _check_function(
        self, module: ModuleInfo, func: ast.FunctionDef
    ) -> List[Finding]:
        roots: List[ast.expr] = []
        payload_vars: Set[str] = set()

        # Arguments of send-like calls are payload roots.
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _SEND_ATTRS
            ):
                candidates: Iterable[ast.expr] = list(node.args) + [
                    kw.value for kw in node.keywords
                ]
                for arg in candidates:
                    if isinstance(arg, ast.Name):
                        payload_vars.add(arg.id)
                    else:
                        roots.append(arg)

        # Return values of payload-shaped functions are payload roots.
        if _payload_function(func.name):
            for node in ast.walk(func):
                if isinstance(node, ast.Return) and node.value is not None:
                    if isinstance(node.value, ast.Name):
                        payload_vars.add(node.value.id)
                    else:
                        roots.append(node.value)

        # Follow local assignments into payload variables (including
        # subscript stores: `response["summary"] = ...`).
        if payload_vars:
            for node in ast.walk(func):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        if (
                            isinstance(target, ast.Name)
                            and target.id in payload_vars
                        ):
                            roots.append(node.value)
                        elif (
                            isinstance(target, ast.Subscript)
                            and isinstance(target.value, ast.Name)
                            and target.value.id in payload_vars
                        ):
                            roots.append(node.value)
                elif (
                    isinstance(node, ast.AnnAssign)
                    and node.value is not None
                    and isinstance(node.target, ast.Name)
                    and node.target.id in payload_vars
                ):
                    roots.append(node.value)

        findings: List[Finding] = []
        for root in roots:
            findings.extend(self._scan_payload(module, root))
        return findings

    def _scan_payload(
        self, module: ModuleInfo, node: ast.expr
    ) -> List[Finding]:
        findings: List[Finding] = []
        self._scan(module, node, findings)
        return findings

    def _scan(
        self, module: ModuleInfo, node: ast.AST, findings: List[Finding]
    ) -> None:
        if isinstance(node, ast.Call):
            name = module.resolve(node.func)
            if name is not None and (
                name.startswith("numpy.") or name == "numpy"
            ):
                findings.append(
                    self.finding(
                        module,
                        node,
                        f"{name}() in a pipe payload is not JSON-safe; "
                        "convert with float()/int()/.tolist() first",
                    )
                )
                return
            if name is not None and name.split(".")[-1] == "from_dict":
                findings.append(
                    self.finding(
                        module,
                        node,
                        "from_dict() builds a wire object inside a pipe "
                        "payload; send the dict form instead",
                    )
                )
                return
            if name in WIRE_CLASSES or (
                name is not None and name.split(".")[-1] in WIRE_CLASSES
            ):
                findings.append(
                    self.finding(
                        module,
                        node,
                        f"{name.split('.')[-1]} instance in a pipe payload "
                        "is not JSON-safe; send its encoded row or "
                        "to_dict() output",
                    )
                )
                return
            if name == "vars":
                findings.append(self._process_local(module, node, "__dict__"))
                return
            if name in _SAFE_CALLS or (
                name is not None and name.split(".")[-1].startswith("encode_")
            ):
                return  # conversion wrapper / row encoder: JSON-safe result
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _SAFE_METHODS
            ):
                return
            # Unknown call: scan its arguments but trust its result.
            for child in list(node.args) + [kw.value for kw in node.keywords]:
                self._scan(module, child, findings)
            return
        if isinstance(node, ast.Attribute):
            if node.attr in PROCESS_LOCAL_ATTRS:
                findings.append(self._process_local(module, node, node.attr))
                return
            name = module.resolve(node)
            if name is not None and name.startswith("numpy."):
                findings.append(
                    self.finding(
                        module,
                        node,
                        f"{name} in a pipe payload is not JSON-safe",
                    )
                )
                return
            return  # plain attribute reads (self.shard_id, ...) are opaque
        for child in ast.iter_child_nodes(node):
            self._scan(module, child, findings)
        return


#: Functions in ``scheduler/service.py`` allowed to issue a blocking
#: ``client.request(...)`` — the supervised send helpers (one round trip
#: each, or the sequential A/B baseline driven through them).  Dispatch
#: loops everywhere else must fire with ``send()`` and gather.
SANCTIONED_DISPATCH = frozenset(
    {"_send", "_send_supervised", "_resolve_supervised", "_tracked_request"}
)


class BlockingDispatchRule(Rule):
    """Flag blocking ``client.request(...)`` calls inside service loops.

    Overlapped dispatch exists precisely because a sequential
    ``for shard in ...: client.request(...)`` loop serializes the worker
    processes; after the split-protocol refactor the only sanctioned
    blocking call sites are the supervised send helpers
    (:data:`SANCTIONED_DISPATCH`).  A ``.request()`` reappearing inside a
    loop in ``scheduler/service.py`` is a perf regression waiting to
    land — fire the messages with ``send()`` and gather instead.
    """

    id = "blocking-dispatch"
    packages = None  # scoped by module suffix instead

    def applies_to(self, module: ModuleInfo) -> bool:
        if module.subpackage is None:
            return True  # standalone fixtures opt in by construction
        normalized = module.path.replace("\\", "/")
        return normalized.endswith("scheduler/service.py")

    def check(self, module: ModuleInfo) -> List[Finding]:
        findings: List[Finding] = []
        seen: Set[tuple] = set()
        for func in ast.walk(module.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if func.name in SANCTIONED_DISPATCH:
                continue
            for loop in ast.walk(func):
                if not isinstance(loop, (ast.For, ast.AsyncFor, ast.While)):
                    continue
                for node in ast.walk(loop):
                    if not (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "request"
                    ):
                        continue
                    key = (node.lineno, node.col_offset)
                    if key in seen:
                        continue  # nested loops / functions walk twice
                    seen.add(key)
                    findings.append(
                        self.finding(
                            module,
                            node,
                            "blocking client.request() inside a dispatch "
                            "loop serializes the shards; fire with send() "
                            "and gather replies (only the supervised send "
                            "helpers may call request() directly)",
                        )
                    )
        return findings


__all__ = [
    "BlockingDispatchRule",
    "PROCESS_LOCAL_ATTRS",
    "PipeSafetyRule",
    "SANCTIONED_DISPATCH",
    "TRANSPORT_SUFFIXES",
    "WIRE_CLASSES",
]
