"""Determinism rules: no unseeded RNG, no wall-clock decisions, no
set-order or ``id()``-order dependence in decision code.

The scheduler's correctness story is bit-for-bit equivalence between
code paths (indexed vs. linear policies, arena vs. per-tree prediction,
sharded vs. monolithic serving).  Those equivalences only hold if every
source of randomness is seeded and every ordering is explicit; one
unseeded ``default_rng()`` or iteration over a ``set`` feeding a
placement loop breaks them silently.  These rules scope themselves to
the decision-making subpackages (``core``, ``scheduler``, ``serving``,
``ml``, ``perfsim``).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set

from repro.analysis.engine import (
    DECISION_PACKAGES,
    Finding,
    ModuleInfo,
    Rule,
)

#: RNG factories that must receive an explicit seed.
_SEEDED_FACTORIES = frozenset(
    {
        "random.Random",
        "numpy.random.default_rng",
        "numpy.random.RandomState",
    }
)

#: Draws from the process-global RNG state: never acceptable in decision
#: code, seeded or not (the state is shared across the whole process).
_GLOBAL_STATE_DRAWS = frozenset(
    {
        "random.random",
        "random.randint",
        "random.randrange",
        "random.choice",
        "random.choices",
        "random.shuffle",
        "random.sample",
        "random.uniform",
        "random.gauss",
        "random.expovariate",
        "random.seed",
        "numpy.random.seed",
        "numpy.random.rand",
        "numpy.random.randn",
        "numpy.random.randint",
        "numpy.random.random",
        "numpy.random.choice",
        "numpy.random.shuffle",
        "numpy.random.permutation",
        "numpy.random.uniform",
        "numpy.random.normal",
    }
)

#: Wall-clock sources; ``time.perf_counter``/``monotonic`` stay legal
#: because they only ever feed *timing stats*, never decisions.
_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.today",
        "datetime.datetime.utcnow",
        "datetime.date.today",
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
    }
)

#: Reducers whose result does not depend on iteration order; a set fed
#: straight into one of these is fine.
_ORDER_INSENSITIVE = frozenset(
    {"sum", "max", "min", "len", "any", "all", "sorted", "set", "frozenset"}
)

#: Set methods that return another set.
_SET_PRODUCING_METHODS = frozenset(
    {"difference", "union", "intersection", "symmetric_difference", "copy"}
)


def _has_explicit_seed(call: ast.Call) -> bool:
    """True when the RNG factory call passes a non-``None`` seed."""

    for arg in call.args:
        if not (isinstance(arg, ast.Constant) and arg.value is None):
            return True
    for keyword in call.keywords:
        if keyword.arg is None:
            return True  # **kwargs: assume the caller plumbs a seed
        if keyword.arg in {"seed", "x", "random_state"} and not (
            isinstance(keyword.value, ast.Constant)
            and keyword.value.value is None
        ):
            return True
    return False


class UnseededRngRule(Rule):
    """Flag RNG construction without an explicit seed and any draw from
    process-global RNG state.

    Motivated by the seeded-stream equivalence gates: the sharded service
    must reproduce the monolithic scheduler decision-for-decision
    (``tests/scheduler/test_service.py``), which only holds when every
    RNG in the pipeline derives from ``ScheduleConfig.seed``.
    """

    id = "unseeded-rng"
    packages = DECISION_PACKAGES

    def check(self, module: ModuleInfo) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = module.resolve(node.func)
            if name is None:
                continue
            if name in _SEEDED_FACTORIES and not _has_explicit_seed(node):
                findings.append(
                    self.finding(
                        module,
                        node,
                        f"{name}() without an explicit seed; decision code "
                        "must derive all randomness from a config seed",
                    )
                )
            elif name in _GLOBAL_STATE_DRAWS:
                findings.append(
                    self.finding(
                        module,
                        node,
                        f"{name}() draws from process-global RNG state; use "
                        "a seeded random.Random/numpy Generator instance",
                    )
                )
        return findings


class WallClockRule(Rule):
    """Flag wall-clock and entropy reads in decision code.

    Simulated time drives the lifecycle engine; wall-clock reads make
    replays diverge between runs.  ``time.perf_counter()`` remains legal
    for timing-only stats (e.g. ``decision_seconds``), which never feed
    back into placement (asserted by the sharded-vs-monolithic
    equivalence in ``tests/scheduler/test_service.py``).
    """

    id = "wall-clock"
    packages = DECISION_PACKAGES

    def check(self, module: ModuleInfo) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = module.resolve(node.func)
            if name in _WALL_CLOCK:
                findings.append(
                    self.finding(
                        module,
                        node,
                        f"{name}() reads wall-clock/entropy state; decision "
                        "code must use simulated time or seeded RNG "
                        "(time.perf_counter is fine for timing stats)",
                    )
                )
        return findings


def _call_name(node: ast.Call, module: ModuleInfo) -> Optional[str]:
    return module.resolve(node.func)


class _SetExprClassifier:
    """Decide whether an expression evaluates to a ``set`` using local,
    single-function dataflow (conservative: a name counts only if every
    assignment to it in the function is a set expression)."""

    def __init__(self, module: ModuleInfo, set_names: Set[str]) -> None:
        self.module = module
        self.set_names = set_names

    def is_set(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.set_names
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            return self.is_set(node.left) or self.is_set(node.right)
        if isinstance(node, ast.Call):
            name = _call_name(node, self.module)
            if name in {"set", "frozenset"}:
                return True
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _SET_PRODUCING_METHODS
                and self.is_set(node.func.value)
            ):
                return True
        return False


def _function_set_names(
    func: ast.AST, module: ModuleInfo
) -> Set[str]:
    """Names assigned exclusively set-valued expressions in ``func``."""

    assigned: Dict[str, bool] = {}
    classifier = _SetExprClassifier(module, set())
    for node in ast.walk(func):
        targets: Iterable[ast.expr] = ()
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            is_set = classifier.is_set(value) if value is not None else False
            if target.id in assigned:
                assigned[target.id] = assigned[target.id] and is_set
            else:
                assigned[target.id] = is_set
        if isinstance(node, (ast.For, ast.AsyncFor)) and isinstance(
            node.target, ast.Name
        ):
            # Loop variables get reassigned arbitrary element values.
            assigned[node.target.id] = False
    return {name for name, is_set in assigned.items() if is_set}


class UnsortedSetIterRule(Rule):
    """Flag ordered iteration over set-valued expressions.

    Candidate generation pulls host ids out of ``FleetIndex`` sets; the
    policies only stay bit-for-bit equivalent to a linear scan because
    every such set is passed through an explicit sort first
    (``tests/scheduler/test_index.py`` replays randomized traces to
    prove it).  Iterating a set into a ``for`` loop, list, or ordered
    comprehension reintroduces hash-order dependence.
    """

    id = "unsorted-set-iter"
    packages = DECISION_PACKAGES

    def check(self, module: ModuleInfo) -> List[Finding]:
        findings: List[Finding] = []
        functions = [
            node
            for node in ast.walk(module.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        scopes = functions or [module.tree]
        for scope in scopes:
            classifier = _SetExprClassifier(
                module, _function_set_names(scope, module)
            )
            findings.extend(self._check_scope(module, scope, classifier))
        return findings

    def _check_scope(
        self,
        module: ModuleInfo,
        scope: ast.AST,
        classifier: _SetExprClassifier,
    ) -> List[Finding]:
        findings: List[Finding] = []

        def message(kind: str) -> str:
            return (
                f"{kind} over a set has hash-dependent order; wrap the set "
                "in sorted(...) before it feeds ordered decision logic"
            )

        for node in ast.walk(scope):
            if node is not scope and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue  # nested functions get their own scope pass
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if classifier.is_set(node.iter):
                    findings.append(
                        self.finding(module, node.iter, message("for-loop"))
                    )
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
                if isinstance(node, ast.GeneratorExp) and self._reduced(
                    node, scope, module
                ):
                    continue
                for generator in node.generators:
                    if classifier.is_set(generator.iter):
                        findings.append(
                            self.finding(
                                module,
                                generator.iter,
                                message("comprehension"),
                            )
                        )
            elif isinstance(node, ast.Call):
                name = _call_name(node, module)
                if name in {"list", "tuple", "enumerate"} and node.args:
                    if classifier.is_set(node.args[0]):
                        findings.append(
                            self.finding(
                                module, node.args[0], message(f"{name}()")
                            )
                        )
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "extend"
                    and node.args
                    and classifier.is_set(node.args[0])
                ):
                    findings.append(
                        self.finding(
                            module, node.args[0], message(".extend()")
                        )
                    )
        return findings

    @staticmethod
    def _reduced(
        genexp: ast.GeneratorExp, scope: ast.AST, module: ModuleInfo
    ) -> bool:
        """True when the generator is the direct argument of an
        order-insensitive reducer like ``sum(... for ...)``."""

        for node in ast.walk(scope):
            if isinstance(node, ast.Call) and genexp in node.args:
                name = _call_name(node, module)
                if name in _ORDER_INSENSITIVE:
                    return True
        return False


class IdOrderingRule(Rule):
    """Flag sorting keyed on ``id()``.

    ``id()`` is a stable *memo key* (the goal-aware policy's lanes in
    ``scheduler/policies.py`` use it that way, legitimately) but an
    unstable *ordering*: addresses vary run to run, so ``sorted(...,
    key=id)`` breaks the replay equivalences in
    ``tests/scheduler/test_service.py``.  Only ordering positions are
    flagged.
    """

    id = "id-ordering"
    packages = DECISION_PACKAGES

    def check(self, module: ModuleInfo) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = module.resolve(node.func)
            is_sorter = name in {"sorted", "min", "max"} or (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "sort"
            )
            if not is_sorter:
                continue
            for keyword in node.keywords:
                if keyword.arg != "key":
                    continue
                if self._uses_id(keyword.value, module):
                    findings.append(
                        self.finding(
                            module,
                            keyword.value,
                            "ordering keyed on id() varies across runs; "
                            "sort on a stable attribute instead",
                        )
                    )
        return findings

    @staticmethod
    def _uses_id(key: ast.expr, module: ModuleInfo) -> bool:
        if isinstance(key, ast.Name) and key.id == "id":
            return True
        if isinstance(key, ast.Lambda):
            for node in ast.walk(key.body):
                if (
                    isinstance(node, ast.Call)
                    and module.resolve(node.func) == "id"
                ):
                    return True
        return False


__all__ = [
    "IdOrderingRule",
    "UnseededRngRule",
    "UnsortedSetIterRule",
    "WallClockRule",
]
