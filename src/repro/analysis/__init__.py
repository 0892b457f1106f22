"""Invariant-aware static analysis for the repro tree (``repro lint``).

Two rule families guard invariants that a property test cannot draw:

* **determinism** (``unseeded-rng``, ``wall-clock``,
  ``unsorted-set-iter``, ``id-ordering``) — every RNG seeded, no
  wall-clock decisions, no hash-order or address-order dependence in
  the decision-making subpackages;
* **pipe-safety** (``pipe-safety``, ``blocking-dispatch``) — shard
  transport payloads stay JSON-safe, and the service sends every
  message through its one send/gather dispatch, never a blocking
  ``client.request()`` call.

Memos are checked by what they answer, not by what their code mentions:
``tests/test_memo_surfaces.py`` compares every memoized surface with a
cold twin after each drawn mutation.

Suppress a finding inline with ``# repro-lint: disable=<rule> — reason``
or a whole file with ``# repro-lint: disable-file=<rule>``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Type

from repro.analysis.cache import DEFAULT_CACHE_NAME, LintCache
from repro.analysis.determinism import (
    IdOrderingRule,
    UnseededRngRule,
    UnsortedSetIterRule,
    WallClockRule,
)
from repro.analysis.engine import (
    ANALYZER_VERSION,
    Analyzer,
    DECISION_PACKAGES,
    Finding,
    ModuleInfo,
    Rule,
)
from repro.analysis.pipesafety import BlockingDispatchRule, PipeSafetyRule

#: Every registered rule class, keyed by rule id.  ``default_rules()``
#: instantiates all of them; ``--rules`` filters by these ids.
RULE_CLASSES: Dict[str, Type[Rule]] = {
    rule_class.id: rule_class
    for rule_class in (
        UnseededRngRule,
        WallClockRule,
        UnsortedSetIterRule,
        IdOrderingRule,
        PipeSafetyRule,
        BlockingDispatchRule,
    )
}


def default_rules() -> List[Rule]:
    """One instance of every registered rule, in registration order."""

    return [rule_class() for rule_class in RULE_CLASSES.values()]


def rules_named(names: Iterable[str]) -> List[Rule]:
    """Instantiate the rules with the given ids; unknown ids raise."""

    rules: List[Rule] = []
    for name in names:
        try:
            rules.append(RULE_CLASSES[name]())
        except KeyError:
            known = ", ".join(sorted(RULE_CLASSES))
            raise ValueError(f"unknown rule {name!r}; known rules: {known}")
    return rules


def analyze_source(
    source: str,
    path: str = "<string>",
    rules: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Convenience wrapper: analyze one source string."""

    selected = rules_named(rules) if rules is not None else default_rules()
    return Analyzer(selected).analyze_source(source, path)


__all__ = [
    "ANALYZER_VERSION",
    "Analyzer",
    "DECISION_PACKAGES",
    "DEFAULT_CACHE_NAME",
    "Finding",
    "LintCache",
    "ModuleInfo",
    "RULE_CLASSES",
    "Rule",
    "analyze_source",
    "default_rules",
    "rules_named",
]
