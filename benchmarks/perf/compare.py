"""Compare two saved benchmark reports: ``compare.py A.json B.json``.

A is the parent, B the change (or the same commit again, for an A/A check);
both come from ``run.py --out``.  For every workload and end-to-end metric it
prints both medians, how much worse B reads, the bound from BENCHMARK.json,
and a verdict:

* ``regressed``   B's median is worse than A's by more than the bound;
* ``unresolved``  the repeats of either side spread wider than the bound, so
  the pair cannot show "no regression" — unless every repeat of B reads
  better than every repeat of A;
* ``ok``          otherwise.

Per-layer values follow without verdicts (they have no bounds); the counts
among them are functions of the seed, so any that differ are marked.  Exit
status is 1 when anything regressed or the two sides made different
decisions.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[2]
#: Units of per-layer metrics that must repeat exactly for one seed ...
EXACT_UNITS = ("count", "B")
#: ... except two that depend on timing: over a pipe, whether the front end
#: has to wait for a reply (one ``shard.wait`` span) depends on which side was
#: faster, and replies carry ``decision_seconds`` floats of varying length.
TIMING_DEPENDENT = ("trace.spans", "shard.wire_bytes_per_request")


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` reads than ``a``, as a share of ``a``."""
    if a == 0:
        return 0.0
    return (b - a) / abs(a) if better == "lower" else (a - b) / abs(a)


def spread(cell: Dict) -> float:
    return (cell["max"] - cell["min"]) / abs(cell["median"]) if cell["median"] else 0.0


def verdict(a: Dict, b: Dict, metric: Dict) -> str:
    better, bound = metric["better"], metric["bound"]
    if worse_by(a["median"], b["median"], better) > bound:
        return "regressed"
    if max(spread(a), spread(b)) > bound:
        if better == "lower":
            all_better = max(b["values"]) < min(a["values"])
        else:
            all_better = min(b["values"]) > max(a["values"])
        if not all_better:
            return "unresolved"
    return "ok"


def compare(report_a: Dict, report_b: Dict, spec: Dict) -> List[str]:
    """Print the comparison; returns the findings that fail it."""
    bad: List[str] = []
    for name in report_a["workloads"]:
        a, b = report_a["workloads"][name], report_b["workloads"].get(name)
        if b is None:
            print(f"== {name}: only in A")
            continue
        if (a["seed"], a["requests"]) != (b["seed"], b["requests"]):
            print(f"== {name}: different seed or size, not comparable")
            bad.append(f"{name}: not comparable")
            continue
        same = a["digest"] == b["digest"]
        print(f"== {name}: decisions {'identical' if same else 'DIFFER'}")
        if not same:
            bad.append(f"{name}: decisions differ")
        for metric in spec["end_to_end"]:
            cell_a, cell_b = a["end_to_end"][metric["name"]], b["end_to_end"][metric["name"]]
            result = verdict(cell_a, cell_b, metric)
            change = worse_by(cell_a["median"], cell_b["median"], metric["better"])
            print(
                f"  {metric['name']:<22} {cell_a['median']:>12.4f} -> {cell_b['median']:>12.4f} "
                f"{metric['unit']:<4} worse by {100 * change:+7.2f}% "
                f"(bound {100 * metric['bound']:.1f}%)  {result}"
            )
            if result == "regressed":
                bad.append(f"{name}: {metric['name']} regressed")
        if not (a["per_layer"] and b["per_layer"]):
            continue
        for metric in spec["per_layer"]:
            value_a, value_b = a["per_layer"][metric["name"]], b["per_layer"][metric["name"]]
            if value_a == value_b == 0:
                continue
            exact = metric["unit"] in EXACT_UNITS and metric["name"] not in TIMING_DEPENDENT
            note = "  DIFFERS" if exact and value_a != value_b else ""
            change = 100 * (value_b - value_a) / abs(value_a) if value_a else float("inf")
            print(
                f"  {metric['name']:<38} {value_a:>14.4f} -> {value_b:>14.4f} "
                f"{metric['unit']:<5} {change:+7.2f}%{note}"
            )
    return bad


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.splitlines()[0], file=sys.stderr)
        return 2
    report_a, report_b = (json.loads(Path(path).read_text()) for path in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bad = compare(report_a, report_b, spec)
    for finding in bad:
        print(f"FAILED: {finding}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
