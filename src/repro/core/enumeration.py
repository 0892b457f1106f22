"""Important-placement enumeration (Section 4, Algorithms 1-3).

The placement space is astronomically large (choosing 16 of 64 cores allows
~10^14 assignments), but almost all of it is redundant: what matters is how
much of each shared resource a placement uses, not which physical instances.
The enumeration reduces the space to the couple dozen *important placements*
that a model must distinguish:

1. **Algorithm 1** (:func:`generate_scores`): per counting concern, the
   scores that are *balanced* (vCPUs divide evenly) and *feasible* (each
   resource instance can hold its share).
2. **Algorithm 2** (:func:`gen_packings`): all ways to partition the
   machine's nodes into blocks whose sizes are valid node scores.  Packings
   matter because the scheduler may later need to place further containers
   on the remaining nodes, so the enumeration must retain the placements
   those packings use — even when they are not the best for a single
   container (the paper's {0,1,6,7} example).  The pipeline streams the
   partitions from a generator (:func:`_partitions`) and dedups them as
   they arrive, so of the ~1 500 partitions of an 8-node machine only the
   couple dozen distinct packings are ever built or held.
3. **Algorithm 3** (the on-the-fly dedup, :func:`pareto_filter_packings`
   and the variant expansion in :func:`enumerate_important_placements`):
   drop duplicate packings, drop packings that are Pareto-dominated on the
   interconnect score (the one concern that neither affects cost nor can
   invert), then expand every surviving block with every feasible L2
   (and, on split-L3 machines, L3) score and dedup by score vector.

Nothing here forms a reference cycle, so what an enumeration throws away
is freed when it is dropped, not at the next full collection; a service
that forks its shard workers right after set-up would otherwise copy
that garbage into every child.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Sequence,
    Tuple,
)

from repro.core.concerns import ConcernSet, concerns_for
from repro.core.placements import Placement
from repro.topology.machine import MachineTopology

#: Scores a node block; bandwidth concerns provide this, symmetric machines
#: use a constant.
BlockScorer = Callable[[FrozenSet[int]], float]


def generate_scores(count: int, capacity: int, vcpus: int) -> List[int]:
    """Algorithm 1 for one counting concern.

    Returns every score ``i`` (number of resource instances used) with
    ``vcpus mod i == 0`` (balance) and ``vcpus / i <= capacity``
    (feasibility).
    """
    if count < 1 or capacity < 1:
        raise ValueError("count and capacity must be positive")
    if vcpus < 1:
        raise ValueError("vcpus must be >= 1")
    return [
        i
        for i in range(1, count + 1)
        if vcpus % i == 0 and vcpus // i <= capacity
    ]


@dataclass(frozen=True)
class Packing:
    """A partition of the machine's nodes into placement blocks."""

    blocks: Tuple[FrozenSet[int], ...]

    def __post_init__(self) -> None:
        seen: set = set()
        for block in self.blocks:
            if not block:
                raise ValueError("packing blocks must be non-empty")
            if seen & block:
                raise ValueError("packing blocks must be disjoint")
            seen |= block
        # Canonical order: blocks sorted by their smallest node.
        ordered = tuple(sorted(self.blocks, key=lambda b: sorted(b)))
        object.__setattr__(self, "blocks", ordered)

    @property
    def sizes(self) -> Tuple[int, ...]:
        """Sorted block sizes — the packing's node-score multiset."""
        return tuple(sorted(len(block) for block in self.blocks))

    def ic_scores(self, scorer: BlockScorer) -> Tuple[float, ...]:
        """Sorted interconnect scores of the blocks."""
        return tuple(sorted(scorer(block) for block in self.blocks))

    def __len__(self) -> int:
        return len(self.blocks)


def _partition_inputs(
    block_sizes: Iterable[int], nodes: Iterable[int]
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Algorithm 2's inputs, checked: sorted distinct block sizes and
    sorted distinct nodes."""
    sizes = tuple(sorted({int(s) for s in block_sizes}))
    if not sizes:
        raise ValueError("no valid block sizes — the container does not fit")
    if sizes[0] < 1:
        raise ValueError("block sizes must be positive")
    node_tuple = tuple(sorted(set(nodes)))
    if not node_tuple:
        raise ValueError("node set must not be empty")
    return sizes, node_tuple


def _partitions(
    remaining: Tuple[int, ...],
    sizes: Tuple[int, ...],
    blocks: Tuple[FrozenSet[int], ...] = (),
) -> Iterator[Tuple[FrozenSet[int], ...]]:
    """Algorithm 2 as a stream: every partition of ``remaining`` into
    blocks of ``sizes`` (ascending), each after the ``blocks`` already
    chosen, in canonical order.

    The paper's recursive formulation enumerates each partition many
    times (once per block ordering); the smallest remaining node always
    opens the next block, which generates each partition exactly once and
    its blocks sorted by their smallest node.  The recursion goes through
    this module-level name, not a closure that refers to itself: such a
    closure is a reference cycle, and everything it reached — every
    partition of the machine — would outlive the call until a full
    collection.
    """
    if not remaining:
        yield blocks
        return
    first, rest = remaining[0], remaining[1:]
    for size in sizes:
        if size > len(remaining):
            break
        for combo in itertools.combinations(rest, size - 1):
            taken = set(combo)
            yield from _partitions(
                tuple(x for x in rest if x not in taken),
                sizes,
                (*blocks, frozenset((first, *combo))),
            )


def gen_packings(
    block_sizes: Iterable[int], nodes: Iterable[int]
) -> List[Packing]:
    """Algorithm 2, materialised: every partition of ``nodes`` into blocks
    whose sizes are valid node scores, as :class:`Packing` objects in
    canonical order.  Bad inputs raise here, before anything is
    enumerated."""
    sizes, node_tuple = _partition_inputs(block_sizes, nodes)
    return [Packing(blocks) for blocks in _partitions(node_tuple, sizes)]


def _distinct_packings(
    block_sizes: Iterable[int], nodes: Iterable[int], scorer: BlockScorer
) -> Tuple[List[Packing], int]:
    """Algorithm 2 with Algorithm 3's dedup applied as partitions arrive:
    the first packing (in canonical order) of each signature, and the
    number of partitions enumerated.

    A packing's signature is the multiset of ``(size, rounded interconnect
    score)`` over its blocks: packings that share one use the same amounts
    of every scored resource, so the model treats them identically
    (Section 3).  Each block is scored once per enumeration, and only a
    new signature becomes a :class:`Packing`; the partitions it drops are
    never held.
    """
    sizes, node_tuple = _partition_inputs(block_sizes, nodes)
    keys: Dict[FrozenSet[int], Tuple[int, float]] = {}
    seen: set = set()
    unique: List[Packing] = []
    total = 0
    for blocks in _partitions(node_tuple, sizes):
        total += 1
        for block in blocks:
            if block not in keys:
                keys[block] = (len(block), round(scorer(block), 3))
        signature = tuple(sorted(keys[block] for block in blocks))
        if signature not in seen:
            seen.add(signature)
            unique.append(Packing(blocks))
    return unique, total


def pareto_filter_packings(
    packings: Sequence[Packing], scorer: BlockScorer
) -> List[Packing]:
    """Algorithm 3's filter: within each class of packings with the same
    block-size multiset, remove packings whose sorted interconnect scores are
    dominated (elementwise <=, and strictly < somewhere) by another packing.

    The interconnect concern neither affects cost nor can invert, so a
    dominated packing offers nothing a dominating one does not.
    """
    by_sizes: Dict[Tuple[int, ...], List[Packing]] = {}
    for packing in packings:
        by_sizes.setdefault(packing.sizes, []).append(packing)

    survivors: List[Packing] = []
    for class_packings in by_sizes.values():
        # Rounded scores: packings whose scores differ only by measurement
        # noise must be treated as ties, not mutual domination.
        scored = [
            (
                packing,
                tuple(round(s, 3) for s in packing.ic_scores(scorer)),
            )
            for packing in class_packings
        ]
        for packing, ic in scored:
            dominated = any(
                other_ic != ic
                and all(a <= b for a, b in zip(ic, other_ic))
                for _other, other_ic in scored
            )
            if not dominated:
                survivors.append(packing)
    return survivors


class ImportantPlacementSet:
    """The enumeration result: placements numbered 1..N as in the paper's
    figures, plus the intermediate statistics for reporting."""

    def __init__(
        self,
        machine: MachineTopology,
        vcpus: int,
        concerns: ConcernSet,
        placements: Sequence[Placement],
        *,
        packings_total: int,
        packings_after_dedup: int,
        packings_after_pareto: int,
        surviving_packings: Sequence[Packing],
    ) -> None:
        self.machine = machine
        self.vcpus = vcpus
        self.concerns = concerns
        self._placements: Tuple[Placement, ...] = tuple(placements)
        self.packings_total = packings_total
        self.packings_after_dedup = packings_after_dedup
        self.packings_after_pareto = packings_after_pareto
        self.surviving_packings: Tuple[Packing, ...] = tuple(surviving_packings)

    def __len__(self) -> int:
        return len(self._placements)

    def __iter__(self):
        return iter(self._placements)

    def __getitem__(self, index: int) -> Placement:
        return self._placements[index]

    @property
    def placements(self) -> Tuple[Placement, ...]:
        return self._placements

    def id_of(self, placement: Placement) -> int:
        """1-based id of a placement in this set."""
        return self._placements.index(placement) + 1

    def counts_by_node_count(self) -> Dict[int, int]:
        """How many important placements use each node count (the paper's
        composition statement: e.g. AMD = {2: 3, 4: 8, 8: 2})."""
        counts: Dict[int, int] = {}
        for placement in self._placements:
            counts[placement.n_nodes] = counts.get(placement.n_nodes, 0) + 1
        return dict(sorted(counts.items()))

    def describe(self) -> str:
        """Table of all important placements with their score vectors."""
        lines = [
            f"{len(self._placements)} important placements for "
            f"{self.vcpus} vCPUs on {self.machine.name}",
            f"(packings: {self.packings_total} generated, "
            f"{self.packings_after_dedup} after dedup, "
            f"{self.packings_after_pareto} after Pareto filter)",
        ]
        for index, placement in enumerate(self._placements, start=1):
            scores = ", ".join(
                f"{name}={value:g}"
                for name, value in self.concerns.score_vector(placement).entries
            )
            lines.append(f"#{index:>2}: {placement.describe()}  [{scores}]")
        return "\n".join(lines)


def enumerate_important_placements(
    machine: MachineTopology,
    vcpus: int,
    concerns: ConcernSet | None = None,
) -> ImportantPlacementSet:
    """Run the full Section-4 pipeline for one machine and container size.

    Returns the important placements sorted by (node count, L3 count,
    L2 count, descending interconnect score) and numbered from 1, which is
    the ordering used for placement ids throughout this repository.
    """
    if concerns is None:
        concerns = concerns_for(machine)
    if concerns.machine is not machine:
        raise ValueError("concern set was built for a different machine")
    if vcpus > machine.total_threads:
        raise ValueError(
            f"{vcpus} vCPUs cannot get dedicated threads on "
            f"{machine.total_threads}-thread machine"
        )

    bandwidth = concerns.bandwidth_concern
    if bandwidth is not None:
        scorer: BlockScorer = lambda block: bandwidth.score_nodes(block)
    else:
        scorer = lambda block: 0.0

    # Algorithm 1 for each counting concern.
    node_scores = generate_scores(machine.n_nodes, machine.threads_per_node, vcpus)
    if not node_scores:
        raise ValueError(
            f"no balanced, feasible node count exists for {vcpus} vCPUs on "
            f"{machine.name}"
        )
    l2_concern = concerns.counting("l2")
    l2_scores = l2_concern.possible_scores(vcpus)
    l3_concern = concerns.counting("l3")
    l3_scores = set(l3_concern.possible_scores(vcpus))

    # Algorithm 2 + dedup + Pareto filter (Algorithm 3, first half).
    packings, packings_total = _distinct_packings(
        node_scores, machine.nodes, scorer
    )
    packings_after_dedup = len(packings)
    packings = pareto_filter_packings(packings, scorer)
    packings_after_pareto = len(packings)

    # Algorithm 3, second half: expand blocks into placements with every
    # feasible L2 (and L3, on split-L3 machines) score; dedup by score
    # vector.
    candidates: List[Placement] = []
    seen_vectors: set = set()
    l2_per_l3 = machine.l2_groups_per_node // machine.l3_groups_per_node
    for packing in packings:
        for block in packing.blocks:
            n_block = len(block)
            per_node_vcpus = vcpus // n_block
            for l3_per_node in range(1, machine.l3_groups_per_node + 1):
                if (n_block * l3_per_node) not in l3_scores:
                    continue
                if per_node_vcpus > l3_per_node * l3_concern.capacity:
                    continue
                for l2_score in l2_scores:
                    if l2_score % n_block != 0:
                        continue
                    per_node_l2 = l2_score // n_block
                    if per_node_l2 % l3_per_node != 0:
                        continue
                    if per_node_l2 // l3_per_node > l2_per_l3:
                        continue
                    placement = Placement(
                        machine,
                        block,
                        vcpus,
                        l2_share=vcpus // l2_score,
                        l3_groups_per_node=l3_per_node,
                    )
                    vector = concerns.score_vector(placement)
                    if vector in seen_vectors:
                        continue
                    seen_vectors.add(vector)
                    candidates.append(placement)

    if not candidates:
        raise ValueError(
            f"no balanced placement exists for {vcpus} vCPUs on "
            f"{machine.name}: every feasible node count leaves the L2/L3 "
            f"groups unevenly shared (Section 3's balance assumption)"
        )

    candidates.sort(
        key=lambda p: (
            p.n_nodes,
            p.l3_score,
            p.l2_score,
            -scorer(frozenset(p.nodes)),
            p.nodes,
        )
    )
    return ImportantPlacementSet(
        machine,
        vcpus,
        concerns,
        candidates,
        packings_total=packings_total,
        packings_after_dedup=packings_after_dedup,
        packings_after_pareto=packings_after_pareto,
        surviving_packings=packings,
    )


def important_placements(
    machine: MachineTopology, vcpus: int
) -> List[Placement]:
    """Convenience wrapper returning just the placement list."""
    return list(enumerate_important_placements(machine, vcpus))
