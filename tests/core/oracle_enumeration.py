"""The materialise-then-dedup enumeration, kept verbatim as the test oracle.

This is Algorithms 2 and 3 of ``repro.core.enumeration`` as they stood
before the pipeline streamed its partitions: :func:`gen_packings` builds
every partition of the machine's nodes as a :class:`Packing` inside a
recursive closure, :func:`dedup_packings` then keeps the first packing of
each signature, and :func:`oracle_enumerate_important_placements` runs the
whole Section-4 pipeline on top of them.  The streamed enumeration must
return the same placements in the same order, the same three packing
counters and the same surviving packings
(``tests/core/test_enumeration.py``); nothing in ``src/`` imports this.
"""

from __future__ import annotations

import itertools
from typing import FrozenSet, Iterable, List, Sequence, Tuple

from repro.core.concerns import ConcernSet, concerns_for
from repro.core.enumeration import (
    BlockScorer,
    ImportantPlacementSet,
    Packing,
    generate_scores,
    pareto_filter_packings,
)
from repro.core.placements import Placement
from repro.topology.machine import MachineTopology


def packing_signature(
    packing: Packing, scorer: BlockScorer
) -> Tuple[Tuple[int, float], ...]:
    """Dedup key: the multiset of (size, interconnect score) per block."""
    return tuple(
        sorted((len(block), round(scorer(block), 3)) for block in packing.blocks)
    )


def gen_packings(
    block_sizes: Iterable[int], nodes: Iterable[int]
) -> List[Packing]:
    """Algorithm 2: enumerate all partitions of ``nodes`` into blocks whose
    sizes are valid node scores.

    The paper's recursive formulation enumerates each partition many times
    (once per block ordering); we canonicalize by always assigning the
    smallest remaining node to the next block, which generates each
    partition exactly once.
    """
    sizes = sorted({int(s) for s in block_sizes})
    if not sizes:
        raise ValueError("no valid block sizes — the container does not fit")
    if sizes[0] < 1:
        raise ValueError("block sizes must be positive")
    node_tuple = tuple(sorted(set(nodes)))
    if not node_tuple:
        raise ValueError("node set must not be empty")

    packings: List[Packing] = []

    def recurse(remaining: Tuple[int, ...], blocks: List[FrozenSet[int]]) -> None:
        if not remaining:
            packings.append(Packing(tuple(blocks)))
            return
        first, rest = remaining[0], remaining[1:]
        for size in sizes:
            if size > len(remaining):
                continue
            for combo in itertools.combinations(rest, size - 1):
                block = frozenset((first, *combo))
                combo_set = set(combo)
                blocks.append(block)
                recurse(
                    tuple(x for x in rest if x not in combo_set), blocks
                )
                blocks.pop()

    recurse(node_tuple, [])
    return packings


def dedup_packings(
    packings: Sequence[Packing], scorer: BlockScorer
) -> List[Packing]:
    """Remove packings whose (size, interconnect score) multisets coincide.

    Such packings use the same amounts of every scored resource, so the
    model treats them identically (Section 3).
    """
    seen: set = set()
    unique: List[Packing] = []
    for packing in packings:
        signature = packing_signature(packing, scorer)
        if signature not in seen:
            seen.add(signature)
            unique.append(packing)
    return unique


def oracle_enumerate_important_placements(
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
    packings = gen_packings(node_scores, machine.nodes)
    packings_total = len(packings)
    packings = dedup_packings(packings, scorer)
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
