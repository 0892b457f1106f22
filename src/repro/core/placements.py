"""Placements: how a container's vCPUs map onto hardware threads.

The paper only considers *balanced* placements (Section 3): the vCPUs divide
evenly over the NUMA nodes in use, and within each node they divide evenly
over the L2 groups in use.  A placement is therefore fully described by

* the set of NUMA nodes it occupies,
* how many hardware threads of each L2 group it uses (``l2_share``; 1 means
  no SMT/module sharing, ``threads_per_l2`` means fully shared), and
* for split-L3 machines, how many L3 groups per node it occupies.

From these the concrete vCPU -> hardware-thread assignment follows
deterministically (nodes in ascending order, L2 groups in ascending order
within a node).  Two placements with the same score vector are
interchangeable for the model (Section 3: "identically scored placements
yield identical performance"), so the deterministic choice loses nothing.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, List, Tuple

from repro.topology.machine import MachineTopology


def _rebuild(machine, nodes, vcpus, l2_share, l3_groups_per_node):
    """Unpickling constructor (:meth:`Placement.__reduce__`)."""
    return Placement(
        machine,
        nodes,
        vcpus,
        l2_share=l2_share,
        l3_groups_per_node=l3_groups_per_node,
    )


class Placement:
    """A balanced assignment of ``vcpus`` virtual cores to hardware threads.

    Parameters
    ----------
    machine:
        Target machine.
    nodes:
        NUMA nodes in use.  ``vcpus`` must divide evenly by their count.
    vcpus:
        Number of virtual cores (each gets its own hardware thread).
    l2_share:
        Hardware threads used per occupied L2 group.  ``1`` avoids SMT
        sharing entirely; ``machine.threads_per_l2`` packs each group fully.
    l3_groups_per_node:
        L3 groups used in each node; only meaningful on machines with
        split L3 (defaults to however many are needed, preferring fewer).
    """

    def __init__(
        self,
        machine: MachineTopology,
        nodes: Iterable[int],
        vcpus: int,
        *,
        l2_share: int = 1,
        l3_groups_per_node: int | None = None,
    ) -> None:
        node_tuple = tuple(sorted(set(nodes)))
        if not node_tuple:
            raise ValueError("a placement needs at least one node")
        for node in node_tuple:
            if not 0 <= node < machine.n_nodes:
                raise ValueError(f"unknown node {node}")
        if vcpus < 1:
            raise ValueError("vcpus must be >= 1")
        if vcpus % len(node_tuple) != 0:
            raise ValueError(
                f"unbalanced placement: {vcpus} vCPUs on {len(node_tuple)} nodes"
            )
        if not 1 <= l2_share <= machine.threads_per_l2:
            raise ValueError(
                f"l2_share must be in [1, {machine.threads_per_l2}], got {l2_share}"
            )
        per_node = vcpus // len(node_tuple)
        if per_node % l2_share != 0:
            raise ValueError(
                f"unbalanced L2 sharing: {per_node} vCPUs per node with "
                f"l2_share={l2_share}"
            )
        groups_per_node = per_node // l2_share
        if groups_per_node > machine.l2_groups_per_node:
            raise ValueError(
                f"infeasible: needs {groups_per_node} L2 groups per node, "
                f"machine has {machine.l2_groups_per_node}"
            )

        if l3_groups_per_node is None:
            # Prefer the fewest L3 groups that can hold the needed L2 groups.
            l2_per_l3 = machine.l2_groups_per_node // machine.l3_groups_per_node
            l3_groups_per_node = -(-groups_per_node // l2_per_l3)  # ceil div
        if not 1 <= l3_groups_per_node <= machine.l3_groups_per_node:
            raise ValueError(
                f"l3_groups_per_node must be in [1, {machine.l3_groups_per_node}]"
            )
        l2_per_l3 = machine.l2_groups_per_node // machine.l3_groups_per_node
        if groups_per_node % l3_groups_per_node != 0:
            raise ValueError(
                f"unbalanced L3 split: {groups_per_node} L2 groups per node "
                f"over {l3_groups_per_node} L3 groups"
            )
        if groups_per_node // l3_groups_per_node > l2_per_l3:
            raise ValueError(
                f"infeasible: needs {groups_per_node // l3_groups_per_node} "
                f"L2 groups per L3 group, machine has {l2_per_l3}"
            )

        self._machine = machine
        self._nodes = node_tuple
        self._vcpus = vcpus
        self._l2_share = l2_share
        self._l3_groups_per_node = l3_groups_per_node
        # Over exactly what __eq__ compares, taken here, once: every
        # field is fixed from now on, and a placement is the outer key of
        # the noise-free IPC memo on every probe and every grading.
        self._hash = hash(
            (machine.name, node_tuple, vcpus, l2_share, l3_groups_per_node)
        )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def balanced(
        cls,
        machine: MachineTopology,
        nodes: Iterable[int],
        vcpus: int,
        *,
        use_smt: bool = False,
    ) -> "Placement":
        """The two placements users most often want: SMT fully on or off."""
        l2_share = machine.threads_per_l2 if use_smt else 1
        return cls(machine, nodes, vcpus, l2_share=l2_share)

    @classmethod
    def from_l2_score(
        cls,
        machine: MachineTopology,
        nodes: Iterable[int],
        vcpus: int,
        l2_score: int,
    ) -> "Placement":
        """Build a placement that uses exactly ``l2_score`` L2 groups (the
        parametrization of the enumeration algorithms)."""
        if l2_score < 1 or vcpus % l2_score != 0:
            raise ValueError(
                f"l2_score {l2_score} does not divide {vcpus} vCPUs evenly"
            )
        return cls(machine, nodes, vcpus, l2_share=vcpus // l2_score)

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------

    @property
    def machine(self) -> MachineTopology:
        return self._machine

    @property
    def nodes(self) -> Tuple[int, ...]:
        return self._nodes

    @property
    def n_nodes(self) -> int:
        return len(self._nodes)

    @property
    def vcpus(self) -> int:
        return self._vcpus

    @property
    def l2_share(self) -> int:
        return self._l2_share

    @property
    def l3_groups_per_node(self) -> int:
        """L3 groups used per node, resolved (never None)."""
        return self._l3_groups_per_node

    @property
    def uses_smt(self) -> bool:
        """True when any L2 group hosts more than one vCPU."""
        return self._l2_share > 1

    @property
    def vcpus_per_node(self) -> int:
        return self._vcpus // len(self._nodes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Placement):
            return NotImplemented
        return (
            self._machine.name == other._machine.name
            and self._nodes == other._nodes
            and self._vcpus == other._vcpus
            and self._l2_share == other._l2_share
            and self._l3_groups_per_node == other._l3_groups_per_node
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuilt through __init__ on the other side: the cached hash
        # covers a string, and string hashes are salted per process.
        return (
            _rebuild,
            (
                self._machine,
                self._nodes,
                self._vcpus,
                self._l2_share,
                self._l3_groups_per_node,
            ),
        )

    def __repr__(self) -> str:
        smt = "smt" if self.uses_smt else "no-smt"
        return (
            f"Placement(nodes={list(self._nodes)}, vcpus={self._vcpus}, {smt})"
        )

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe identity of this placement.

        The machine travels by *name*: topologies are process-local
        constants, and every field the placement's equality checks is in
        the payload (``l3_groups_per_node`` serializes resolved, never
        None, so the round-trip is exact even when the constructor
        defaulted it).
        """
        return {
            "machine": self._machine.name,
            "nodes": list(self._nodes),
            "vcpus": self._vcpus,
            "l2_share": self._l2_share,
            "l3_groups_per_node": self._l3_groups_per_node,
        }

    @classmethod
    def from_dict(cls, data: dict, machines) -> "Placement":
        """Inverse of :meth:`to_dict`; ``machines`` maps name -> topology
        (see :func:`repro.core.serialize.machines_by_name`)."""
        from repro.core.serialize import resolve_machine

        return cls(
            resolve_machine(data["machine"], machines),
            data["nodes"],
            data["vcpus"],
            l2_share=data["l2_share"],
            l3_groups_per_node=data["l3_groups_per_node"],
        )

    # ------------------------------------------------------------------
    # Derived structure
    # ------------------------------------------------------------------

    @cached_property
    def l2_groups(self) -> Tuple[int, ...]:
        """Global ids of the L2 groups in use."""
        groups: List[int] = []
        per_node = self.vcpus_per_node // self._l2_share
        per_l3 = per_node // self._l3_groups_per_node
        l2_per_l3 = (
            self._machine.l2_groups_per_node // self._machine.l3_groups_per_node
        )
        for node in self._nodes:
            node_first_group = node * self._machine.l2_groups_per_node
            for l3_index in range(self._l3_groups_per_node):
                start = node_first_group + l3_index * l2_per_l3
                groups.extend(range(start, start + per_l3))
        return tuple(groups)

    @cached_property
    def l3_groups(self) -> Tuple[int, ...]:
        """Global ids of the L3 groups in use."""
        groups: List[int] = []
        for node in self._nodes:
            start = node * self._machine.l3_groups_per_node
            groups.extend(range(start, start + self._l3_groups_per_node))
        return tuple(groups)

    @cached_property
    def threads(self) -> Tuple[int, ...]:
        """Hardware thread of each vCPU (index = vCPU id)."""
        assignment: List[int] = []
        for group in self.l2_groups:
            group_threads = self._machine.threads_of_l2_group(group)
            assignment.extend(group_threads[: self._l2_share])
        return tuple(assignment)

    @property
    def l2_score(self) -> int:
        """Number of L2 groups in use (the paper's L2/SMT concern score)."""
        return len(self.l2_groups)

    @property
    def l3_score(self) -> int:
        """Number of L3 caches in use (the paper's L3 concern score)."""
        return len(self.l3_groups)

    @property
    def node_score(self) -> int:
        """Number of NUMA nodes in use."""
        return len(self._nodes)

    def cpu_affinity_masks(self) -> List[Tuple[int, ...]]:
        """Per-vCPU affinity masks (singleton: each vCPU is pinned to one
        hardware thread).  This is the boundary where a real backend would
        call ``sched_setaffinity``/cgroup cpusets."""
        return [(thread,) for thread in self.threads]

    def describe(self) -> str:
        return (
            f"{self._vcpus} vCPUs on nodes {list(self._nodes)} "
            f"({'SMT' if self.uses_smt else 'no SMT'}: "
            f"{self.l2_score} L2 groups, {self.l3_score} L3 caches)"
        )
