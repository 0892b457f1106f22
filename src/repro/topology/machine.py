"""The machine model: NUMA nodes, hardware threads, and cache groups.

The unit every other module works in is the *hardware thread* (what the OS
calls a logical CPU).  Threads are grouped by the resources they share:

* an **L2 group** is the set of hardware threads that share an L2 cache and
  the per-core pipeline resources.  On the paper's AMD machine an L2 group is
  a Bulldozer *module* (two cores sharing L2, instruction front-end, and FP
  units); on the Intel machine it is a physical core (two SMT hyperthreads).
  The paper's "L2/SMT" scheduling concern counts these groups.
* an **L3 group** is the set of threads sharing an L3 cache.  On both paper
  machines this is a whole NUMA node; ``l3_groups_per_node > 1`` models
  designs like AMD Zen where several L3 complexes share one memory controller
  (Section 8 of the paper).
* a **node** owns a memory controller and local DRAM.

Thread numbering is node-major and group-major: node ``n`` owns threads
``[n * threads_per_node, (n+1) * threads_per_node)``, and within a node the
threads of one L2 group are contiguous.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.topology.interconnect import Interconnect


class Fingerprint(tuple):
    """A machine fingerprint: a plain tuple that hashes itself once.

    The fingerprint sits in the key of every per-shape lookup (registry,
    fleet index, block-score cache, policy), and hashing the nine fields
    with the nested interconnect signature on each of them costs more
    than the lookup.  Equality and the hash *value* are the tuple's own,
    so a fingerprint and the equal plain tuple (one re-tupled off the
    wire, say) find each other in a dict.
    """

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = value = tuple.__hash__(self)
            return value

    def __reduce__(self):
        # String hashes are salted per process: the cached value must
        # never cross one.
        return (Fingerprint, (tuple(self),))


@dataclass(frozen=True)
class MachineTopology:
    """Immutable description of a NUMA machine.

    Parameters
    ----------
    name:
        Human-readable identifier, e.g. ``"amd-opteron-6272"``.
    n_nodes:
        Number of NUMA nodes.
    l2_groups_per_node:
        Number of L2 cache groups (modules / physical cores) per node.
    threads_per_l2:
        Hardware threads per L2 group (the SMT / CMT arity; 2 on both paper
        machines).
    interconnect:
        Cross-node link graph.  Must have the same number of nodes.
    dram_bandwidth_mbps:
        Local DRAM bandwidth of one node, in MB/s (STREAM-like measured
        value, not the nominal channel bandwidth).
    l3_size_mb:
        Capacity of one L3 cache.
    l2_size_kb:
        Capacity of one L2 cache.
    l3_groups_per_node:
        L3 caches per node (1 on both paper machines; >1 models Zen-style
        split L3).
    description:
        Optional free-form provenance notes.
    """

    name: str
    n_nodes: int
    l2_groups_per_node: int
    threads_per_l2: int
    interconnect: Interconnect
    dram_bandwidth_mbps: float
    l3_size_mb: float
    l2_size_kb: float
    l3_groups_per_node: int = 1
    description: str = ""

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("a machine needs at least one node")
        if self.l2_groups_per_node < 1 or self.threads_per_l2 < 1:
            raise ValueError("cache group shape must be positive")
        if self.l3_groups_per_node < 1:
            raise ValueError("l3_groups_per_node must be >= 1")
        if self.l2_groups_per_node % self.l3_groups_per_node != 0:
            raise ValueError(
                "L2 groups must divide evenly into L3 groups: "
                f"{self.l2_groups_per_node} L2 groups vs "
                f"{self.l3_groups_per_node} L3 groups per node"
            )
        if self.interconnect.n_nodes != self.n_nodes:
            raise ValueError(
                f"interconnect models {self.interconnect.n_nodes} nodes, "
                f"machine has {self.n_nodes}"
            )
        if self.dram_bandwidth_mbps <= 0:
            raise ValueError("dram_bandwidth_mbps must be positive")
        if self.l3_size_mb <= 0 or self.l2_size_kb <= 0:
            raise ValueError("cache sizes must be positive")

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------

    @property
    def threads_per_node(self) -> int:
        return self.l2_groups_per_node * self.threads_per_l2

    @property
    def total_threads(self) -> int:
        return self.n_nodes * self.threads_per_node

    @property
    def l2_count(self) -> int:
        """Total number of L2 groups (the paper's ``L2Count``)."""
        return self.n_nodes * self.l2_groups_per_node

    @property
    def l2_capacity(self) -> int:
        """Hardware threads per L2 group (the paper's ``L2Capacity``)."""
        return self.threads_per_l2

    @property
    def l3_count(self) -> int:
        """Total number of L3 caches (the paper's ``L3Count``)."""
        return self.n_nodes * self.l3_groups_per_node

    @property
    def l3_capacity(self) -> int:
        """Hardware threads per L3 cache (the paper's ``L3Capacity``)."""
        return self.threads_per_node // self.l3_groups_per_node

    @property
    def nodes(self) -> range:
        return range(self.n_nodes)

    # ------------------------------------------------------------------
    # Thread <-> group arithmetic
    # ------------------------------------------------------------------

    def node_of_thread(self, thread: int) -> int:
        self._check_thread(thread)
        return thread // self.threads_per_node

    def l2_group_of_thread(self, thread: int) -> int:
        """Global L2 group index of a hardware thread."""
        self._check_thread(thread)
        return thread // self.threads_per_l2

    def l3_group_of_thread(self, thread: int) -> int:
        """Global L3 group index of a hardware thread."""
        self._check_thread(thread)
        return thread // (self.threads_per_node // self.l3_groups_per_node)

    def threads_of_node(self, node: int) -> range:
        self._check_node(node)
        start = node * self.threads_per_node
        return range(start, start + self.threads_per_node)

    def threads_of_l2_group(self, group: int) -> range:
        if not 0 <= group < self.l2_count:
            raise ValueError(f"unknown L2 group {group}")
        start = group * self.threads_per_l2
        return range(start, start + self.threads_per_l2)

    def _check_thread(self, thread: int) -> None:
        if not 0 <= thread < self.total_threads:
            raise ValueError(
                f"thread {thread} out of range [0, {self.total_threads})"
            )

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.n_nodes:
            raise ValueError(f"node {node} out of range [0, {self.n_nodes})")

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    def fingerprint(self) -> Fingerprint:
        """Hashable identity of everything placement enumeration depends on.

        Two machines with equal fingerprints have identical concern sets and
        therefore identical important placements for every container size,
        so enumeration results keyed by the fingerprint can be shared.  The
        name is part of the fingerprint because placements and simulators
        check machine identity by name; sharing results across differently
        named (if structurally identical) machines would let a placement
        built for one machine leak into another's simulator.

        The tuple is computed once and memoized — fleet schedulers call
        this per host per request, and every field it reads is frozen —
        and it caches its own hash (:class:`Fingerprint`).
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            cached = Fingerprint(
                (
                    self.name,
                    self.n_nodes,
                    self.l2_groups_per_node,
                    self.threads_per_l2,
                    self.l3_groups_per_node,
                    self.dram_bandwidth_mbps,
                    self.l3_size_mb,
                    self.l2_size_kb,
                    self.interconnect.signature(),
                )
            )
            # object.__setattr__-free: frozen dataclasses still own a
            # plain __dict__, and writing to it does not trip the freeze.
            self.__dict__["_fingerprint"] = cached
        return cached

    def summary(self) -> str:
        """A human-readable one-paragraph description (for example scripts)."""
        lines = [
            f"{self.name}: {self.n_nodes} NUMA nodes, "
            f"{self.total_threads} hardware threads",
            f"  per node: {self.l2_groups_per_node} L2 groups x "
            f"{self.threads_per_l2} threads, "
            f"{self.l3_groups_per_node} L3 cache(s) of {self.l3_size_mb} MB, "
            f"DRAM {self.dram_bandwidth_mbps / 1000:.1f} GB/s",
            f"  interconnect: "
            f"{'symmetric' if self.interconnect.is_symmetric else 'asymmetric'}, "
            f"{len(self.interconnect.links)} links, "
            f"diameter {self.interconnect.diameter}",
        ]
        if self.description:
            lines.append(f"  {self.description}")
        return "\n".join(lines)
