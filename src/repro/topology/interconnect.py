"""Cross-node interconnect model.

The interconnect is an undirected graph whose vertices are NUMA nodes and
whose edges are point-to-point links with a *measured* bandwidth (MB/s).
"Measured" follows the paper (Section 4): rather than deriving scores from
nominal link widths, the authors measure the aggregate bandwidth achievable
on every node combination with a STREAM-like benchmark.  Our link values
play the role of those measurements, and :class:`Interconnect` derives the
per-combination aggregate from them deterministically.

Two quantities matter to the rest of the system:

* ``effective_bandwidth(i, j)`` -- the bandwidth available between a pair of
  nodes.  For adjacent nodes it is the link bandwidth.  For distant nodes the
  traffic is routed over a shortest path and both shares the intermediate
  links with their owners and pays a store-and-forward penalty, so we charge
  the bottleneck bandwidth divided by the hop count (the route that maximizes
  this is chosen).
* ``aggregate_bandwidth(nodes)`` -- the interconnect *score* of a node set:
  the sum of effective bandwidths over all node pairs in the set.  This is
  the quantity the paper's Interconnect scheduling concern consumes.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, List, Mapping, Sequence, Tuple

#: A link is identified by the unordered pair of node ids it connects.
Link = FrozenSet[int]


def _as_link(a: int, b: int) -> Link:
    if a == b:
        raise ValueError(f"a link must connect two distinct nodes, got ({a}, {b})")
    return frozenset((a, b))


class Interconnect:
    """An undirected link graph with per-link bandwidths.

    Parameters
    ----------
    n_nodes:
        Number of NUMA nodes; nodes are identified by ``0 .. n_nodes - 1``.
    links:
        Mapping from node pairs (2-tuples or frozensets) to link bandwidth in
        MB/s.  The graph must be connected.
    local_latency_ns:
        Latency of a memory access that stays on the node.
    hop_latency_ns:
        Additional latency per interconnect hop for remote accesses.
    """

    def __init__(
        self,
        n_nodes: int,
        links: Mapping[Tuple[int, int] | Link, float],
        *,
        local_latency_ns: float = 90.0,
        hop_latency_ns: float = 110.0,
    ) -> None:
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
        if local_latency_ns <= 0 or hop_latency_ns < 0:
            raise ValueError("latencies must be positive")
        self._n_nodes = n_nodes
        self._local_latency_ns = float(local_latency_ns)
        self._hop_latency_ns = float(hop_latency_ns)

        self._links: Dict[Link, float] = {}
        for raw_link, bandwidth in links.items():
            link = _as_link(*sorted(raw_link))
            a, b = sorted(link)
            if not (0 <= a < n_nodes and 0 <= b < n_nodes):
                raise ValueError(f"link ({a}, {b}) references an unknown node")
            if bandwidth <= 0:
                raise ValueError(f"link ({a}, {b}) has non-positive bandwidth")
            if link in self._links:
                raise ValueError(f"duplicate link ({a}, {b})")
            self._links[link] = float(bandwidth)

        neighbours: List[List[int]] = [[] for _ in range(n_nodes)]
        for link in self._links:
            a, b = sorted(link)
            neighbours[a].append(b)
            neighbours[b].append(a)
        #: source -> node -> hop count, and source -> node -> the
        #: neighbours one hop closer to the source (every shortest path
        #: back to the source leaves through one of them).
        self._hops: Dict[int, Dict[int, int]] = {}
        self._toward: Dict[int, Dict[int, List[int]]] = {}
        for source in range(n_nodes):
            hops = {source: 0}
            toward: Dict[int, List[int]] = {source: []}
            frontier = [source]
            while frontier:
                reached = []
                for node in frontier:
                    for neighbour in neighbours[node]:
                        if neighbour not in hops:
                            hops[neighbour] = hops[node] + 1
                            toward[neighbour] = []
                            reached.append(neighbour)
                        if hops[neighbour] == hops[node] + 1:
                            toward[neighbour].append(node)
                frontier = reached
            if len(hops) < n_nodes:
                raise ValueError("interconnect graph must be connected")
            self._hops[source] = hops
            self._toward[source] = toward

        self._effective: Dict[Link, float] = {}
        for a, b in itertools.combinations(range(n_nodes), 2):
            self._effective[_as_link(a, b)] = self._compute_effective(a, b)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def full_mesh(
        cls,
        n_nodes: int,
        bandwidth_mbps: float,
        *,
        local_latency_ns: float = 90.0,
        hop_latency_ns: float = 110.0,
    ) -> "Interconnect":
        """A symmetric all-to-all interconnect (e.g. a 4-socket QPI ring that
        behaves symmetrically, as on the paper's Intel machine)."""
        links = {
            (a, b): bandwidth_mbps
            for a, b in itertools.combinations(range(n_nodes), 2)
        }
        if n_nodes == 1:
            links = {}
        return cls(
            n_nodes,
            links,
            local_latency_ns=local_latency_ns,
            hop_latency_ns=hop_latency_ns,
        )

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return self._n_nodes

    @property
    def nodes(self) -> range:
        return range(self._n_nodes)

    @property
    def links(self) -> Dict[Link, float]:
        """A copy of the link table (unordered pair -> bandwidth MB/s)."""
        return dict(self._links)

    @property
    def local_latency_ns(self) -> float:
        return self._local_latency_ns

    @property
    def hop_latency_ns(self) -> float:
        return self._hop_latency_ns

    def signature(self) -> Tuple:
        """Hashable identity of the link graph: node count, latencies, and
        the sorted (pair, bandwidth) table.  Two interconnects with equal
        signatures produce identical scores for every node set, so results
        keyed by the signature can be shared between them."""
        return (
            self._n_nodes,
            self._local_latency_ns,
            self._hop_latency_ns,
            tuple(
                (tuple(sorted(link)), bandwidth)
                for link, bandwidth in sorted(
                    self._links.items(), key=lambda item: tuple(sorted(item[0]))
                )
            ),
        )

    def bandwidth(self, a: int, b: int) -> float | None:
        """Direct link bandwidth between ``a`` and ``b``; None if not adjacent."""
        return self._links.get(_as_link(a, b))

    def hop_distance(self, a: int, b: int) -> int:
        """Number of interconnect hops between two nodes (0 for ``a == b``)."""
        if a == b:
            return 0
        return self._hops[a][b]

    @property
    def diameter(self) -> int:
        if self._n_nodes == 1:
            return 0
        return max(
            self._hops[a][b]
            for a, b in itertools.combinations(range(self._n_nodes), 2)
        )

    def shortest_paths(self, a: int, b: int) -> List[List[int]]:
        """Every minimum-hop route from ``a`` to ``b``, each as the list of
        nodes visited (both ends included), in no particular order."""
        toward = self._toward[a]
        paths = [[b]]
        for _ in range(self.hop_distance(a, b)):
            paths = [
                path + [closer] for path in paths for closer in toward[path[-1]]
            ]
        return [path[::-1] for path in paths]

    def latency_ns(self, a: int, b: int) -> float:
        """Memory access latency between a thread on node ``a`` and memory on
        node ``b``."""
        hops = self.hop_distance(a, b)
        return self._local_latency_ns + hops * self._hop_latency_ns

    # ------------------------------------------------------------------
    # Bandwidth model
    # ------------------------------------------------------------------

    def _compute_effective(self, a: int, b: int) -> float:
        hops = self._hops[a][b]
        if hops == 1:
            return self._links[_as_link(a, b)]
        # Among all shortest paths, pick the one with the widest bottleneck;
        # divide by the hop count to account for store-and-forward and for
        # sharing the intermediate links.
        best_bottleneck = 0.0
        for path in self.shortest_paths(a, b):
            bottleneck = min(
                self._links[_as_link(u, v)] for u, v in zip(path, path[1:])
            )
            best_bottleneck = max(best_bottleneck, bottleneck)
        return best_bottleneck / hops

    def effective_bandwidth(self, a: int, b: int) -> float:
        """Point-to-point bandwidth between two nodes (MB/s)."""
        if a == b:
            raise ValueError("effective_bandwidth is defined for distinct nodes")
        return self._effective[_as_link(a, b)]

    def aggregate_bandwidth(self, nodes: Iterable[int]) -> float:
        """The interconnect score of a node set (MB/s).

        Sum of pairwise effective bandwidths inside the set.  Single-node sets
        score 0: they generate no cross-node traffic.
        """
        node_list = sorted(set(nodes))
        for n in node_list:
            if not 0 <= n < self._n_nodes:
                raise ValueError(f"unknown node {n}")
        return sum(
            self._effective[_as_link(a, b)]
            for a, b in itertools.combinations(node_list, 2)
        )

    @property
    def is_symmetric(self) -> bool:
        """True when every node pair sees the same effective bandwidth.

        Symmetric interconnects (the paper's Intel machine) do not need an
        interconnect scheduling concern: every node set of a given size has
        the same score, so the score adds no information.
        """
        values = set(self._effective.values())
        return len(values) <= 1

    def mean_pairwise_latency_ns(self, nodes: Sequence[int]) -> float:
        """Average latency over ordered node pairs of a placement, including
        same-node pairs.  Used by the communication model in ``perfsim``."""
        node_list = list(nodes)
        if not node_list:
            raise ValueError("node set must not be empty")
        if len(node_list) == 1:
            return self._local_latency_ns
        total = 0.0
        count = 0
        for a in node_list:
            for b in node_list:
                total += self.latency_ns(a, b)
                count += 1
        return total / count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Interconnect(n_nodes={self._n_nodes}, links={len(self._links)}, "
            f"symmetric={self.is_symmetric})"
        )
