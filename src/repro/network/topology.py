"""Heterogeneous network topology model.

The paper models the serving system as a graph ``G = <V, E>`` (Table I)
whose nodes are GPUs (``V_g``) and switches (``V_s``) and whose edges are
either intra-server NVLink connections or inter-server Ethernet links, each
with a maximum capacity ``C(e)`` and a remaining bandwidth ``B(e)``.

This module provides that graph. Undirected physical links are stored as
*pairs of directed edges* (full duplex: each direction has the full
capacity), because flows and congestion are per-direction. Edge attributes
live in parallel NumPy arrays so routing and fair-share computations
vectorise.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.util import units
from repro.util.validation import require_positive


class NodeKind(enum.IntEnum):
    """Role of a node in the serving-system graph."""

    GPU = 0
    ACCESS_SWITCH = 1
    CORE_SWITCH = 2


class LinkKind(enum.IntEnum):
    """Physical technology of a link; determines capacity and base latency."""

    NVLINK = 0
    ETHERNET = 1
    PCIE = 2


#: Default per-hop base latencies (propagation + serialisation floor).
#: The paper treats in-switch aggregation as ~1 us (Tiara / Tofino 1);
#: NVLink hops are sub-microsecond.
DEFAULT_HOP_LATENCY = {
    LinkKind.NVLINK: 0.5 * units.US,
    LinkKind.ETHERNET: 1.0 * units.US,
    LinkKind.PCIE: 1.0 * units.US,
}


@dataclass(frozen=True)
class Node:
    """A vertex of the topology graph."""

    node_id: int
    kind: NodeKind
    name: str
    #: Server this GPU belongs to (-1 for switches).
    server: int = -1
    #: GPU memory capacity in bytes (0 for switches).
    memory_bytes: float = 0.0
    #: Cluster tag assigned later by the planner ("prefill"/"decode"/"").
    tags: tuple[str, ...] = ()

    @property
    def is_gpu(self) -> bool:
        return self.kind == NodeKind.GPU

    @property
    def is_switch(self) -> bool:
        return self.kind != NodeKind.GPU


@dataclass
class Link:
    """A directed edge. Physical full-duplex links appear twice."""

    link_id: int
    src: int
    dst: int
    kind: LinkKind
    capacity: float  # bytes / second, per direction
    hop_latency: float  # seconds, fixed per-hop component

    @property
    def reverse_id(self) -> int:
        """Directed twin of this link (pairs are allocated adjacently)."""
        return self.link_id ^ 1


@dataclass
class Topology:
    """Mutable graph of GPUs and switches with typed, full-duplex links."""

    nodes: list[Node] = field(default_factory=list)
    links: list[Link] = field(default_factory=list)
    #: adjacency: node id -> list of outgoing directed link ids
    adj: list[list[int]] = field(default_factory=list)
    name: str = "topology"

    # -- construction ------------------------------------------------------

    def add_node(
        self,
        kind: NodeKind,
        name: str,
        server: int = -1,
        memory_bytes: float = 0.0,
    ) -> int:
        """Add a node and return its integer id."""
        nid = len(self.nodes)
        self.nodes.append(
            Node(nid, kind, name, server=server, memory_bytes=memory_bytes)
        )
        self.adj.append([])
        return nid

    def add_gpu(self, name: str, server: int, memory_bytes: float) -> int:
        """Add a GPU node attached to ``server`` with the given HBM size."""
        require_positive("memory_bytes", memory_bytes)
        return self.add_node(
            NodeKind.GPU, name, server=server, memory_bytes=memory_bytes
        )

    def add_switch(self, name: str, core: bool = False) -> int:
        """Add an access (default) or core switch node."""
        kind = NodeKind.CORE_SWITCH if core else NodeKind.ACCESS_SWITCH
        return self.add_node(kind, name)

    def add_link(
        self,
        u: int,
        v: int,
        kind: LinkKind,
        capacity: float,
        hop_latency: float | None = None,
    ) -> tuple[int, int]:
        """Add a full-duplex link; returns the two directed link ids."""
        require_positive("capacity", capacity)
        if u == v:
            raise ValueError(f"self-loop on node {u}")
        if hop_latency is None:
            hop_latency = DEFAULT_HOP_LATENCY[kind]
        ids = []
        for a, b in ((u, v), (v, u)):
            lid = len(self.links)
            self.links.append(Link(lid, a, b, kind, capacity, hop_latency))
            self.adj[a].append(lid)
            ids.append(lid)
        return ids[0], ids[1]

    # -- queries -----------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_links(self) -> int:
        return len(self.links)

    def gpu_ids(self) -> list[int]:
        """Ids of all GPU nodes, in insertion order."""
        return [n.node_id for n in self.nodes if n.is_gpu]

    def switch_ids(self, core: bool | None = None) -> list[int]:
        """Ids of switch nodes; filter to core/access with ``core``."""
        out = []
        for n in self.nodes:
            if not n.is_switch:
                continue
            if core is True and n.kind != NodeKind.CORE_SWITCH:
                continue
            if core is False and n.kind != NodeKind.ACCESS_SWITCH:
                continue
            out.append(n.node_id)
        return out

    def servers(self) -> list[int]:
        """Sorted list of distinct server ids present in the graph."""
        return sorted({n.server for n in self.nodes if n.is_gpu})

    def neighbors(self, u: int) -> list[int]:
        """Destination node ids of all outgoing links of ``u``."""
        return [self.links[lid].dst for lid in self.adj[u]]

    def find_link(self, u: int, v: int) -> Link | None:
        """First directed link u -> v, or ``None``."""
        for lid in self.adj[u]:
            if self.links[lid].dst == v:
                return self.links[lid]
        return None

    # -- vectorised views --------------------------------------------------

    def capacity_array(self) -> np.ndarray:
        """Per-directed-link capacities (bytes/s) as a float array."""
        return np.array([l.capacity for l in self.links], dtype=np.float64)

    def hop_latency_array(self) -> np.ndarray:
        """Per-directed-link base latencies (s) as a float array."""
        return np.array([l.hop_latency for l in self.links], dtype=np.float64)

    def kind_array(self) -> np.ndarray:
        """Per-directed-link :class:`LinkKind` values as an int array."""
        return np.array([int(l.kind) for l in self.links], dtype=np.int64)

    def link_classes(self) -> list[str]:
        """Per-directed-link *class* names, indexed by link id.

        A class is finer than :class:`LinkKind`: Ethernet splits into the
        GPU<->access-switch "leader" links (``ethernet_access``, the paper's
        intra-track bottleneck) and the switch<->switch trunks
        (``ethernet_trunk``, inter-track). NVLink and PCIe map to
        ``nvlink``/``pcie``. The what-if profiler targets interventions at
        this granularity.
        """
        out: list[str] = []
        for link in self.links:
            if link.kind == LinkKind.NVLINK:
                out.append("nvlink")
            elif link.kind == LinkKind.PCIE:
                out.append("pcie")
            elif (
                self.nodes[link.src].is_switch
                and self.nodes[link.dst].is_switch
            ):
                out.append("ethernet_trunk")
            else:
                out.append("ethernet_access")
        return out

    def endpoints_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(src, dst) node-id arrays over directed links."""
        src = np.array([l.src for l in self.links], dtype=np.int64)
        dst = np.array([l.dst for l in self.links], dtype=np.int64)
        return src, dst

    # -- integrity ---------------------------------------------------------

    def validate(self) -> None:
        """Check structural invariants; raises ``ValueError`` on violation."""
        for lid, link in enumerate(self.links):
            if link.link_id != lid:
                raise ValueError(f"link id mismatch at {lid}")
            twin = self.links[link.reverse_id]
            if (twin.src, twin.dst) != (link.dst, link.src):
                raise ValueError(f"directed twin mismatch for link {lid}")
            if twin.capacity != link.capacity:
                raise ValueError(f"asymmetric capacity on link pair {lid}")
            if not (0 <= link.src < self.n_nodes):
                raise ValueError(f"dangling src on link {lid}")
            if not (0 <= link.dst < self.n_nodes):
                raise ValueError(f"dangling dst on link {lid}")
        for u, out in enumerate(self.adj):
            for lid in out:
                if self.links[lid].src != u:
                    raise ValueError(f"adjacency corrupt at node {u}")
        for n in self.nodes:
            if n.is_gpu:
                intra = [
                    lid
                    for lid in self.adj[n.node_id]
                    if self.links[lid].kind
                    in (LinkKind.NVLINK, LinkKind.PCIE)
                ]
                for lid in intra:
                    other = self.nodes[self.links[lid].dst]
                    if other.server != n.server:
                        raise ValueError(
                            f"{self.links[lid].kind.name} crossing "
                            f"servers: {n.name} -> {other.name}"
                        )

    def summary(self) -> str:
        """One-line description used by example scripts and benches."""
        n_gpu = len(self.gpu_ids())
        n_acc = len(self.switch_ids(core=False))
        n_core = len(self.switch_ids(core=True))
        kinds = self.kind_array()
        n_nv = int((kinds == int(LinkKind.NVLINK)).sum()) // 2
        n_eth = int((kinds == int(LinkKind.ETHERNET)).sum()) // 2
        return (
            f"{self.name}: {n_gpu} GPUs on {len(self.servers())} servers, "
            f"{n_acc} access + {n_core} core switches, "
            f"{n_nv} NVLink + {n_eth} Ethernet links"
        )
