"""Conflict graph construction: one sparse kernel for every link relation.

The conflict graph has one vertex per *directed link* of the mesh; an edge
between two links means they may not be active in the same TDMA slot.  Under
the k-hop protocol model, links ``(u, v)`` and ``(a, b)`` conflict iff the
hop distance between their endpoint sets is at most ``k - 1``:

- ``k = 1``: only links sharing a node conflict (pure half-duplex, no
  radio interference) -- the classic "primary" or node-exclusive model.
- ``k = 2``: links whose endpoints are within one hop of each other
  conflict.  This is the model mandated by the 802.16 mesh specification
  (a node's transmission must not collide at any neighbour of the
  receiver), and the default throughout this library.

Larger ``k`` models wider interference ranges (e.g. carrier sense ranges
exceeding communication range).

Every link relation in the library -- this model, the channel's exact
collision rule (:func:`repro.phy.interference.interference_graph`) and
SINR interference (:class:`repro.phy.models.SinrModel`) -- comes out of
one kernel, :func:`link_relation`, fed a per-relation link x node *reach*
matrix; :func:`relation_graph` materializes the result.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

import networkx as nx
import numpy as np
import scipy.sparse as sp

from repro.errors import ConfigurationError
from repro.net.topology import Link, MeshTopology


def incidence(topology: MeshTopology, links: Sequence[Link],
              ends: tuple[int, ...] = (0, 1)) -> sp.csr_array:
    """Boolean link x node incidence: row ``i`` marks ``links[i][e]``.

    ``ends=(0, 1)`` is the endpoint incidence ``E``; ``(0,)`` marks
    transmitters only, ``(1,)`` receivers only.  Columns are the nodes in
    sorted order.
    """
    columns = {node: i for i, node in enumerate(topology.nodes)}
    cols = np.fromiter((columns[link[e]] for link in links for e in ends),
                       dtype=np.int64, count=len(links) * len(ends))
    return sp.csr_array((np.ones(cols.size, dtype=bool), cols,
                         np.arange(0, cols.size + 1, len(ends))),
                        shape=(len(links), len(columns)))


def adjacency(topology: MeshTopology) -> sp.csr_array:
    """Boolean node x node radio adjacency, nodes in sorted order."""
    return nx.to_scipy_sparse_array(topology.graph, nodelist=topology.nodes,
                                    dtype=bool, format="csr")


def link_relation(topology: MeshTopology, links: Sequence[Link],
                  reach: sp.csr_array, senders: tuple[int, ...] = (0, 1),
                  rows: Optional[np.ndarray] = None) -> sp.csr_array:
    """The kernel: ``sym(M S^T) | E E^T`` minus the diagonal, as CSR.

    ``reach`` (``M``) is link x node over the sorted ``links``; ``E`` is
    their endpoint :func:`incidence` and ``S`` the incidence of the
    ``senders`` ends.  Links ``a`` and ``b`` are related iff they share a
    radio or a sender of either is in the other's reach.  With ``rows``
    (sorted link positions) only those rows are computed, as a
    ``len(rows) x L`` block.  Column indices come back sorted.
    """
    endpoints = incidence(topology, links)
    sent = incidence(topology, links, senders)
    if rows is None:
        rows = np.arange(len(links))
    relation = (reach[rows] @ sent.T + sent[rows] @ reach.T
                + endpoints[rows] @ endpoints.T)
    relation.sum_duplicates()
    # E E^T puts exactly one diagonal entry in every row: drop it.
    diagonal = relation.indices == np.repeat(rows, np.diff(relation.indptr))
    return sp.csr_array((relation.data[~diagonal],
                         relation.indices[~diagonal],
                         relation.indptr - np.arange(len(rows) + 1)),
                        shape=relation.shape)


def relation_graph(links: Sequence[Link],
                   relation: sp.csr_array) -> nx.Graph:
    """Materialize a relation as a graph, row by row, in canonical order.

    Nodes in sorted link order, then each row's upper-triangle edges in
    column order -- the insertion order of an i < j pairwise scan over the
    sorted link list, down to adjacency iteration order.
    """
    graph = nx.Graph()
    graph.add_nodes_from(links)
    indptr, indices = relation.indptr, relation.indices
    for i, link in enumerate(links):
        row = indices[indptr[i]:indptr[i + 1]]
        graph.add_edges_from((link, links[j]) for j in row[row > i].tolist())
    return graph


def protocol_reach(topology: MeshTopology, hops: int,
                   links: Sequence[Link]) -> sp.csr_array:
    """Reach ``M`` of the k-hop protocol model for sorted ``links``.

    ``M = E R`` with ``R = (I + A)^(hops - 1)`` the within-``hops - 1``
    node reach, nodes in sorted order.  Every protocol build --
    cold or delta, direct, through a
    :class:`~repro.phy.models.ProtocolModel` or an admission controller --
    passes through here, and so through the degenerate-hops guard.
    """
    num_nodes = topology.graph.number_of_nodes()
    reach = incidence(topology, links)
    step = adjacency(topology)
    for _ in range(hops - 1):
        reach = reach + reach @ step
    # A widened model (hops > 2) whose reach spans the whole mesh from
    # every link is degenerate: all links pairwise conflict, the schedule
    # serialises, and the caller almost certainly mistook ``hops`` for a
    # distance in metres.  hops <= 2 is exempt -- on tiny meshes the
    # 802.16-mandated default legitimately yields a complete conflict
    # graph.
    if hops > 2 and links and np.all(np.diff(reach.indptr) == num_nodes):
        raise ConfigurationError(
            f"hops={hops} reaches the whole {num_nodes}-node mesh "
            "from every link (hops >= network diameter): the "
            "conflict graph is complete and the schedule degenerates "
            "to one link per slot. Use a smaller hops value, or an "
            "SinrModel if you need wider-than-communication "
            "interference (see docs/interference.md)")
    return reach


def conflict_graph(topology: MeshTopology, hops: int = 2,
                   links: Iterable[Link] | None = None) -> nx.Graph:
    """Build the conflict graph for (a subset of) the topology's links.

    Parameters
    ----------
    topology:
        The mesh connectivity graph.
    hops:
        The ``k`` of the k-hop interference model (>= 1).  Two distinct
        links conflict iff some endpoint of one is within ``k - 1`` hops of
        some endpoint of the other.
    links:
        Restrict the conflict graph to these directed links (default: all
        links of the topology).  Scheduling only the links that carry
        demand keeps the ILP small.

    Returns
    -------
    networkx.Graph
        Vertices are directed :data:`~repro.net.topology.Link` tuples.
    """
    if hops < 1:
        raise ConfigurationError(f"interference model needs hops >= 1, got {hops}")
    link_list = checked_links(topology, links)
    return relation_graph(link_list, link_relation(
        topology, link_list, protocol_reach(topology, hops, link_list)))


def checked_links(topology: MeshTopology,
                  links: Iterable[Link] | None) -> list[Link]:
    """Sorted, de-duplicated ``links`` (default: all), each validated."""
    if links is None:
        return list(topology.links)
    link_list = sorted(set(links))
    for link in link_list:
        if not topology.has_link(link):
            raise ConfigurationError(f"{link} is not a link of the topology")
    return link_list


def conflicting_pairs(conflicts: nx.Graph) -> Iterator[tuple[Link, Link]]:
    """Iterate conflict-graph edges in a deterministic (sorted) order.

    The ILP builder relies on this ordering to index its binary variables
    consistently across runs.
    """
    return iter(sorted(tuple(sorted(edge)) for edge in conflicts.edges))


def conflict_degree(conflicts: nx.Graph) -> dict[Link, int]:
    """Number of conflicting neighbours per link (a scheduling-hardness proxy)."""
    return {link: conflicts.degree(link) for link in conflicts.nodes}


def max_conflict_clique_demand(conflicts: nx.Graph,
                               demands: dict[Link, int]) -> int:
    """A lower bound on frame slots: the heaviest known clique of conflicts.

    Enumerating maximum-weight cliques is exponential; this uses the cliques
    induced by each topology node (all links incident to one node mutually
    conflict under any k >= 1 model), which is cheap and usually tight on
    mesh topologies.
    """
    per_node: dict[int, int] = {}
    for link, demand in demands.items():
        if demand < 0:
            raise ConfigurationError(f"negative demand on {link}")
        for node in link:
            per_node[node] = per_node.get(node, 0) + demand
    return max(per_node.values(), default=0)
