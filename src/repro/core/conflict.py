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
matrix.  The solver stack runs on the result as a :class:`ConflictIndex`
(sorted links plus CSR); :func:`as_index` converts a caller-built graph,
and :func:`relation_graph` materializes a graph only when one is asked
for.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator, Mapping, Optional, Sequence

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


def relation_graph(links: Sequence[Link], relation) -> nx.Graph:
    """Materialize a CSR relation as a graph, row by row, in canonical order.

    ``relation`` is anything with CSR ``indptr`` / ``indices`` over
    ``links`` (a :mod:`scipy.sparse` array or a :class:`ConflictIndex`).

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


def protocol_relation(topology: MeshTopology, hops: int = 2,
                      links: Iterable[Link] | None = None
                      ) -> tuple[list[Link], sp.csr_array]:
    """The k-hop protocol relation as ``(sorted links, CSR)``: what
    :func:`conflict_graph` materializes and the engine indexes."""
    if hops < 1:
        raise ConfigurationError(f"interference model needs hops >= 1, got {hops}")
    link_list = checked_links(topology, links)
    return link_list, link_relation(
        topology, link_list, protocol_reach(topology, hops, link_list))


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
    return relation_graph(*protocol_relation(topology, hops, links))


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


class ConflictIndex:
    """The conflict relation: sorted links plus the kernel's CSR.

    The one representation the solver stack runs on: :attr:`links` in
    canonical (sorted) order and :attr:`indptr` / :attr:`indices`
    (int64, rows sorted, no diagonal), the symmetric relation exactly as
    :func:`link_relation` returns it.  :attr:`graph` is an export format,
    built on first access.

    ``key`` names the index in engine caches (default: its content
    :meth:`fingerprint`); ``hops`` is the protocol-model distance, or
    ``None`` for any other relation.  Protocol indexes built by
    :meth:`~repro.core.engine.SolverEngine.conflict_index` also carry the
    topology snapshot (:attr:`topo_nodes` / :attr:`topo_edges`) a delta
    update diffs against.  Treat instances as frozen: engines share them.
    """

    __slots__ = ("key", "hops", "links", "indptr", "indices", "_positions",
                 "_graph", "_fingerprint", "topo_nodes", "topo_edges")

    def __init__(self, links: Sequence[Link], relation: sp.csr_array,
                 key: Optional[str] = None, hops: Optional[int] = None,
                 topo_nodes: Optional[frozenset[int]] = None,
                 topo_edges: Optional[frozenset[tuple[int, int]]] = None
                 ) -> None:
        self.links: tuple[Link, ...] = tuple(links)
        self.indptr = np.asarray(relation.indptr, dtype=np.int64)
        self.indices = np.asarray(relation.indices, dtype=np.int64)
        self.hops = hops
        self.topo_nodes = topo_nodes
        self.topo_edges = topo_edges
        self._positions = {link: i for i, link in enumerate(self.links)}
        self._graph: Optional[nx.Graph] = None
        self._fingerprint: Optional[str] = None
        self.key = f"adhoc/{self.fingerprint()}" if key is None else key

    @property
    def graph(self) -> nx.Graph:
        """The relation as a graph (:func:`relation_graph`), built once."""
        if self._graph is None:
            self._graph = relation_graph(self.links, self)
        return self._graph

    def fingerprint(self) -> str:
        """Content hash of the links and the relation."""
        if self._fingerprint is None:
            digest = hashlib.sha256(repr(self.links).encode())
            digest.update(self.indptr.tobytes())
            digest.update(self.indices.tobytes())
            self._fingerprint = digest.hexdigest()[:16]
        return self._fingerprint

    @property
    def num_links(self) -> int:
        return len(self.links)

    @property
    def num_conflicts(self) -> int:
        return int(self.indices.size // 2)

    def __contains__(self, link: object) -> bool:
        return link in self._positions

    def position(self, link: Link) -> int:
        """Stable index of ``link`` in the canonical :attr:`links` order."""
        try:
            return self._positions[link]
        except KeyError:
            raise ConfigurationError(
                f"{link} is not a vertex of this conflict index") from None

    def _row(self, i: int) -> np.ndarray:
        return self.indices[self.indptr[i]:self.indptr[i + 1]]

    def neighbors(self, link: Link) -> tuple[Link, ...]:
        """Links conflicting with ``link``, in canonical order."""
        links = self.links
        return tuple(links[j] for j in self._row(self.position(link)).tolist())

    def degree(self, link: Link) -> int:
        return len(self._row(self.position(link)))

    def has_edge(self, a: Link, b: Link) -> bool:
        """True iff ``a`` and ``b`` are indexed and conflict."""
        i, j = self._positions.get(a), self._positions.get(b)
        return i is not None and j is not None and bool(j in self._row(i))

    def upper(self) -> tuple[np.ndarray, np.ndarray]:
        """Row and column positions of the upper triangle, row-major:
        every conflicting pair once, in sorted order."""
        rows = np.repeat(np.arange(len(self.links)), np.diff(self.indptr))
        keep = self.indices > rows
        return rows[keep], self.indices[keep]

    def pairs(self, members: Optional[Iterable[Link]] = None
              ) -> list[tuple[Link, Link]]:
        """Conflicting pairs ``(a, b)``, ``a < b``, in sorted order.

        The :meth:`upper` triangle, restricted to pairs with both links
        among ``members`` when given (links the index lacks are ignored).
        """
        rows, cols = self.upper()
        if members is not None:
            mask = np.zeros(len(self.links), dtype=bool)
            mask[[self._positions[link] for link in members
                  if link in self._positions]] = True
            keep = mask[rows] & mask[cols]
            rows, cols = rows[keep], cols[keep]
        links = self.links
        return [(links[i], links[j])
                for i, j in zip(rows.tolist(), cols.tolist())]

    def clique_demand_bound(self, demands: Mapping[Link, int]) -> int:
        """The per-node demand sum (:func:`max_conflict_clique_demand`).

        Reads only the demands, never the relation; the probe search
        starts from the stronger :func:`conflict_clique_demand`.
        """
        return max_conflict_clique_demand(self, demands)


def as_index(conflicts: ConflictIndex | nx.Graph) -> ConflictIndex:
    """The :class:`ConflictIndex` of ``conflicts``.

    An index passes through untouched, keeping its engine cache lineage;
    a caller-built :class:`networkx.Graph` is converted once (nodes
    sorted, its adjacency read into CSR), keyed by its content.  Every
    consumer coerces here at entry and then runs on the CSR.
    """
    if isinstance(conflicts, ConflictIndex):
        return conflicts
    links = sorted(conflicts.nodes)
    positions = {link: i for i, link in enumerate(links)}
    adj = conflicts.adj
    degrees = np.fromiter((len(adj[link]) for link in links),
                          dtype=np.int64, count=len(links))
    cols = np.fromiter((positions[other] for link in links
                        for other in adj[link]),
                       dtype=np.int64, count=int(degrees.sum()))
    # (data, (row, col)) construction sorts each row
    return ConflictIndex(links, sp.csr_array(
        (np.ones(cols.size, dtype=bool),
         (np.repeat(np.arange(len(links)), degrees), cols)),
        shape=(len(links), len(links))))


def conflicting_pairs(conflicts: ConflictIndex | nx.Graph
                      ) -> Iterator[tuple[Link, Link]]:
    """Iterate conflicting link pairs in a deterministic (sorted) order.

    The ILP builder relies on this ordering to index its binary variables
    consistently across runs.
    """
    return iter(as_index(conflicts).pairs())


def conflict_degree(conflicts: ConflictIndex | nx.Graph) -> dict[Link, int]:
    """Number of conflicting neighbours per link (a scheduling-hardness proxy)."""
    index = as_index(conflicts)
    return dict(zip(index.links, np.diff(index.indptr).tolist()))


def max_conflict_clique_demand(conflicts: ConflictIndex | nx.Graph,
                               demands: Mapping[Link, int]) -> int:
    """A lower bound on frame slots: the largest per-node demand sum.

    Reads only the demands, never ``conflicts``: the links incident to one
    node share a radio, so they pairwise conflict in every relation the
    kernel builds (its ``E E^T`` term) and form a clique whose demands
    must occupy disjoint slots.  :func:`conflict_clique_demand` grows
    these cliques on the relation itself.
    """
    per_node: dict[int, int] = {}
    for link, demand in demands.items():
        if demand < 0:
            raise ConfigurationError(f"negative demand on {link}")
        for node in link:
            per_node[node] = per_node.get(node, 0) + demand
    return max(per_node.values(), default=0)


def conflict_clique_demand(conflicts: ConflictIndex | nx.Graph,
                           demands: Mapping[Link, int]) -> int:
    """A lower bound on frame slots: a demand-weighted clique of the relation.

    Links in a clique pairwise conflict, so their blocks are disjoint
    inside any conflict-free region, which therefore spans at least the
    clique's total demand.  One clique is grown per topology node over
    the links with positive demand: seeded with the node's incident links
    (the :func:`max_conflict_clique_demand` clique, so this bound is at
    least that one), then extended greedily on the CSR -- the candidates
    are the links conflicting with every member (sorted rows intersected),
    and the heaviest joins, ties to the lowest canonical position, until
    none is left.  Returns the heaviest clique's demand (0 when nothing is
    demanded).  A demanded link outside ``conflicts`` conflicts with
    nothing, so a clique holding it does not grow.
    """
    index = as_index(conflicts)
    indptr, indices = index.indptr, index.indices
    weight = np.zeros(index.num_links, dtype=np.int64)
    seed_demand: dict[int, int] = {}
    seed_rows: dict[int, list[np.ndarray]] = {}
    for link, demand in demands.items():
        if demand < 0:
            raise ConfigurationError(f"negative demand on {link}")
        if demand == 0:
            continue
        position = index._positions.get(link)
        if position is None:
            row = indices[:0]
        else:
            row = indices[indptr[position]:indptr[position + 1]]
            weight[position] = demand
        for node in link:
            seed_demand[node] = seed_demand.get(node, 0) + demand
            seed_rows.setdefault(node, []).append(row)
    best = 0
    for node, rows in seed_rows.items():
        # links in every member's row: one count over the rows' union
        union, counts = np.unique(np.concatenate(rows), return_counts=True)
        candidates = union[counts == len(rows)]
        candidates = candidates[weight[candidates] > 0]
        total = seed_demand[node]
        while candidates.size:
            pick = candidates[np.argmax(weight[candidates])]
            total += int(weight[pick])
            candidates = np.intersect1d(
                candidates, indices[indptr[pick]:indptr[pick + 1]],
                assume_unique=True)
        best = max(best, total)
    return best
