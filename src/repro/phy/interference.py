"""Cross-validation between conflict models and channel/SINR physics.

The scheduler's conflict graph (:mod:`repro.core.conflict`, or any
:class:`~repro.phy.models.InterferenceModel`) is an *abstraction* of the
channel: two links it declares non-conflicting must genuinely be unable
to corrupt each other's receptions.  This module is the **containment
validator** between backends -- it derives a ground-truth "can actually
interfere" relation and checks the abstraction against it:

- with no ``truth=``, the ground truth is the broadcast channel's exact
  collision rule (:func:`interference_graph`) -- the safety argument for
  running the 2-hop protocol model on this PHY (asserted by the test
  suite for every generator topology, interpreted by E11);
- with ``truth=`` an :class:`~repro.phy.models.SinrModel`, the ground
  truth is physical-model interference, and
  :func:`uncovered_interference` lists the hidden-node-style pairs the
  protocol abstraction misses (E23's headline column).

Under the channel's rules, simultaneous transmissions on directed links
``a = (ta, ra)`` and ``b = (tb, rb)`` damage at least one *intended*
reception iff any of:

- the links share a node (a radio cannot do two things at once);
- ``tb`` is a radio neighbour of ``ra`` (b's signal collides at a's
  receiver);
- ``ta`` is a radio neighbour of ``rb`` (symmetrically).
"""

from __future__ import annotations

from typing import Optional, Union

import networkx as nx
import scipy.sparse as sp

from repro.core.conflict import (
    ConflictIndex,
    adjacency,
    as_index,
    incidence,
    link_relation,
    relation_graph,
)
from repro.net.topology import Link, MeshTopology

ModelLike = Union[int, "InterferenceModel", None]  # noqa: F821


def interference_relation(topology: MeshTopology
                          ) -> tuple[list[Link], sp.csr_array]:
    """The exact link-interference relation as ``(sorted links, CSR)``.

    One call of the conflict kernel
    (:func:`~repro.core.conflict.link_relation`): the reach of a link is
    its receiver's radio neighbourhood ``S_rx A``, its senders its
    transmitter.
    """
    links = topology.links  # sorted directed links
    reach = incidence(topology, links, (1,)) @ adjacency(topology)
    return links, link_relation(topology, links, reach, (0,))


def interference_graph(topology: MeshTopology) -> nx.Graph:
    """The exact link-interference relation implied by the channel model.

    :func:`interference_relation`, materialized: vertex set, edge set and
    insertion order are identical to an i < j pairwise scan's.
    """
    return relation_graph(*interference_relation(topology))


def _model_index(topology: MeshTopology, hops: int,
                 model: ModelLike) -> ConflictIndex:
    """The abstraction under test: k-hop by default, or any model."""
    from repro.phy.models import coerce_interference

    return ConflictIndex(*coerce_interference(
        model, default_hops=hops).relation(topology))


def _truth_index(topology: MeshTopology,
                 truth: Optional[object]) -> ConflictIndex:
    """The ground-truth relation: channel-exact, a model, or a graph."""
    if truth is None:
        return ConflictIndex(*interference_relation(topology))
    if isinstance(truth, (nx.Graph, ConflictIndex)):
        return as_index(truth)
    return _model_index(topology, 2, truth)


def uncovered_interference(topology: MeshTopology, hops: int = 2,
                           model: ModelLike = None,
                           truth: Optional[object] = None
                           ) -> list[tuple[Link, Link]]:
    """Interfering link pairs the abstraction fails to separate.

    An empty list certifies that every schedule conflict-free under the
    abstraction (``hops``, or ``model=``) is collision-free under the
    ground truth (the channel rule, or ``truth=`` -- an
    :class:`~repro.phy.models.InterferenceModel`, a bare hops int, or a
    prebuilt conflict index or graph).  The 1-hop model typically leaves pairs
    uncovered (hidden-terminal style); the 2-hop model covers the
    channel rule on every generator topology -- but *not* necessarily an
    SINR ground truth, whose interference reaches past two hops: those
    uncovered pairs are exactly what E23 measures.
    """
    physical = _truth_index(topology, truth)
    abstraction = _model_index(topology, hops, model)
    return [pair for pair in physical.pairs()
            if not abstraction.has_edge(*pair)]


def overcautious_pairs(topology: MeshTopology, hops: int = 2,
                       model: ModelLike = None,
                       truth: Optional[object] = None
                       ) -> list[tuple[Link, Link]]:
    """Pairs the abstraction separates although the truth never corrupts.

    This is the price of the abstraction: lost spatial reuse.  E11's
    1-hop vs 2-hop comparison quantifies it in slots; under an SINR
    truth it shows where the protocol model is *conservative* rather
    than unsafe.
    """
    physical = _truth_index(topology, truth)
    abstraction = _model_index(topology, hops, model)
    return [pair for pair in abstraction.pairs()
            if not physical.has_edge(*pair)]
