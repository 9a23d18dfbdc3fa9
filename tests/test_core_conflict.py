"""Conflict-graph construction."""

import pytest

from repro import obs
from repro.analysis.scenarios import delay_constraints_for, make_voip_flows
from repro.core.conflict import (
    conflict_clique_demand,
    conflict_degree,
    conflict_graph,
    conflicting_pairs,
    max_conflict_clique_demand,
)
from repro.core.engine import SolverEngine
from repro.core.minslots import minimum_slots
from repro.errors import ConfigurationError
from repro.mesh16.frame import default_frame_config
from repro.net.topology import chain_topology, grid_topology, star_topology
from repro.sim.random import RngRegistry
from repro.traffic.voip import G729


class TestOneHopModel:
    def test_links_sharing_a_node_conflict(self, chain5):
        conflicts = conflict_graph(chain5, hops=1)
        assert conflicts.has_edge((0, 1), (1, 2))
        assert conflicts.has_edge((0, 1), (1, 0))  # reverse direction too

    def test_disjoint_links_do_not_conflict(self, chain5):
        conflicts = conflict_graph(chain5, hops=1)
        assert not conflicts.has_edge((0, 1), (2, 3))
        assert not conflicts.has_edge((0, 1), (3, 4))


class TestTwoHopModel:
    def test_adjacent_links_conflict(self, chain5):
        conflicts = conflict_graph(chain5, hops=2)
        assert conflicts.has_edge((0, 1), (1, 2))

    def test_one_hop_separated_links_conflict(self, chain5):
        # (0,1) and (2,3): node 1 and node 2 are neighbours
        conflicts = conflict_graph(chain5, hops=2)
        assert conflicts.has_edge((0, 1), (2, 3))

    def test_two_hop_separated_links_do_not_conflict(self, chain5):
        # (0,1) and (3,4): closest endpoints 1 and 3 are 2 hops apart
        conflicts = conflict_graph(chain5, hops=2)
        assert not conflicts.has_edge((0, 1), (3, 4))

    def test_star_is_a_clique(self):
        topo = star_topology(4)
        conflicts = conflict_graph(topo, hops=2)
        n = conflicts.number_of_nodes()
        assert conflicts.number_of_edges() == n * (n - 1) // 2


class TestGeneral:
    def test_default_covers_all_links(self, chain5):
        conflicts = conflict_graph(chain5)
        assert set(conflicts.nodes) == set(chain5.links)

    def test_restricted_link_set(self, chain5):
        links = [(0, 1), (1, 2)]
        conflicts = conflict_graph(chain5, hops=2, links=links)
        assert sorted(conflicts.nodes) == links

    def test_unknown_restricted_link_rejected(self, chain5):
        with pytest.raises(ConfigurationError):
            conflict_graph(chain5, links=[(0, 4)])

    def test_invalid_hops_rejected(self, chain5):
        with pytest.raises(ConfigurationError):
            conflict_graph(chain5, hops=0)

    def test_larger_hops_only_adds_conflicts(self, grid33):
        one = conflict_graph(grid33, hops=1)
        two = conflict_graph(grid33, hops=2)
        three = conflict_graph(grid33, hops=3)
        assert set(one.edges) <= set(two.edges) <= set(three.edges)

    def test_symmetric(self, grid33):
        conflicts = conflict_graph(grid33, hops=2)
        for a, b in conflicts.edges:
            assert conflicts.has_edge(b, a)

    def test_no_self_conflicts(self, grid33):
        conflicts = conflict_graph(grid33, hops=2)
        assert all(a != b for a, b in conflicts.edges)


def test_conflicting_pairs_deterministic(chain5):
    conflicts = conflict_graph(chain5, hops=2)
    pairs1 = list(conflicting_pairs(conflicts))
    pairs2 = list(conflicting_pairs(conflicts))
    assert pairs1 == pairs2
    assert pairs1 == sorted(pairs1)
    assert all(a < b for a, b in pairs1)


def test_conflict_degree(chain5):
    conflicts = conflict_graph(chain5, hops=2)
    degrees = conflict_degree(conflicts)
    # middle links conflict with more links than edge links
    assert degrees[(2, 3)] >= degrees[(0, 1)]


class TestCliqueDemandBound:
    def test_node_clique_sum(self, chain5):
        conflicts = conflict_graph(chain5, hops=2)
        demands = {(0, 1): 2, (1, 2): 3, (1, 0): 1}
        # node 1 touches all three links: 2 + 3 + 1
        assert max_conflict_clique_demand(conflicts, demands) == 6

    def test_empty_demands(self, chain5):
        conflicts = conflict_graph(chain5, hops=2)
        assert max_conflict_clique_demand(conflicts, {}) == 0

    def test_negative_demand_rejected(self, chain5):
        conflicts = conflict_graph(chain5, hops=2)
        with pytest.raises(ConfigurationError):
            max_conflict_clique_demand(conflicts, {(0, 1): -1})

    def test_bound_is_valid_lower_bound(self):
        # on a star, all links conflict, so min slots == total demand
        topo = star_topology(3)
        conflicts = conflict_graph(topo, hops=2)
        demands = {(0, 1): 1, (0, 2): 2, (0, 3): 1}
        assert max_conflict_clique_demand(conflicts, demands) == 4


class TestConflictCliqueDemand:
    # on a 2-hop chain (0,1), (1,2) and (2,3) pairwise conflict, but no
    # node touches more than two of them
    CHAIN = {(0, 1): 3, (1, 2): 3, (2, 3): 3}

    def test_grows_past_the_node_clique(self, chain5):
        conflicts = conflict_graph(chain5, hops=2)
        assert max_conflict_clique_demand(conflicts, self.CHAIN) == 6
        assert conflict_clique_demand(conflicts, self.CHAIN) == 9

    def test_only_demanded_links_join(self, chain5):
        conflicts = conflict_graph(chain5, hops=2)
        demands = {(0, 1): 3, (1, 2): 3, (2, 3): 0, (3, 2): 1}
        # (3, 2) conflicts with both; (2, 3) would too but carries nothing
        assert conflict_clique_demand(conflicts, demands) == 7

    def test_one_hop_model_is_the_node_bound(self, chain5):
        conflicts = conflict_graph(chain5, hops=1)
        assert conflict_clique_demand(conflicts, self.CHAIN) == 6

    def test_link_outside_the_index_does_not_grow(self, chain5):
        conflicts = conflict_graph(chain5, hops=2, links=[(1, 2), (2, 3)])
        # (0, 1) is not indexed: it conflicts with nothing the index knows
        assert conflict_clique_demand(conflicts, self.CHAIN) == 6

    def test_empty_and_negative_demands(self, chain5):
        conflicts = conflict_graph(chain5, hops=2)
        assert conflict_clique_demand(conflicts, {}) == 0
        assert conflict_clique_demand(conflicts, {(0, 1): 0}) == 0
        with pytest.raises(ConfigurationError):
            conflict_clique_demand(conflicts, {(0, 1): -1})

    def test_clique_over_the_frame_is_refused_without_a_solve(self, chain5):
        conflicts = SolverEngine().conflict_index(chain5, hops=2,
                                                  links=self.CHAIN)
        with obs.use_registry(obs.MetricsRegistry()) as registry:
            result = minimum_slots(conflicts, self.CHAIN, 8)
        assert result.slots is None
        assert result.probes == []
        assert result.lower_bound == 9 > 8
        assert "core.ilp.solves" not in registry.snapshot()["counters"]

    def test_e10_3x4_search_starts_at_the_optimum(self):
        # E10's largest row (seed 23): the node bound is 9, the optimum 12
        frame = default_frame_config()
        topology = grid_topology(3, 4)
        flows = make_voip_flows(topology, 6, RngRegistry(seed=23),
                                codec=G729, gateway=0, delay_budget_s=0.1)
        demands = flows.link_demands(frame.frame_duration_s,
                                     frame.data_slot_capacity_bits)
        engine = SolverEngine(warm_start=False, max_indexes=0,
                              max_problems=0)
        conflicts = engine.conflict_index(topology, hops=2,
                                          links=demands.keys())
        assert max_conflict_clique_demand(conflicts, demands) == 9
        with obs.use_registry(obs.MetricsRegistry()) as registry:
            result = minimum_slots(
                conflicts, demands, frame.data_slots,
                delay_constraints=delay_constraints_for(flows, frame),
                search="linear", engine=engine)
        assert result.probes == [(12, True)]
        assert result.lower_bound == 12
        assert registry.snapshot()["counters"]["core.ilp.solves"] == 1


class TestDegenerateHopsGuard:
    def test_whole_mesh_reach_is_rejected(self):
        # hops=4 reaches every node of a 5-chain from every link: the
        # conflict graph is complete and the schedule would serialise
        with pytest.raises(ConfigurationError, match="degenerates"):
            conflict_graph(chain_topology(5), hops=4)

    def test_error_points_at_the_sinr_alternative(self):
        with pytest.raises(ConfigurationError, match="SinrModel"):
            conflict_graph(chain_topology(4), hops=3)

    def test_two_hop_default_is_exempt_on_tiny_meshes(self):
        # on a 3-chain even hops=2 yields a complete conflict graph;
        # the 802.16-mandated default must never be rejected for it
        graph = conflict_graph(chain_topology(3), hops=2)
        assert graph.number_of_edges() > 0

    def test_wide_hops_on_a_long_chain_is_fine(self):
        # hops=3 on a 10-chain does not reach the whole mesh: accepted
        graph = conflict_graph(chain_topology(10), hops=3)
        assert graph.number_of_edges() > 0
