"""Microbenchmarks of the scheduling primitives (multi-round timing).

Unlike the experiment benches (one-shot table generation), these use
pytest-benchmark's statistical timing to track the cost of the hot
primitives a deployment would re-run online: conflict-graph construction,
Bellman-Ford schedule recovery, greedy packing, S8 validation, the probe
search's clique bound, feasibility ILPs and the delay computation.
"""

import functools
import math

import pytest

from repro.core.conflict import (
    conflict_clique_demand,
    conflict_graph,
    max_conflict_clique_demand,
)
from repro.core.delay import path_delay_slots
from repro.core.engine import SolverEngine
from repro.core.greedy import greedy_schedule
from repro.core.ilp import SchedulingProblem, solve_schedule_ilp
from repro.core.ordering import schedule_from_order
from repro.core.tree_order import min_delay_tree_order
from repro.net.routing import gateway_tree
from repro.net.topology import grid_topology, random_disk_topology
from repro.phy.interference import interference_graph
from repro.phy.models import SinrModel

TOPOLOGY = grid_topology(4, 4)
DEMANDS = {link: 1 for link in TOPOLOGY.links}
CONFLICTS = conflict_graph(TOPOLOGY, hops=2)
TREE = gateway_tree(TOPOLOGY, 0)
ORDER = min_delay_tree_order(TREE, 0)
TREE_DEMANDS = {link: 1 for link in ORDER.links()}
FRAME = 2 * len(TREE_DEMANDS)
SCHEDULE = schedule_from_order(CONFLICTS, TREE_DEMANDS, FRAME, ORDER)
ROUTE = tuple((i, i + 1) for i in (0, 1, 2))  # 0-1-2-3 along the top row


def test_bench_micro_conflict_graph(benchmark):
    graph = benchmark(conflict_graph, TOPOLOGY, 2)
    assert graph.number_of_nodes() == TOPOLOGY.num_links()


def constant_density_disk(num_nodes):
    """n nodes on a 100 sqrt(n) m square at 180 m range (~9 neighbours):
    870 / 1850 / 2736 / 5688 links at n = 100 / 200 / 300 / 600."""
    return random_disk_topology(num_nodes, radio_range=180.0,
                                area=100.0 * math.sqrt(num_nodes), seed=0)


@pytest.mark.parametrize("num_nodes", [100, 300, 600])
def test_bench_micro_conflict_index_scaling(benchmark, num_nodes):
    # cold full-mesh index: the sparse kernel's CSR, no graph
    topology = constant_density_disk(num_nodes)
    index = benchmark.pedantic(
        lambda: SolverEngine().conflict_index(topology),
        rounds=3, iterations=1)
    assert index.num_links == topology.num_links()


@functools.lru_cache(maxsize=None)
def full_mesh(num_nodes):
    """The full-mesh index of a constant-density disk, its graph and the
    unit-demand greedy schedule over every link."""
    index = SolverEngine().conflict_index(constant_density_disk(num_nodes))
    demands = {link: 1 for link in index.links}
    return index, demands, greedy_schedule(index, demands)


@pytest.mark.parametrize("form", ["index", "graph"])
@pytest.mark.parametrize("num_nodes", [100, 300, 600])
def test_bench_micro_s8_violations_scaling(benchmark, num_nodes, form):
    # S8 audit of a full-mesh schedule; the graph form adds the
    # graph -> CSR coercion (as_index) to every call
    index, _, schedule = full_mesh(num_nodes)
    conflicts = index if form == "index" else index.graph
    violations = benchmark.pedantic(schedule.violations, args=(conflicts,),
                                    rounds=3, iterations=1)
    assert violations == []


@pytest.mark.parametrize("form", ["index", "graph"])
@pytest.mark.parametrize("num_nodes", [100, 300, 600])
def test_bench_micro_greedy_scaling(benchmark, num_nodes, form):
    # first-fit packing of every link of the full mesh
    index, demands, expected = full_mesh(num_nodes)
    conflicts = index if form == "index" else index.graph
    schedule = benchmark.pedantic(greedy_schedule, args=(conflicts, demands),
                                  rounds=3, iterations=1)
    assert schedule.to_dict() == expected.to_dict()


@pytest.mark.parametrize("num_nodes", [100, 300, 600])
def test_bench_micro_clique_bound_scaling(benchmark, num_nodes):
    # the probe search's starting bound with every full-mesh link demanded
    index, demands, _ = full_mesh(num_nodes)
    bound = benchmark.pedantic(conflict_clique_demand,
                               args=(index, demands), rounds=3, iterations=1)
    assert bound >= max_conflict_clique_demand(index, demands)


@pytest.mark.parametrize("num_nodes", [100, 200])
def test_bench_micro_sinr_conflict_graph(benchmark, num_nodes):
    # thresholded SINR matrix through the same kernel, ~870 / 1.8k links
    topology = constant_density_disk(num_nodes)
    model = SinrModel()
    graph = benchmark.pedantic(model.conflict_graph, args=(topology,),
                               rounds=3, iterations=1)
    assert graph.number_of_nodes() == topology.num_links()


def test_bench_micro_interference_graph(benchmark):
    # One kernel call: work scales with actual interference edges, not
    # with all O(L^2) link pairs (see repro.phy.interference).
    graph = benchmark(interference_graph, TOPOLOGY)
    assert graph.number_of_nodes() == TOPOLOGY.num_links()
    assert graph.number_of_edges() > 0


def test_bench_micro_bellman_ford_recovery(benchmark):
    schedule = benchmark(schedule_from_order, CONFLICTS, TREE_DEMANDS,
                         FRAME, ORDER)
    assert len(schedule) == len(TREE_DEMANDS)


def test_bench_micro_greedy_packing(benchmark):
    schedule = benchmark(greedy_schedule, CONFLICTS, DEMANDS)
    assert schedule.demands_met(DEMANDS)


def test_bench_micro_feasibility_ilp(benchmark):
    problem = SchedulingProblem(CONFLICTS, TREE_DEMANDS, FRAME)

    result = benchmark(solve_schedule_ilp, problem)
    assert result.feasible


def test_bench_micro_path_delay(benchmark):
    route = [(0, 1), (1, 2), (2, 3)]
    delay = benchmark(path_delay_slots, SCHEDULE, route)
    assert delay > 0


def test_bench_micro_tree_order(benchmark):
    order = benchmark(min_delay_tree_order, TREE, 0)
    assert len(order.links()) == 2 * TREE.number_of_edges()
