"""Property-based tests: warm-started SolverEngine equivalence.

The engine's load-bearing contract (ISSUE 5): a warm engine -- carried
orders, Bellman-Ford probe certification, problem caching -- must return
*bitwise-identical* results to a cold one.  Same minimum slots, same
probe log (regions and verdicts in order), same schedule table, on
arbitrary small meshes; and repeated searches through one engine must
not contaminate each other.

The representation contract: every consumer returns identical results
on a conflict graph and on ``as_index(graph)``, whatever order the
graph's nodes and edges were inserted in.
"""

from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import milp

from repro.core.conflict import (
    as_index,
    conflict_clique_demand,
    conflict_graph,
    conflicting_pairs,
    max_conflict_clique_demand,
)
from repro.core.engine import SolverEngine, canonical_problem_key
from repro.core.greedy import greedy_schedule
from repro.core.ilp import SchedulingProblem, solve_schedule_ilp
from repro.core.minslots import minimum_slots
from repro.core.ordering import TransmissionOrder, schedule_from_order
from repro.core.schedule import Schedule, SlotBlock
from repro.errors import InfeasibleScheduleError, SolverError
from repro.mesh16.frame import default_frame_config
from repro.net.flows import Flow, FlowSet
from repro.net.routing import route_all
from repro.net.topology import random_disk_topology

FRAME = default_frame_config()


@st.composite
def scheduling_instances(draw):
    """A small random-disk mesh plus 1-3 routed gateway flows."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    num_nodes = draw(st.integers(min_value=3, max_value=6))
    topology = random_disk_topology(num_nodes, radio_range=45.0,
                                   area=80.0, seed=seed)
    others = [n for n in topology.nodes if n != 0]
    srcs = draw(st.lists(st.sampled_from(others), min_size=1, max_size=3,
                         unique=True))
    flows = route_all(topology, FlowSet([
        Flow(f"f{i}", src=s, dst=0, rate_bps=64_000, delay_budget_s=0.2)
        for i, s in enumerate(srcs)]))
    search = draw(st.sampled_from(["linear", "binary"]))
    return topology, flows, search


def _solve(topology, flows, search, engine, warm_order=None):
    from repro.analysis.scenarios import delay_constraints_for

    demands = flows.link_demands(FRAME.frame_duration_s,
                                 FRAME.data_slot_capacity_bits)
    conflicts = engine.conflict_index(topology, hops=2,
                                      links=sorted(demands)).graph
    return minimum_slots(conflicts, demands, FRAME.data_slots,
                         delay_constraints=delay_constraints_for(
                             flows, FRAME),
                         search=search, engine=engine,
                         warm_order=warm_order)


def _assert_identical(warm, cold):
    assert warm.slots == cold.slots
    assert warm.probes == cold.probes
    assert warm.lower_bound == cold.lower_bound
    if cold.schedule is None:
        assert warm.schedule is None
    else:
        assert warm.schedule.to_dict() == cold.schedule.to_dict()


@given(scheduling_instances())
@settings(max_examples=15, deadline=None)
def test_warm_engine_is_bitwise_identical_to_cold(instance):
    topology, flows, search = instance
    cold = _solve(topology, flows, search,
                  SolverEngine(warm_start=False, max_indexes=0,
                               max_problems=0))
    warm = _solve(topology, flows, search, SolverEngine())
    _assert_identical(warm, cold)


@given(scheduling_instances())
@settings(max_examples=15, deadline=None)
def test_warm_order_seeding_preserves_results(instance):
    """A caller-supplied warm order changes work done, never answers.

    Seeds the search with the linear winner's order (the repair / E10
    reuse pattern): every certified probe must report the verdict the
    cold ILP would have, and the final result must match exactly.
    """
    topology, flows, search = instance
    cold_engine = SolverEngine(warm_start=False, max_indexes=0,
                               max_problems=0)
    cold = _solve(topology, flows, search, cold_engine)
    seed_search = _solve(topology, flows, "linear", SolverEngine())
    warm_engine = SolverEngine()
    warm = _solve(topology, flows, search, warm_engine,
                  warm_order=seed_search.order)
    _assert_identical(warm, cold)
    if seed_search.order is not None and search == "binary":
        # the seeded search never pays more ILP solves than the cold one
        assert warm_engine.stats["ilp_probes"] <= len(cold.probes)


@given(scheduling_instances())
@settings(max_examples=10, deadline=None)
def test_engine_reuse_across_searches_is_isolated(instance):
    """Back-to-back searches through one engine stay bitwise-correct."""
    topology, flows, search = instance
    shared = SolverEngine()
    first = _solve(topology, flows, search, shared)
    second = _solve(topology, flows, search, shared)
    _assert_identical(second, first)
    if first.schedule is not None:
        # cache hits hand out independent copies, never aliases
        assert second.schedule is not first.schedule
        assert second.ilp.order is not first.ilp.order


# -- the representation contract: graph == as_index(graph) -----------------


def _scrambled(graph, rng):
    """The same graph, nodes and edges inserted in a shuffled order."""
    nodes = list(graph.nodes)
    edges = [(b, a) if rng.random() < 0.5 else (a, b)
             for a, b in graph.edges]
    scrambled = nx.Graph()
    scrambled.add_nodes_from(nodes[i] for i in rng.permutation(len(nodes)))
    scrambled.add_edges_from(edges[i] for i in rng.permutation(len(edges)))
    return scrambled


def conflict_instance(seed, disk_nodes=None, hops=2):
    """A conflict graph plus demands: of a ``disk_nodes``-node random disk
    at ``hops``, or hand-built (``disk_nodes=None``), all from ``seed``."""
    rng = np.random.default_rng(seed)
    if disk_nodes is not None:
        topology = random_disk_topology(disk_nodes, radio_range=45.0,
                                        area=80.0, seed=seed)
        graph = conflict_graph(topology, hops=hops)
    else:
        links = sorted({(int(a), int(b))
                        for a, b in rng.integers(0, 6, size=(9, 2))
                        if a != b})
        graph = nx.Graph()
        graph.add_nodes_from(links)
        graph.add_edges_from(
            (a, b) for i, a in enumerate(links) for b in links[i + 1:]
            if rng.random() < 0.4)
    links = sorted(graph.nodes)
    demands = {link: int(rng.integers(0, 3)) for link in links}
    return _scrambled(graph, rng), demands, rng


@st.composite
def conflict_instances(draw):
    """A conflict graph (of a random disk, or hand-built) plus demands."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    if draw(st.booleans()):
        return conflict_instance(
            seed, draw(st.integers(min_value=3, max_value=7)),
            draw(st.sampled_from([1, 2])))
    return conflict_instance(seed)


def _same_schedule(a, b):
    assert a.frame_slots == b.frame_slots
    assert a.to_dict() == b.to_dict()


@given(conflict_instances())
@settings(max_examples=30, deadline=None)
def test_graph_and_index_agree_on_every_consumer(instance):
    graph, demands, rng = instance
    index = as_index(graph)
    forms = (graph, index, _scrambled(graph, rng))

    # the upper-triangle reader is the sorted edge list
    assert list(conflicting_pairs(graph)) == sorted(
        tuple(sorted(edge)) for edge in graph.edges)

    # S8: a random (overlapping) slot assignment
    frame = 6
    schedule = Schedule(frame, {
        link: SlotBlock(int(rng.integers(0, frame - 1)), 1)
        for link in index.links if rng.random() < 0.8})
    expected = sorted(tuple(sorted((a, b))) for a, b in graph.edges
                      if a in schedule and b in schedule
                      and schedule.block(a).overlaps(schedule.block(b)))
    for form in forms:
        assert schedule.violations(form) == expected

    # Bellman-Ford recovery, earliest and latest, and its failure mode
    ranking = [index.links[i] for i in rng.permutation(index.num_links)]
    order = TransmissionOrder.from_ranking(ranking)
    budget = sum(demands.values()) + 1
    for earliest in (True, False):
        results = [schedule_from_order(form, demands, budget, order,
                                       earliest=earliest) for form in forms]
        for other in results[1:]:
            _same_schedule(results[0], other)
    tight = max(1, max(demands.values(), default=1))
    errors = []
    for form in forms:
        try:
            errors.append(schedule_from_order(form, demands, tight,
                                              order).to_dict())
        except InfeasibleScheduleError as exc:
            errors.append(str(exc))
    assert errors[1:] == errors[:-1]

    # greedy packing under every strategy
    for strategy in ("demand", "index", "random"):
        packed = [greedy_schedule(form, demands, strategy=strategy,
                                  rng=np.random.default_rng(7))
                  for form in forms]
        for other in packed[1:]:
            _same_schedule(packed[0], other)

    # problem keys
    keys = {canonical_problem_key(SchedulingProblem(form, demands, budget))
            for form in forms}
    assert len(keys) == 1


def _with_shared_radios(graph):
    """``graph`` plus a conflict between every two links sharing a node:
    the ``E E^T`` part of every kernel-built relation, on which the node
    seeds of both clique bounds rest."""
    shared = graph.copy()
    links = sorted(graph.nodes)
    shared.add_edges_from((a, b) for i, a in enumerate(links)
                          for b in links[i + 1:] if set(a) & set(b))
    return shared


@given(conflict_instances())
@settings(max_examples=40, deadline=None)
def test_clique_bound_sits_between_the_node_bound_and_greedy(instance):
    graph, demands, rng = instance
    forms = (graph, as_index(graph), _scrambled(graph, rng))
    bounds = [conflict_clique_demand(form, demands) for form in forms]
    assert bounds[1:] == bounds[:-1]
    assert bounds[0] >= max_conflict_clique_demand(graph, demands)
    # a valid lower bound wherever links sharing a radio conflict
    shared = _with_shared_radios(graph)
    assert (conflict_clique_demand(shared, demands)
            <= greedy_schedule(shared, demands).frame_slots)


#: Branch-and-cut node budget per ILP solve.  Deterministic, so the three
#: forms of one instance reach the same verdict; bounded, so a hard draw
#: ends undecided in well under a second instead of running for minutes.
ILP_NODE_LIMIT = 200


def _budgeted_solve(problem):
    """``(result, or None when undecided; formulation sizes sent to HiGHS)``."""
    sizes = []

    def spy(**kwargs):
        sizes.append((len(kwargs["integrality"]),
                      sum(c.A.shape[0] for c in kwargs["constraints"])))
        return milp(**kwargs)

    with mock.patch("repro.core.ilp.milp", spy):
        try:
            return solve_schedule_ilp(problem,
                                      node_limit=ILP_NODE_LIMIT), sizes
        except SolverError:
            return None, sizes


@given(conflict_instances())
# decided under the budget on every hypothesis seed
@example(conflict_instance(4, 5, hops=1))    # feasible, 85 variables
@example(conflict_instance(35, 5, hops=1))   # feasible, 66 variables
@example(conflict_instance(1, 7))            # infeasible, 77 variables
@example(conflict_instance(16))              # hand-built, feasible
@example(conflict_instance(49))              # hand-built, infeasible
@settings(max_examples=10, deadline=None)
def test_graph_and_index_agree_on_the_ilp(instance):
    graph, demands, rng = instance
    forms = (graph, as_index(graph), _scrambled(graph, rng))
    total = sum(demands.values())
    solved = [_budgeted_solve(SchedulingProblem(
        form, demands, total + 2, region_slots=max(2, total // 2)))
        for form in forms]
    first, first_sizes = solved[0]
    for other, sizes in solved[1:]:
        # one formulation, decided or not
        assert sizes == first_sizes
        assert (other is None) == (first is None)
        if first is None:
            continue
        assert other.feasible == first.feasible
        assert (other.num_variables, other.num_constraints) == (
            first.num_variables, first.num_constraints)
        if first.feasible:
            _same_schedule(first.schedule, other.schedule)
            pairs = list(conflicting_pairs(graph))
            assert ([first.order.precedes(a, b) for a, b in pairs
                     if first.order.knows(a, b)]
                    == [other.order.precedes(a, b) for a, b in pairs
                        if other.order.knows(a, b)])


def test_engine_index_and_its_graph_share_a_problem_key():
    topology = random_disk_topology(6, radio_range=45.0, area=80.0, seed=4)
    index = SolverEngine().conflict_index(topology)
    demands = {link: 1 for link in index.links}
    assert (canonical_problem_key(SchedulingProblem(index, demands, 9))
            == canonical_problem_key(SchedulingProblem(index.graph,
                                                       demands, 9)))
    with pytest.raises(InfeasibleScheduleError):
        schedule_from_order(index.graph, demands, 1,
                            TransmissionOrder.from_ranking(index.links))
