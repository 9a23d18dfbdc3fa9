"""The four benchmark workloads: seeded inputs, one timed op, output checks.

Every workload is a closed loop with one client: op ``i + 1`` starts when
op ``i`` returns, because each caller (a planner, a mesh controller, an
experimenter) waits for its answer.  Inputs come from generators in this
file, seeded by ``--seed``; the program only ever sees the generated
topologies, flows and fault streams.

A workload object is driven by ``run.py``:

* :meth:`Workload.setup` builds every input of the run (and warms lazy
  imports); it may be called several times, each call starting afresh;
* :meth:`Workload.run_op` is the timed unit;
* :meth:`Workload.check` validates one op's output, untimed, and folds it
  into the deterministic outputs;
* :meth:`Workload.finish` runs the once-per-run checks, untimed.
"""

from __future__ import annotations

import math

import networkx as nx
import numpy as np

from repro import SolverEngine, SolverPolicy
from repro.analysis import scenarios
from repro.api import Scenario
from repro.core.delay import path_delay_slots
from repro.core.repair import RepairEngine
from repro.faults.events import FaultEvent
from repro.faults.injector import FaultInjector
from repro.mesh16.frame import MeshFrameConfig, default_frame_config
from repro.mobility import (
    RadioRangeModel,
    RandomWaypointModel,
    TopologyStream,
    run_mobility,
)
from repro.net import routing
from repro.net.flows import Flow, FlowSet
from repro.net.topology import MeshTopology, chain_topology, grid_topology
from repro.phy.models import SinrModel
from repro.traffic.voip import G711, G729

#: the paper's meshes; node 0 is the gateway of each
PAPER_MESHES = (
    ("chain6", lambda: chain_topology(6)),
    ("grid3x3", lambda: grid_topology(3, 3)),
    ("grid3x4", lambda: grid_topology(3, 4)),
    ("grid4x4", lambda: grid_topology(4, 4)),
)
GATEWAY = 0
#: per-probe branch-and-cut node budget: deterministic verdicts, bounded tail
NODE_LIMIT = 200


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(map(ord, workload))])


def _gateway_calls(topology: MeshTopology, num_calls: int, codec,
                   rng: np.random.Generator,
                   delay_budget_s: float = 0.1) -> list[Flow]:
    """``num_calls`` gateway-bound VoIP calls spread over the hop rings.

    Call ``k`` ends at a node drawn from hop ring ``k mod depth`` (rings
    1, 2, ... in turn) and alternates downlink / uplink, so a request's
    route lengths are fixed by its size and the seed only picks nodes.
    """
    rings: dict[int, list[int]] = {}
    for node in topology.nodes:
        if node != GATEWAY:
            rings.setdefault(topology.hop_distance(GATEWAY, node),
                             []).append(node)
    depths = sorted(rings)
    calls = []
    for k in range(num_calls):
        ring = rings[depths[k % len(depths)]]
        other = int(ring[int(rng.integers(len(ring)))])
        src, dst = (GATEWAY, other) if k % 2 == 0 else (other, GATEWAY)
        calls.append(Flow(f"voip{k}", src=src, dst=dst,
                          rate_bps=codec.wire_rate_bps,
                          delay_budget_s=delay_budget_s))
    return calls


class Workload:
    """Base class: per-run counters every workload shares."""

    name = ""
    #: the timed unit, in one sentence
    op = ""
    #: ops per second of ``--seconds``: sized so the op phase takes about
    #: ``--seconds`` on a 2-core x86 machine
    ops_per_second = 1.0

    def __init__(self, seed: int, seconds: int) -> None:
        self.seed = seed
        self.seconds = seconds
        self.num_ops = max(1, round(seconds * self.ops_per_second))
        #: SolverEngine.stats of every engine the op phase used
        self.engine_stats: list[dict] = []

    def outputs(self) -> dict:
        """Deterministic outputs of the op phase (name -> count)."""
        return {}

    def finish(self) -> list[tuple]:
        """Once-per-run checks: ``(op, message)`` per failing op."""
        return []


# ---------------------------------------------------------------------------
# plan: one-shot planning requests on the paper's meshes (the ILP path)
# ---------------------------------------------------------------------------

class PlanWorkload(Workload):
    name = "plan"
    op = ("Scenario(mesh, calls, solver=SolverPolicy(mode='exact', "
          f"node_limit_per_probe={NODE_LIMIT})).route().schedule()")
    ops_per_second = 2.0
    #: call counts per request
    CALLS = (2, 3, 4, 5, 6, 7, 8)

    def setup(self) -> None:
        rng = _rng(self.seed, self.name)
        meshes = [(name, build()) for name, build in PAPER_MESHES]
        self.policy = SolverPolicy(mode="exact",
                                   node_limit_per_probe=NODE_LIMIT)
        # op i: mesh i mod 4 with CALLS[3i mod 7] calls -- every 28
        # consecutive ops cover each (mesh, call count) cell once, and
        # every 7 cover each call count once
        self.requests = []
        for i in range(self.num_ops):
            _name, topology = meshes[i % len(meshes)]
            calls = self.CALLS[3 * i % len(self.CALLS)]
            self.requests.append(
                (topology, _gateway_calls(topology, calls, G729, rng)))
        self.slots_total = 0
        warm = Scenario(chain_topology(3),
                        _gateway_calls(chain_topology(3), 2, G729, rng),
                        solver=self.policy)
        warm.route().schedule()

    def run_op(self, i: int):
        topology, calls = self.requests[i]
        scenario = Scenario(topology, calls, solver=self.policy)
        result = scenario.route().schedule()
        self.engine_stats.append(dict(scenario.engine.stats))
        return scenario, result

    def check(self, i: int, out) -> list[str]:
        scenario, result = out
        frame_slots = scenario.frame.data_slots
        if result.schedule is None:
            # no schedule: certified only if the whole frame was refuted
            self.slots_total += frame_slots + 1
            if (result.lower_bound <= frame_slots
                    and (frame_slots, False) not in result.probes):
                return ["unscheduled without a refuted full-frame probe"]
            return []
        self.slots_total += result.slots
        problems = []
        if result.schedule.violations(scenario.conflicts):
            problems.append("S8 conflict in the returned schedule")
        if not result.schedule.demands_met(scenario.demands):
            problems.append("a link demand is not met")
        for constraint in scenario.delay_constraints:
            if (path_delay_slots(result.schedule, constraint.route)
                    > constraint.budget_slots):
                problems.append(f"{constraint.name} exceeds its budget")
        if (result.slots != result.lower_bound
                and (result.slots - 1, False) not in result.probes):
            problems.append("no optimality certificate")
        return problems

    def outputs(self) -> dict:
        return {"slots_total": self.slots_total}


# ---------------------------------------------------------------------------
# city: constant-density random disks, cold conflict construction + SINR
# ---------------------------------------------------------------------------

US = 1e-6


def city_instance(num_nodes: int, rng: np.random.Generator):
    """A connected random disk at ~7 mean degree with local flows.

    The E21 recipe: ``0.75 n`` flows between random pairs at most three
    hops apart, each needing one slot per frame per link, a frame sized
    from the node-clique lower bound (three times plus headroom, 525 us
    slots) and a lax ``(route + 3) x frame`` delay budget.
    """
    radio_range = 100.0
    area = radio_range * math.sqrt(num_nodes * math.pi / 7.0)
    while True:
        xy = rng.uniform(0.0, area, size=(num_nodes, 2))
        dist = np.hypot(xy[:, None, 0] - xy[None, :, 0],
                        xy[:, None, 1] - xy[None, :, 1])
        graph = nx.Graph()
        graph.add_nodes_from(range(num_nodes))
        graph.add_edges_from(
            map(tuple, np.argwhere(np.triu(dist <= radio_range, 1)).tolist()))
        if nx.is_connected(graph):
            break
    topology = MeshTopology(
        graph, {n: (float(x), float(y)) for n, (x, y) in enumerate(xy)},
        name=f"city{num_nodes}")
    pairs: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    while len(pairs) < 3 * num_nodes // 4:
        src = int(rng.integers(num_nodes))
        near = sorted(v for v, hops in nx.single_source_shortest_path_length(
            graph, src, cutoff=3).items() if hops > 0)
        dst = near[int(rng.integers(len(near)))]
        if (src, dst) not in seen:
            seen.add((src, dst))
            pairs.append((src, dst))
    provisional = routing.route_all(topology, FlowSet(
        [Flow(f"c{i}", src=s, dst=d, rate_bps=1)
         for i, (s, d) in enumerate(pairs)]))
    per_node: dict[int, int] = {}
    for flow in provisional:
        for link in flow.route:
            for node in link:
                per_node[node] = per_node.get(node, 0) + 1
    data_slots = 3 * max(per_node.values()) + 16
    frame = MeshFrameConfig(
        frame_duration_s=4 * 400 * US + data_slots * 525 * US,
        control_slots=4, control_slot_s=400 * US, data_slots=data_slots,
        guard_s=60 * US, phy=default_frame_config().phy)
    rate = int(0.9 * frame.data_slot_capacity_bits / frame.frame_duration_s)
    flows = FlowSet([
        Flow(f.name, src=f.src, dst=f.dst, rate_bps=rate,
             delay_budget_s=(len(f.route) + 3) * frame.frame_duration_s,
             route=f.route)
        for f in provisional])
    return topology, flows, frame


class CityWorkload(Workload):
    name = "city"
    op = ("fresh SolverEngine: greedy Scenario.schedule(), cold full-mesh "
          "conflict_index, S8 audit against it, SINR index of the demanded "
          "links and its violation count")
    ops_per_second = 2.0
    SIZES = (80, 100, 120, 140, 160, 180, 200)

    def setup(self) -> None:
        rng = _rng(self.seed, self.name)
        self.instances = [city_instance(self.SIZES[i % len(self.SIZES)], rng)
                          for i in range(self.num_ops)]
        self.slots_total = 0
        self.sinr_violations = 0
        self._op_on(city_instance(30, rng))

    def _op_on(self, instance):
        topology, flows, frame = instance
        engine = SolverEngine()
        scenario = Scenario(topology, flows, frame=frame, solver="greedy",
                            engine=engine)
        result = scenario.schedule()
        full = engine.conflict_index(topology)
        s8 = result.schedule.violations(full.graph)
        sinr = engine.conflict_index(topology, links=sorted(scenario.demands),
                                     interference=SinrModel())
        sinr_violations = len(result.schedule.violations(sinr.graph))
        return engine, scenario, result, s8, sinr_violations

    def run_op(self, i: int):
        engine, *out = self._op_on(self.instances[i])
        self.engine_stats.append(dict(engine.stats))
        return out

    def check(self, i: int, out) -> list[str]:
        scenario, result, s8, sinr_violations = out
        if result.schedule is None:
            self.slots_total += scenario.frame.data_slots + 1
            return ["greedy left the request without a schedule"]
        self.slots_total += result.slots
        self.sinr_violations += sinr_violations
        problems = []
        if s8:
            problems.append(f"{len(s8)} S8 violations on the full mesh")
        if not result.schedule.demands_met(scenario.demands):
            problems.append("a link demand is not met")
        return problems

    def outputs(self) -> dict:
        return {"slots_total": self.slots_total,
                "sinr_violations": self.sinr_violations}


# ---------------------------------------------------------------------------
# churn: random-waypoint meshes, one repair tick per op (incremental path)
# ---------------------------------------------------------------------------

class _Walk:
    """One moving mesh: its fault stream, flows, repair engine and ticks."""

    NODES = 60
    SPEED_MPS = 10.0
    DT_S = 0.25
    FLOWS = 4
    RANGE_M = 220.0

    def __init__(self, rng: np.random.Generator, horizon_s: float,
                 engine: SolverEngine) -> None:
        # E20's density (36 nodes on 900 m) with jittered-lattice starts:
        # one node per lattice cell keeps the link count of the mesh
        # steady across seeds, and the gateway starts in the centre cell;
        # waypoints stay uniform
        area = 900.0 * math.sqrt(self.NODES / 36.0)
        side = math.ceil(math.sqrt(self.NODES))
        cell = area / side
        centre = (side // 2) * side + side // 2
        others = [c for c in rng.permutation(side * side).tolist()
                  if c != centre]
        starts = {
            node: ((c % side + rng.uniform()) * cell,
                   (c // side + rng.uniform()) * cell)
            for node, c in enumerate([centre] + others[:self.NODES - 1])}
        motion = RandomWaypointModel(
            self.NODES, area, self.SPEED_MPS, horizon_s,
            seed=int(rng.integers(2 ** 31)), initial_positions=starts)
        self.stream = TopologyStream(
            motion, RadioRangeModel(self.RANGE_M, hysteresis=0.15),
            dt=self.DT_S)
        world = self.stream.fault_plan(GATEWAY)
        topology = world.topology
        # the E20 flows: the farthest union nodes call the gateway
        far = sorted((n for n in topology.nodes if n != GATEWAY),
                     key=lambda n: (topology.hop_distance(GATEWAY, n), n))
        self.flows = [Flow(f"mob{i}", src, GATEWAY, rate_bps=80_000,
                           delay_budget_s=0.3)
                      for i, src in enumerate(far[-self.FLOWS:])]
        self.repair = RepairEngine(
            topology, default_frame_config(), gateway=GATEWAY,
            search="binary", engine=engine, dead_nodes=world.dead_nodes,
            dead_edges=world.dead_edges)
        self.repair.install(self.flows)
        self.injector = FaultInjector(world.plan, topology)
        for node in sorted(world.dead_nodes):
            self.injector.apply(FaultEvent(0.0, "node_down", node=node))
        for link in sorted(world.dead_edges):
            self.injector.apply(FaultEvent(0.0, "link_down", link=link))
        #: the fault plan grouped per sample tick, as run_mobility batches it
        self.ticks: list[list[FaultEvent]] = []
        last_at = None
        for event in world.plan:
            if event.at_s != last_at:
                self.ticks.append([])
                last_at = event.at_s
            self.ticks[-1].append(event)


class ChurnWorkload(Workload):
    name = "churn"
    op = ("one sample tick: FaultInjector.apply per delta, "
          "RepairEngine.retarget, SolverEngine.conflict_index(alive), "
          "Schedule.violations and a path_delay_slots check per flow")
    #: meshes per run, walked one after another on one shared engine
    MESHES = 4
    #: simulated seconds each mesh moves, per second of ``--seconds``
    HORIZON_PER_SECOND = 0.6

    def setup(self) -> None:
        rng = _rng(self.seed, self.name)
        self.policy = SolverPolicy(mode="exact",
                                   node_limit_per_probe=NODE_LIMIT)
        self.engine = SolverEngine(policy=self.policy)
        horizon_s = self.seconds * self.HORIZON_PER_SECOND
        self.walks = [_Walk(rng, horizon_s, self.engine)
                      for _ in range(self.MESHES)]
        self.ticks = [(walk, events) for walk in self.walks
                      for events in walk.ticks]
        self.num_ops = len(self.ticks)
        #: op index -> repair strategy, for the replay check
        self.strategies: dict[int, str] = {}
        self.carried_flow_ticks = 0

    def run_op(self, i: int):
        walk, events = self.ticks[i]
        for event in events:
            walk.injector.apply(event)
        repair = walk.repair
        outcome = repair.retarget(walk.injector.dead_nodes,
                                  walk.injector.dead_edges)
        conflicts = self.engine.conflict_index(
            repair.alive, interference=repair.interference).graph
        conflict_ok = not repair.schedule.violations(conflicts)
        guarantee_ok = all(
            path_delay_slots(repair.schedule, flow.route)
            <= repair.budget_slots(flow)
            for flow in repair.carried_flows)
        if i == self.num_ops - 1:
            self.engine_stats.append(dict(self.engine.stats))
        return (outcome.strategy, conflict_ok, guarantee_ok,
                len(repair.carried_flows))

    def check(self, i: int, out) -> list[str]:
        strategy, conflict_ok, guarantee_ok, carried = out
        self.strategies[i] = strategy
        self.carried_flow_ticks += carried
        problems = []
        if not conflict_ok:
            problems.append("live schedule violates S8 on the alive mesh")
        if not guarantee_ok:
            problems.append("a carried flow exceeds its delay budget")
        return problems

    def finish(self) -> list[tuple]:
        """Replay each stream through ``run_mobility`` on a fresh engine."""
        failures = []
        first = 0
        for walk in self.walks:
            replay = run_mobility(walk.stream, walk.flows,
                                  default_frame_config(), gateway=GATEWAY,
                                  engine=SolverEngine(policy=self.policy))
            expected = [step.strategy for step in replay.steps]
            if len(expected) != len(walk.ticks):
                failures.append((f"mesh@{first}", (
                    f"run_mobility replay has {len(expected)} ticks, the "
                    f"stream {len(walk.ticks)}")))
            for j, theirs in enumerate(expected):
                ours = self.strategies.get(first + j)
                if ours != theirs:
                    failures.append(
                        (first + j, f"strategy {ours}, run_mobility {theirs}"))
            first += len(walk.ticks)
        return failures

    def outputs(self) -> dict:
        return {"carried_flow_ticks": self.carried_flow_ticks}


# ---------------------------------------------------------------------------
# emulate: TDMA-over-WiFi vs DCF packet-level pairs (the simulator path)
# ---------------------------------------------------------------------------

class EmulateWorkload(Workload):
    name = "emulate"
    op = ("run_tdma_scenario then run_dcf_scenario on the same seeded "
          "calls for 1 s of simulated time")
    ops_per_second = 5.0
    DURATION_S = 1.0
    DELAY_BUDGET_S = 0.1

    def setup(self) -> None:
        rng = _rng(self.seed, self.name)
        policy = SolverPolicy(mode="exact", node_limit_per_probe=NODE_LIMIT)
        # eight call sets: each mesh carries 2 calls of one codec and 4 of
        # the other (G.711's 200-byte and G.729's 60-byte packets fill the
        # slots differently)
        self.call_sets = []
        for m, (_name, build) in enumerate(PAPER_MESHES):
            for c, codec in enumerate((G729, G711)):
                topology = build()
                calls = _gateway_calls(topology, 2 + 2 * ((m + c) % 2),
                                       codec, rng, self.DELAY_BUDGET_S)
                scenario = Scenario(topology, calls, solver=policy)
                result = scenario.route().schedule()
                if result.schedule is None:
                    raise RuntimeError(
                        f"no schedule for {len(calls)} {codec.name} calls "
                        f"on {topology.name}")
                self.call_sets.append((scenario, result.schedule, codec))
        self.sim_seeds = [int(s) for s in
                          rng.integers(2 ** 31, size=self.num_ops)]
        self.delivered_packets = 0
        for scenario, schedule, codec in self.call_sets:
            scenarios.run_tdma_scenario(scenario.topology, scenario.flows,
                                        scenario.frame, schedule, 0.1,
                                        seed=0, codec=codec)
            scenarios.run_dcf_scenario(scenario.topology, scenario.flows,
                                       0.1, seed=0, codec=codec)

    def run_op(self, i: int):
        scenario, schedule, codec = self.call_sets[i % len(self.call_sets)]
        seed = self.sim_seeds[i]
        tdma = scenarios.run_tdma_scenario(
            scenario.topology, scenario.flows, scenario.frame, schedule,
            self.DURATION_S, seed=seed, codec=codec)
        dcf = scenarios.run_dcf_scenario(
            scenario.topology, scenario.flows, self.DURATION_S, seed=seed,
            codec=codec)
        return tdma.qos, dcf.qos

    def check(self, i: int, out) -> list[str]:
        tdma, dcf = out
        self.delivered_packets += sum(q.received for q in tdma.values())
        self.delivered_packets += sum(q.received for q in dcf.values())
        return [f"TDMA call {q.flow_name}: {q.sent - q.received} lost, "
                f"p95 {q.p95_delay_s * 1e3:.1f} ms"
                for q in tdma.values()
                if not q.meets(max_delay_s=self.DELAY_BUDGET_S, max_loss=0.0)]

    def outputs(self) -> dict:
        return {"delivered_packets": self.delivered_packets}


WORKLOADS = {w.name: w for w in (PlanWorkload, CityWorkload, ChurnWorkload,
                                 EmulateWorkload)}
