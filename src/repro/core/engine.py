"""The incremental solver engine: shared conflict indexes, warm-started
probe searches, and cross-layer problem caching.

The paper line's minimum-slots search (NET-COOP) probes a sequence of
nearly-identical feasibility ILPs, and the ToN companion recovers schedules
from a fixed order with one Bellman-Ford pass over the conflict graph.  A
:class:`SolverEngine` exploits that structure instead of treating every
probe, repair and sweep point as a cold solve:

1. **Cached conflict-graph layer.**  :meth:`SolverEngine.conflict_index`
   returns an immutable :class:`~repro.core.conflict.ConflictIndex` -- the
   sorted links plus the conflict kernel's CSR relation, with the
   :mod:`networkx` graph built only if someone asks for it -- keyed by a
   topology/links/hops fingerprint and kept in a small LRU, so minslots,
   repair, distributed validation and analysis share one build per
   scenario instead of each calling
   :func:`~repro.core.conflict.conflict_graph` independently.
   :meth:`SolverEngine.interference_index` does the same for the *exact*
   interference relation (:func:`repro.phy.interference.interference_graph`)
   that the distributed DSCH handshake packs against.  Cache *misses* on
   a churning topology are answered incrementally where possible: the
   request is diffed against the last index of the same hops value and
   only the dirty rows of the relation are recomputed
   (:func:`updated_conflict_edges`), turning the per-event full rebuild
   into work proportional to the change --
   ``core.engine.delta_updates`` vs ``core.engine.index_builds`` count
   the rebuilds avoided.

2. **Warm-started probe search.**  Inside one
   :func:`~repro.core.minslots.minimum_slots` search the engine carries the
   last feasible probe's :class:`~repro.core.ordering.TransmissionOrder`
   forward.  Before paying for the next ILP it runs a Bellman-Ford pass
   over the carried order at the candidate region: if the recovered
   earliest schedule fits and meets every delay budget, the probe's verdict
   is certified *without the solver* (the monotone case).  ``scipy``'s
   ``milp`` cannot accept an incumbent, so the carried solution becomes a
   shortcut rather than a solver hint -- the counters
   ``core.engine.ilp_probes`` vs ``core.engine.bf_shortcuts`` prove how
   often the expensive solver is skipped.  When the *winning* probe was
   BF-certified, the engine re-solves that one region through the canonical
   ILP so the returned result is bitwise-identical to a cold search
   (schedule table, order, probe log; only wall-clock ``solve_seconds``
   differ, as they always do).

3. **Canonical problem hashing.**  :meth:`SolverEngine.solve` keys solved
   ``(problem, K)`` pairs in an in-process LRU under
   :func:`canonical_problem_key` -- a content hash over the conflict
   relation, demands, frame geometry and delay constraints, salted with
   the package version and source fingerprint exactly like the runtime's
   task keys -- so sweeps that share subproblems hit the cache instead of
   HiGHS.

Cache scoping and the observability contract
--------------------------------------------
:mod:`repro.obs` snapshots are *deterministic*: identical runs must produce
byte-identical counter JSON, and merged per-task registries must be
identical for any ``--jobs`` (S33).  A process-global cache would break
that (the second identical run would count fewer solves), so caches are
scoped to an **owning object**: :class:`~repro.api.Scenario`,
:class:`~repro.core.repair.RepairEngine`,
:class:`~repro.core.admission.AdmissionController` and each experiment
construct a fresh ``SolverEngine()`` whose caches live and die with them,
while the
module-level :func:`default_engine` -- which backs the bare public
functions -- is *stateless* (warm-start only, no cross-call caches).
Warm-start shortcuts are a pure function of one search's inputs, so they
are deterministic everywhere.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import replace
from typing import Mapping, Optional, Sequence

import networkx as nx
import numpy as np
import scipy.sparse as sp

from repro import obs
from repro.core.conflict import (
    ConflictIndex,
    as_index,
    checked_links,
    conflict_clique_demand,
    link_relation,
    protocol_reach,
    protocol_relation,
)
from repro.core.ilp import (
    DelayConstraint,
    ILPResult,
    SchedulingProblem,
    solve_schedule_ilp,
)
from repro.core.ordering import TransmissionOrder, schedule_from_order
from repro.core.policy import SolverPolicy
from repro.core.schedule import Schedule
from repro.errors import (
    ConfigurationError,
    InfeasibleScheduleError,
    SolverError,
)
from repro.net.topology import Link, MeshTopology

#: Sentinel solver status marking a probe verdict certified by Bellman-Ford
#: instead of an ILP solve.  Never escapes a search: the winning probe is
#: always re-solved canonically before a result is returned.
BF_CERTIFIED = "bf-certified"


def _fingerprint_token(topology: MeshTopology) -> tuple:
    """Cheap structural signature guarding the memoized fingerprint.

    Combines the topology's monotone mutation counter
    (:meth:`~repro.net.topology.MeshTopology.apply_edge_changes` bumps it)
    with the node and edge counts, so both sanctioned in-place mutation
    and direct ``topology.graph`` edits that change either count
    invalidate the cache instead of silently serving a stale fingerprint
    -- and, through it, a stale cached :class:`ConflictIndex`.
    """
    return (getattr(topology, "mutations", 0),
            topology.graph.number_of_nodes(),
            topology.graph.number_of_edges())


def topology_fingerprint(topology: MeshTopology) -> str:
    """Content hash of a topology's connectivity (nodes + undirected edges).

    Positions and the display name are irrelevant to scheduling, so two
    topologies with the same connectivity share a fingerprint -- and hence
    share cached conflict indexes.  The hash is memoized on the topology
    object, keyed by :func:`_fingerprint_token`, so it survives repeated
    lookups but never an in-place mutation.
    """
    token = _fingerprint_token(topology)
    cached = getattr(topology, "_repro_fingerprint", None)
    if isinstance(cached, tuple) and cached[0] == token:
        return cached[1]
    digest = hashlib.sha256()
    digest.update(repr(sorted(topology.graph.nodes)).encode())
    digest.update(repr(sorted(tuple(sorted(e))
                              for e in topology.graph.edges)).encode())
    fingerprint = digest.hexdigest()[:16]
    try:
        topology._repro_fingerprint = (token, fingerprint)
    except AttributeError:  # pragma: no cover - exotic topology subclass
        pass
    return fingerprint


_SALT_CACHE: list[str] = []


def _cache_salt() -> str:
    """Version + source fingerprint, matching the runtime content-hash keys.

    Imported lazily: :mod:`repro.runtime` sits above :mod:`repro.core` in
    the layer diagram, so the dependency must not exist at import time.
    """
    if not _SALT_CACHE:
        import repro

        try:
            from repro.runtime.tasks import source_fingerprint

            salt = f"{repro.__version__}:{source_fingerprint()}"
        except ImportError:  # pragma: no cover - trimmed installs
            salt = repro.__version__
        _SALT_CACHE.append(salt)
    return _SALT_CACHE[0]


def canonical_problem_key(problem: SchedulingProblem,
                          time_limit: Optional[float] = None,
                          node_limit: Optional[int] = None) -> str:
    """Content hash identifying a ``(problem, K)`` pair.

    Two problems share a key iff they have the same conflict relation
    (the index's content fingerprint, so an index and a graph of the same
    relation hash alike), the same demands, the same frame geometry
    (frame length *and* region), the same delay constraints and
    objective, and the same solver budgets
    (wall-clock ``time_limit`` and branch-and-cut ``node_limit``) -- a
    budget change can flip a verdict, so budget-distinct solves must not
    share a cache entry.  The key is salted with the package version and
    source fingerprint, the same invalidation discipline as
    :func:`repro.runtime.tasks.task_key`, so it stays meaningful if
    persisted next to runtime artifacts.
    """
    digest = hashlib.sha256()
    digest.update(_cache_salt().encode())
    digest.update(as_index(problem.conflicts).fingerprint().encode())
    digest.update(repr(sorted(problem.demands.items())).encode())
    digest.update(repr((problem.frame_slots, problem.effective_region,
                        problem.minimize_max_delay, time_limit,
                        node_limit)).encode())
    digest.update(repr([(c.name, c.route, c.budget_slots)
                        for c in problem.delay_constraints]).encode())
    return digest.hexdigest()[:24]


def _topology_snapshot(topology: MeshTopology
                       ) -> tuple[frozenset[int],
                                  frozenset[tuple[int, int]]]:
    """The (nodes, undirected sorted edges) snapshot a delta diffs against."""
    return (frozenset(topology.graph.nodes),
            frozenset(tuple(sorted(e)) for e in topology.graph.edges))


def updated_conflict_edges(old: ConflictIndex, topology: MeshTopology,
                           hops: int, link_list: Sequence[Link]
                           ) -> Optional[sp.csr_array]:
    """Conflict relation for ``(topology, link_list)``, delta-updated.

    Diffs the request against the ``old`` index's stored topology
    snapshot and link set, identifies the *dirty* links -- added links
    plus links whose endpoints' ``hops - 1`` reach sets may have changed
    -- and recomputes only those rows of the relation, through the same
    kernel (:func:`~repro.core.conflict.link_relation`) a cold build
    uses.  Conflict rows between clean links are provably unchanged:
    under the protocol model, ``conflict(a, b)`` depends only on ``a``'s
    endpoint reach sets and ``b``'s endpoint identities, so an untouched
    reach set means an untouched row.

    Returns ``None`` when the delta cannot be applied (the old index has
    no snapshot, or its hops differ) or would not pay (more than half
    the links are dirty -- a rebuild is no slower then); otherwise the
    canonical CSR relation over the sorted ``link_list``, *identical* to
    a cold :func:`~repro.core.conflict.protocol_relation` build (the
    equivalence is property-tested in ``tests/test_property_mobility.py``).
    Raises :class:`~repro.errors.ConfigurationError` exactly where a cold
    build would (the degenerate-hops guard).
    """
    if old.topo_edges is None or old.topo_nodes is None or old.hops != hops:
        return None
    new_nodes, new_edges = _topology_snapshot(topology)
    seeds: set[int] = set(old.topo_nodes ^ new_nodes)
    for u, v in old.topo_edges ^ new_edges:
        seeds.add(u)
        seeds.add(v)
    old_set = set(old.links)
    new_set = set(link_list)
    # every node within hops - 1 of a seed, in the old or the new graph
    dirty_nodes = set(seeds)
    for graph in (nx.Graph(list(old.topo_edges)), topology.graph):
        sources = seeds.intersection(graph)
        if sources:
            dirty_nodes.update(nx.multi_source_dijkstra_path_length(
                graph, sources, cutoff=hops - 1))
    dirty = {link for link in new_set
             if link not in old_set
             or link[0] in dirty_nodes or link[1] in dirty_nodes}
    if 2 * len(dirty) > len(new_set):
        return None
    positions = {link: i for i, link in enumerate(link_list)}
    # Clean x clean entries carry over from the old relation...
    moved = np.array([-1 if link in dirty or link not in new_set
                      else positions[link] for link in old.links],
                     dtype=np.int64)
    old_rows = moved[np.repeat(np.arange(len(old.links)),
                               np.diff(old.indptr))]
    old_cols = moved[old.indices]
    kept = (old_rows >= 0) & (old_cols >= 0)
    # ... and the dirty rows (with their mirror columns) are recomputed.
    rows = np.array(sorted(positions[link] for link in dirty),
                    dtype=np.int64)
    block = link_relation(topology, link_list,
                          protocol_reach(topology, hops, link_list), rows=rows)
    block_rows = np.repeat(rows, np.diff(block.indptr))
    r = np.concatenate((old_rows[kept], block_rows, block.indices))
    c = np.concatenate((old_cols[kept], block.indices, block_rows))
    return sp.csr_array((np.ones(r.size, dtype=bool), (r, c)),
                        shape=(len(link_list), len(link_list)))


class SolverEngine:
    """Shared, incremental front end to the scheduling solver stack.

    Parameters
    ----------
    warm_start:
        Carry each feasible probe's transmission order into later probes
        and certify their verdicts with a Bellman-Ford pass where possible
        (see the module docstring).  ``False`` gives the cold reference
        behaviour; results are bitwise-identical either way.
    max_indexes, max_problems:
        LRU capacities of the conflict-index and solved-problem caches.
        ``0`` disables a cache entirely -- the configuration of the
        module-level :func:`default_engine`, which must stay stateless so
        the deterministic-observability contract holds for the bare public
        functions.
    delta_updates:
        When a :meth:`conflict_index` request misses the cache but a
        previously-built index for the same ``hops`` exists, diff the two
        and recompute only the dirty rows instead of rebuilding the whole
        conflict relation (:func:`updated_conflict_edges`).  The
        resulting index is semantically identical to a rebuild;
        ``stats["delta_updates"]`` / the ``core.engine.delta_updates``
        counter record the rebuilds avoided.  Requires ``max_indexes > 0``
        (the stateless default engine never delta-updates).  ``False``
        gives the rebuild-always reference behaviour -- the baseline arm
        of experiment E20.
    policy:
        The engine's default :class:`~repro.core.policy.SolverPolicy`
        (also accepts a mode string or ``None`` for the default
        ``"auto"`` policy).  Searches run through this engine without an
        explicit ``policy=``/``solver=`` use it; per-call arguments still
        win.
    """

    def __init__(self, warm_start: bool = True, max_indexes: int = 32,
                 max_problems: int = 128,
                 delta_updates: bool = True,
                 policy: "SolverPolicy | str | None" = None) -> None:
        if max_indexes < 0 or max_problems < 0:
            raise ConfigurationError("cache sizes must be non-negative")
        self.warm_start = warm_start
        self.max_indexes = max_indexes
        self.max_problems = max_problems
        self.delta_updates = delta_updates
        self.policy = SolverPolicy.coerce(policy)
        self._indexes: OrderedDict[tuple, ConflictIndex] = OrderedDict()
        #: Zone-subproblem indexes live in their own LRU: a city-scale
        #: zoned solve requests dozens of small subindexes per search, and
        #: routing them through ``_indexes`` would evict the full-mesh
        #: index that repair and validation share (and poison the
        #: ``_delta_bases`` lineage).  Keyed by (base fingerprint, zone
        #: fingerprint) so identical zones of identical meshes hit.
        self._zone_indexes: OrderedDict[tuple, ConflictIndex] = OrderedDict()
        self._problems: OrderedDict[str, ILPResult] = OrderedDict()
        #: most recently used protocol-model index per (hops, full-links?)
        #: lineage: the base the next cache miss is diffed against.  Churny
        #: workloads mutate one topology a little at a time, so the last
        #: index is almost always the cheapest base -- but whole-topology
        #: requests and explicit-subset requests (e.g. a repair engine's
        #: demand links) interleave, and diffing one against the other
        #: marks every link dirty.  Keeping one lineage per kind keeps
        #: both diffs small.
        self._delta_bases: dict[tuple[int, bool], ConflictIndex] = {}
        #: actual-work accounting (plain ints, independent of :mod:`repro.obs`):
        #: cache effectiveness is a property of this engine's lifetime, not
        #: of the workload, so it lives here rather than in the registry.
        self.stats = {
            "index_builds": 0, "index_hits": 0,
            "delta_updates": 0,
            "zone_index_builds": 0, "zone_index_hits": 0,
            "ilp_solves": 0, "problem_hits": 0,
            "ilp_probes": 0, "bf_shortcuts": 0,
        }

    # -- conflict-graph layer -------------------------------------------------

    def conflict_index(self, topology: MeshTopology,
                       hops: Optional[int] = None,
                       links: Optional[Sequence[Link]] = None,
                       interference=None) -> ConflictIndex:
        """The (cached) :class:`ConflictIndex` for a topology/links/model key.

        The interference backend is either ``hops`` (the k-hop protocol
        model; default 2, the pre-seam behaviour) or ``interference=`` --
        an :class:`~repro.phy.models.InterferenceModel` or a bare hops
        integer.  A :class:`~repro.phy.models.ProtocolModel` routes
        through exactly the pre-seam path: same cache key (the bare hops
        int), same delta lineage, same
        :func:`~repro.core.conflict.protocol_relation` build -- bitwise
        identical.  Other models (e.g.
        :class:`~repro.phy.models.SinrModel`) are keyed by their
        :meth:`~repro.phy.models.InterferenceModel.cache_token` (which
        folds in positions and parameters -- the topology fingerprint
        covers connectivity only) and always build through the model;
        they never join the protocol delta lineage.

        Protocol-path misses are answered by the cheapest correct path:
        an incremental delta update against the last index of the same
        ``hops`` when the diff is small (see ``delta_updates``), a full
        build otherwise.  Either way the result is identical and lands
        in the same LRU.
        """
        from repro.phy.models import ProtocolModel, coerce_interference

        if hops is not None and interference is not None:
            raise ConfigurationError(
                "pass either hops= or interference=, not both")
        if hops is not None and (not isinstance(hops, int)
                                 or isinstance(hops, bool) or hops < 1):
            raise ConfigurationError(
                f"interference model needs hops >= 1, got {hops}")
        model = coerce_interference(interference,
                                    default_hops=2 if hops is None else hops)
        link_key = None if links is None else tuple(sorted(set(links)))
        if not isinstance(model, ProtocolModel):
            # Keyed by the model's content token next to the connectivity
            # fingerprint and kept out of the delta lineage: there is no
            # delta rule for SINR conflicts (a position change can touch
            # any pair).  ``index.hops`` is ``None``, like the exact
            # interference relation's.
            key = ("conflict", topology_fingerprint(topology),
                   model.cache_token(topology), link_key)
            return self._index_for(key, None, lambda: (model.relation(
                topology, links=None if link_key is None else list(link_key)),
                "index_builds"), f"core.interference.{model.kind}_edges")
        hops = model.hops
        lineage = (hops, link_key is None)
        key = ("conflict", topology_fingerprint(topology), hops, link_key)
        index = self._index_for(
            key, hops,
            lambda: self._protocol_relation(topology, hops, link_key,
                                            lineage),
            "core.interference.protocol_edges", topology)
        if self.max_indexes > 0:
            self._delta_bases[lineage] = index
        return index

    def _protocol_relation(self, topology: MeshTopology, hops: int,
                           link_key: Optional[tuple], lineage: tuple
                           ) -> tuple[tuple[list[Link], sp.csr_array], str]:
        """A protocol-model miss: delta update if it applies, else cold."""
        base = (self._delta_bases.get(lineage)
                if self.delta_updates and self.max_indexes > 0 else None)
        if base is not None:
            link_list = checked_links(topology, link_key)
            relation = updated_conflict_edges(base, topology, hops, link_list)
            if relation is not None:
                return (link_list, relation), "delta_updates"
        return protocol_relation(topology, hops, link_key), "index_builds"

    def zone_index(self, base: ConflictIndex,
                   links: Sequence[Link]) -> ConflictIndex:
        """The (cached) conflict subindex induced by a zone's links.

        ``base`` is the full-mesh index the zone was partitioned from;
        the subindex holds the relation induced by ``links`` (its CSR
        block over the sorted zone, so it is indistinguishable from a
        direct build).  Zone requests are keyed by ``(base.key, zone
        fingerprint)`` in a **dedicated LRU** --
        zoned solves touch dozens of zones per search, and sharing the
        main index cache would evict the full-mesh entry every consumer
        relies on.  ``stats["zone_index_hits"]`` and the
        ``core.engine.zone_index_hits`` counter record the re-partitions
        answered from cache.
        """
        zone = tuple(sorted(set(links)))
        digest = hashlib.sha256(repr(zone).encode()).hexdigest()[:16]
        key = ("zone", base.key, digest)
        index = self._lru_get(self._zone_indexes, key, "zone_index_hits")
        if index is None:
            # base.position doubles as the membership check
            members = np.array([base.position(link) for link in zone],
                               dtype=np.int64)
            relation = sp.csr_array(
                (np.ones(base.indices.size, dtype=bool), base.indices,
                 base.indptr), shape=(base.num_links, base.num_links)
            )[members][:, members].sorted_indices()
            index = ConflictIndex(zone, relation, "/".join(map(repr, key)),
                                  base.hops)
            self._count("zone_index_builds")
            # Zones are small and numerous; give them headroom without
            # letting a 5000-link sweep hold every subindex forever.
            self._lru_put(self._zone_indexes, key, index,
                          4 * self.max_indexes)
        return index

    def interference_index(self, topology: MeshTopology) -> ConflictIndex:
        """The (cached) index of the exact interference relation.

        This is the relation the distributed DSCH handshake enforces by
        overhearing (:mod:`repro.mesh16.distributed`); it is *tighter*
        than the 2-hop protocol model, so distributed outcomes must be
        validated against it, not against :meth:`conflict_index`.
        """
        from repro.phy.interference import interference_relation

        key = ("interference", topology_fingerprint(topology))
        return self._index_for(
            key, None,
            lambda: (interference_relation(topology), "index_builds"))

    def _index_for(self, key: tuple, hops: Optional[int], build,
                   edges_counter: Optional[str] = None,
                   topology: Optional[MeshTopology] = None) -> ConflictIndex:
        """The index cached under ``key``, built on a miss.

        ``build()`` returns the ``(links, relation)`` pair and the stat
        the build counts toward; a ``topology`` is snapshotted into the
        index for later delta updates.
        """
        index = self._lru_get(self._indexes, key, "index_hits")
        if index is None:
            (links, relation), stat = build()
            snapshot = () if topology is None else _topology_snapshot(topology)
            index = ConflictIndex(links, relation, "/".join(map(repr, key)),
                                  hops, *snapshot)
            self._count(stat)
            if edges_counter is not None:
                obs.counter(edges_counter).inc(index.num_conflicts)
            self._lru_put(self._indexes, key, index, self.max_indexes)
        return index

    def _count(self, stat: str) -> None:
        self.stats[stat] += 1
        obs.counter(f"core.engine.{stat}").inc()

    def _lru_get(self, cache: OrderedDict, key, hit_stat: str):
        """The entry under ``key`` (counted as a hit and refreshed), or None."""
        entry = cache.get(key)
        if entry is not None:
            cache.move_to_end(key)
            self._count(hit_stat)
        return entry

    @staticmethod
    def _lru_put(cache: OrderedDict, key, entry, capacity: int) -> None:
        """Insert, evicting least recently used entries past ``capacity``."""
        if capacity > 0:
            cache[key] = entry
            while len(cache) > capacity:
                cache.popitem(last=False)

    # -- cached ILP layer -----------------------------------------------------

    def solve(self, problem: SchedulingProblem,
              time_limit: Optional[float] = None,
              node_limit: Optional[int] = None) -> ILPResult:
        """:func:`~repro.core.ilp.solve_schedule_ilp` through the problem cache.

        Cache hits return a private copy (fresh :class:`Schedule` /
        :class:`TransmissionOrder` objects), so callers may mutate results
        freely; only deterministic fields are shared, and ``solve_seconds``
        reports the original solve's wall clock.  ``node_limit`` caps the
        branch-and-cut tree deterministically (see
        :func:`~repro.core.ilp.solve_schedule_ilp`); both budgets are part
        of the cache key.
        """
        key = canonical_problem_key(problem, time_limit, node_limit)
        cached = self._lru_get(self._problems, key, "problem_hits")
        if cached is not None:
            return _copy_result(cached)
        # counted before the call, like ``core.ilp.solves``: a probe that
        # exhausts its budget raises but still paid for a solve
        self.stats["ilp_solves"] += 1
        result = solve_schedule_ilp(problem, time_limit=time_limit,
                                    node_limit=node_limit)
        if self.max_problems > 0:
            self._lru_put(self._problems, key, _copy_result(result),
                          self.max_problems)
        return result

    # -- warm-started order certification ------------------------------------

    def certify_order(self, conflicts: ConflictIndex | nx.Graph,
                      demands: Mapping[Link, int],
                      frame_slots: int, region: int,
                      delay_constraints: Sequence[DelayConstraint],
                      order: TransmissionOrder) -> Optional[Schedule]:
        """Certify region-``K`` feasibility from a carried order, or ``None``.

        One Bellman-Ford pass recovers the componentwise-earliest schedule
        consistent with ``order`` inside the first ``region`` slots; if it
        exists and every delay budget holds *at the full frame length*
        (wrap cost stays ``frame_slots``), the problem is feasible at this
        region -- the ILP would only rediscover that.  Failure certifies
        nothing: a different order may still fit, so the caller falls back
        to the solver.
        """
        from repro.core.delay import path_delay_slots

        try:
            packed = schedule_from_order(conflicts, demands, region, order)
        except (InfeasibleScheduleError, ConfigurationError):
            # Infeasible under *this* order, or the order does not cover
            # the demanded links (e.g. a caller-supplied warm order from a
            # pre-fault schedule): no certificate.
            return None
        schedule = Schedule(frame_slots,
                            dict(packed.items()))
        for constraint in delay_constraints:
            if (path_delay_slots(schedule, constraint.route)
                    > constraint.budget_slots):
                return None
        return schedule

    # -- warm-started minimum-slots search -----------------------------------

    def minimum_slots(self, conflicts: ConflictIndex | nx.Graph,
                      demands: Mapping[Link, int],
                      frame_slots: int,
                      delay_constraints: Sequence[DelayConstraint] = (),
                      search: Optional[str] = None,
                      max_region: Optional[int] = None,
                      time_limit_per_probe: Optional[float] = None,
                      warm_order: Optional[TransmissionOrder] = None,
                      policy: "SolverPolicy | str | None" = None):
        """:func:`~repro.core.minslots.minimum_slots` through this engine.

        With no ``policy=`` the engine's own :attr:`policy` governs the
        solve; explicit ``search=``/``max_region=``/``time_limit_per_probe=``
        arguments override the matching policy knobs either way.
        """
        from repro.core.minslots import minimum_slots

        return minimum_slots(
            conflicts, demands, frame_slots,
            delay_constraints=delay_constraints, search=search,
            max_region=max_region,
            time_limit_per_probe=time_limit_per_probe,
            engine=self, warm_order=warm_order, policy=policy)

    def run_search(self, conflicts: ConflictIndex | nx.Graph,
                   demands: Mapping[Link, int],
                   frame_slots: int,
                   delay_constraints: Sequence[DelayConstraint],
                   search: str, ceiling: int,
                   time_limit_per_probe: Optional[float],
                   warm_order: Optional[TransmissionOrder] = None,
                   node_limit_per_probe: Optional[int] = None):
        """The probe loop behind :func:`~repro.core.minslots.minimum_slots`.

        Both searches start from :func:`~repro.core.conflict.
        conflict_clique_demand` (reported as ``lower_bound``): every
        smaller region is infeasible, so the skipped probes could only
        have failed.  On top of the paper's search sit the warm-start
        shortcut inside ``probe`` and the canonical re-solve of a
        BF-certified winner.  Callers go
        through :func:`repro.core.minslots.minimum_slots`, which owns the
        argument validation and search-level telemetry.

        ``node_limit_per_probe`` bounds each ILP probe's branch-and-cut
        tree instead of (or in addition to) the wall clock; a probe that
        exhausts either budget undecided is treated as infeasible.  The
        node budget is *deterministic* -- the same probe reaches the same
        verdict regardless of machine load -- which is what keeps zoned
        solves bitwise-identical between serial and parallel runs.
        """
        from repro.core.minslots import MinSlotResult

        conflicts = as_index(conflicts)
        # Every region below the heaviest conflict clique is infeasible, so
        # no probe starts lower (the clique bound dominates
        # :func:`~repro.core.minslots.demand_lower_bound`).
        lower = max(1, conflict_clique_demand(conflicts, demands))
        probes: list[tuple[int, bool]] = []
        carried: Optional[TransmissionOrder] = (
            warm_order if self.warm_start else None)

        def probe(region: int) -> ILPResult:
            nonlocal carried
            obs.counter("core.minslots.probes").inc()
            problem = SchedulingProblem(
                conflicts=conflicts, demands=dict(demands),
                frame_slots=frame_slots,
                delay_constraints=tuple(delay_constraints),
                region_slots=region)
            if carried is not None:
                certified = self.certify_order(
                    conflicts, demands, frame_slots, region,
                    delay_constraints, carried)
                if certified is not None:
                    self.stats["bf_shortcuts"] += 1
                    obs.counter("core.engine.bf_shortcuts").inc()
                    probes.append((region, True))
                    return ILPResult(True, certified, carried, None, 0.0,
                                     BF_CERTIFIED, 0, 0)
            self.stats["ilp_probes"] += 1
            obs.counter("core.engine.ilp_probes").inc()
            try:
                result = self.solve(problem, time_limit=time_limit_per_probe,
                                    node_limit=node_limit_per_probe)
            except SolverError:
                # Undecided within the probe's budget (wall clock or node
                # count): treat as infeasible.  Conservative for admission
                # control (a call is rejected, never wrongly admitted);
                # the probe log records it like any miss.
                obs.counter("core.minslots.probe_timeouts").inc()
                result = ILPResult(False, None, None, None,
                                   time_limit_per_probe or 0.0,
                                   "probe budget exhausted", 0, 0)
            if not result.feasible:
                obs.counter("core.minslots.probes_infeasible").inc()
            elif self.warm_start and result.order is not None:
                carried = result.order
            probes.append((region, result.feasible))
            return result

        def finish(slots: Optional[int],
                   ilp: Optional[ILPResult],
                   bound: int,
                   region: Optional[int] = None) -> "MinSlotResult":
            """Resolve a BF-certified winner through the canonical ILP.

            The shortcut decides probe *verdicts*; the returned schedule
            and order must be the cold path's, so the winning region is
            solved once for real.  Every earlier certified probe stays a
            saved solve -- this trade keeps results bitwise-identical
            while still doing strictly less ILP work whenever more than
            one probe was certified.
            """
            if ilp is not None and ilp.solver_status == BF_CERTIFIED:
                problem = SchedulingProblem(
                    conflicts=conflicts, demands=dict(demands),
                    frame_slots=frame_slots,
                    delay_constraints=tuple(delay_constraints),
                    region_slots=slots if region is None else region)
                try:
                    ilp = self.solve(problem,
                                     time_limit=time_limit_per_probe,
                                     node_limit=node_limit_per_probe)
                except SolverError:
                    # The certificate *is* a valid feasible solution; keep
                    # it rather than fail the search on a solver timeout.
                    pass
            return MinSlotResult(slots=slots, ilp=ilp, lower_bound=bound,
                                 probes=probes)

        if not any(d > 0 for d in demands.values()):
            empty = probe(1)
            return finish(0 if empty.feasible else None, empty, 0, region=1)

        if lower > ceiling:
            return MinSlotResult(slots=None, ilp=None, lower_bound=lower,
                                 probes=probes)

        if search == "linear":
            for region in range(lower, ceiling + 1):
                result = probe(region)
                if result.feasible:
                    return finish(region, result, lower)
            return MinSlotResult(slots=None, ilp=None, lower_bound=lower,
                                 probes=probes)

        # Binary search: feasibility is monotone in the region size for a
        # fixed frame length.  Establish feasibility at the ceiling first.
        best: Optional[ILPResult] = None
        best_region: Optional[int] = None
        low, high = lower, ceiling
        top = probe(high)
        if not top.feasible:
            return MinSlotResult(slots=None, ilp=None, lower_bound=lower,
                                 probes=probes)
        best, best_region = top, high
        high -= 1
        while low <= high:
            mid = (low + high) // 2
            result = probe(mid)
            if result.feasible:
                best, best_region = result, mid
                high = mid - 1
            else:
                low = mid + 1
        return finish(best_region, best, lower)


def _copy_result(result: ILPResult) -> ILPResult:
    """A structurally-fresh copy of an ILP result (cache isolation)."""
    schedule = result.schedule
    if schedule is not None:
        schedule = Schedule(schedule.frame_slots, dict(schedule.items()))
    order = result.order
    if order is not None:
        order = order.copy()
    return replace(result, schedule=schedule, order=order)


#: Module-level default engine backing the bare public functions
#: (:func:`~repro.core.minslots.minimum_slots` with no ``engine=``).
#: Deliberately stateless (cache sizes 0): cross-call caches here would
#: make the deterministic obs counters depend on process history.  The
#: warm-start shortcut needs no cross-call state, so it stays on.
_DEFAULT_ENGINE = SolverEngine(max_indexes=0, max_problems=0)


def default_engine() -> SolverEngine:
    """The stateless module-level engine (see the module docstring)."""
    return _DEFAULT_ENGINE
