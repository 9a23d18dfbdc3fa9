"""Retired spellings fail loudly; the package consumes no deprecated API."""

import warnings

import pytest

from repro.core.minslots import minimum_slots
from repro.core.conflict import conflict_graph
from repro.errors import ConfigurationError
from repro.net.flows import Flow, FlowSet
from repro.net.routing import route_all
from repro.net.topology import chain_topology
from repro.mesh16.frame import default_frame_config


def _search():
    topo = chain_topology(4)
    frame = default_frame_config()
    flows = route_all(topo, FlowSet([
        Flow("f", src=0, dst=3, rate_bps=64_000)]))
    demands = flows.link_demands(frame.frame_duration_s,
                                 frame.data_slot_capacity_bits)
    return minimum_slots(conflict_graph(topo, links=demands.keys()),
                         demands, frame.data_slots)


def test_new_spellings_do_not_warn():
    """The current spellings are silent; every retired one raises."""
    from repro import Scenario

    search = _search()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert search.schedule is not None
        assert search.order is not None
        assert search.feasible
    assert not [w for w in caught
                if issubclass(w.category, DeprecationWarning)]

    # MinSlotResult.result was an alias of .ilp
    with pytest.raises(AttributeError):
        search.result
    # Scenario(interference=<int>) was an alias of hops=<int>
    topo = chain_topology(4)
    flows = [Flow("f", src=0, dst=3, rate_bps=64_000, delay_budget_s=0.1)]
    with pytest.raises(ConfigurationError, match="hops="):
        Scenario(topo, flows, interference=1)
    # the per-call solver knobs moved into Scenario(solver=SolverPolicy())
    scenario = Scenario(topo, flows).route()
    for kwarg, value in (("search", "binary"), ("max_region", 4),
                         ("time_limit_per_probe", 5.0)):
        with pytest.raises(TypeError, match=kwarg):
            scenario.schedule(**{kwarg: value})
    with pytest.raises(TypeError):
        scenario.schedule("binary")
    with pytest.raises(ModuleNotFoundError):
        import repro._deprecation  # noqa: F401


def test_repro_itself_triggers_zero_deprecation_warnings():
    """The package must not consume its own deprecated shims.

    Drives a representative slice of the stack -- facade scheduling, the
    solver engine, repair, simulation -- with DeprecationWarning promoted
    to an error, so any internal caller still on a deprecated spelling
    fails here rather than warning downstream users.
    """
    from repro import Scenario
    from repro.core.repair import RepairEngine

    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        topo = chain_topology(4)
        frame = default_frame_config()
        flows = route_all(topo, FlowSet([
            Flow("f", src=0, dst=3, rate_bps=64_000,
                 delay_budget_s=0.1)]))
        scenario = Scenario(topo, flows, frame=frame)
        search = scenario.schedule()
        assert search.feasible
        scenario.simulate(duration_s=0.3, seed=7)

        repair = RepairEngine(topo, frame)
        repair.install(list(flows))
        repair.retarget(frozenset(), frozenset({(1, 2)}))
        _search()
