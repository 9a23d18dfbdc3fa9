"""Property-based chaos tests for the execution runtime.

The drawn quantity is the chaos schedule itself -- intensity and seed --
and the invariants must hold at *any* draw:

- chaos that stops injecting within the retry budget yields results
  bitwise identical to a chaos-free run (the E22 contract);
- chaos that exhausts the budget (no retries) fails exactly the tasks
  the policy says it hits, with the injected error on record -- never a
  silently wrong value;
- the injection schedule is a pure function of (seed, key, attempt):
  recomputing it gives the same decisions in any order; the key is the
  task's fingerprint-free identity, so source edits move no decision.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.chaos import ChaosPolicy
from repro.runtime.pool import run_tasks
from repro.runtime.tasks import make_task, task_identity

PROBE = "repro.runtime.chaos:chaos_probe"

TASKS = [make_task(PROBE, {"x": x, "seed": 3}) for x in range(6)]
BASELINE = None


def baseline_values():
    global BASELINE
    if BASELINE is None:
        BASELINE = [json.dumps(r.value, sort_keys=True)
                    for r in run_tasks(TASKS, jobs=1)]
    return BASELINE


class FakeTime:
    def __init__(self):
        self.now = 0.0

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


@pytest.mark.chaos
@given(intensity=st.floats(min_value=0.0, max_value=1.0),
       seed=st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_chaos_within_retry_budget_never_changes_results(intensity, seed):
    chaos = ChaosPolicy.at_intensity(intensity, seed=seed, max_attempt=2)
    fake = FakeTime()
    out = run_tasks(TASKS, jobs=1, retries=3, backoff_s=0.1, jitter=0.5,
                    retry_timeouts=True, chaos=chaos,
                    clock=fake.clock, sleep=fake.sleep)
    assert [r.outcome for r in out] == ["ok"] * len(TASKS)
    assert [json.dumps(r.value, sort_keys=True)
            for r in out] == baseline_values()


@pytest.mark.chaos
@given(intensity=st.floats(min_value=0.0, max_value=1.0),
       seed=st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_fatal_chaos_fails_exactly_the_predicted_tasks(intensity, seed):
    """With zero retries, outcomes are decided by the policy alone."""
    chaos = ChaosPolicy.at_intensity(intensity, seed=seed, max_attempt=1)
    fake = FakeTime()
    out = run_tasks(TASKS, jobs=1, retries=0, chaos=chaos,
                    clock=fake.clock, sleep=fake.sleep)
    for result in out:
        action = chaos.task_action(task_identity(result.task), 1)
        if action is None:
            assert result.outcome == "ok"
        elif action == "hang":
            assert result.outcome == "timeout"
        else:
            assert result.outcome == "failed"
            assert "chaos" in result.error
        assert result.attempts == 1


@pytest.mark.chaos
@given(seed=st.integers(0, 10_000),
       keys=st.lists(st.text(min_size=1, max_size=8), min_size=1,
                     max_size=20))
@settings(max_examples=30, deadline=None)
def test_injection_schedule_is_order_independent(seed, keys):
    chaos = ChaosPolicy.at_intensity(0.9, seed=seed, max_attempt=3)
    forward = [(k, a, chaos.task_action(k, a), chaos.cache_action(k),
                chaos.ledger_torn(k, a))
               for k in keys for a in (1, 2, 3)]
    backward = [(k, a, chaos.task_action(k, a), chaos.cache_action(k),
                 chaos.ledger_torn(k, a))
                for k in reversed(keys) for a in (3, 2, 1)]
    assert sorted(map(repr, forward)) == sorted(map(repr, backward))
