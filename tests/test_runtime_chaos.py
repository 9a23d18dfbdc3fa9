"""Runtime fault injection: the chaos policy and the hardening it tests.

The contract under test throughout: chaos that stops injecting within
the retry budget must leave results bitwise identical to a clean run,
while chaos that exhausts the budget fails loudly with a precise ledger
trail -- never a silently wrong or missing row.
"""

import json

import pytest

from repro import obs
from repro.errors import ConfigurationError
from repro.runtime.cache import ResultCache
from repro.runtime.chaos import (
    ChaosPolicy,
    chaos_probe,
    deterministic_unit,
    tear_file,
)
from repro.runtime.ledger import RunLedger
from repro.runtime.pool import run_tasks
from repro.runtime.tasks import make_task

PROBE = "repro.runtime.chaos:chaos_probe"


def probe_tasks(n=6, seed=7):
    return [make_task(PROBE, {"x": x, "seed": seed}) for x in range(n)]


class FakeTime:
    """Monotonic clock + sleep pair that never really waits."""

    def __init__(self):
        self.now = 0.0
        self.slept = []

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.slept.append(seconds)
        self.now += seconds


# ---------------------------------------------------------------------------
# deterministic_unit / policy mechanics
# ---------------------------------------------------------------------------

def test_deterministic_unit_is_stable_and_uniformish():
    values = [deterministic_unit("site", k, 1) for k in range(200)]
    assert values == [deterministic_unit("site", k, 1) for k in range(200)]
    assert all(0.0 <= v < 1.0 for v in values)
    assert 0.3 < sum(values) / len(values) < 0.7


def test_policy_validation():
    with pytest.raises(ConfigurationError):
        ChaosPolicy(crash_rate=1.2)
    with pytest.raises(ConfigurationError):
        ChaosPolicy(crash_rate=0.6, hang_rate=0.3, transient_rate=0.3)
    with pytest.raises(ConfigurationError):
        ChaosPolicy(torn_cache_rate=0.7, enospc_rate=0.7)
    with pytest.raises(ConfigurationError):
        ChaosPolicy(hang_s=0.0)
    with pytest.raises(ConfigurationError):
        ChaosPolicy(max_attempt=0)
    with pytest.raises(ConfigurationError):
        ChaosPolicy.at_intensity(1.5)


def test_task_action_partitions_one_draw_and_respects_max_attempt():
    policy = ChaosPolicy(seed=3, crash_rate=0.3, hang_rate=0.3,
                         transient_rate=0.4, max_attempt=2)
    actions = {policy.task_action(f"k{i}", 1) for i in range(50)}
    assert actions == {"crash", "hang", "transient"}  # rates sum to 1
    assert all(policy.task_action(f"k{i}", 3) is None for i in range(50))
    # Decisions are pure functions of (seed, key, attempt).
    assert [policy.task_action(f"k{i}", 1) for i in range(50)] == \
        [policy.task_action(f"k{i}", 1) for i in range(50)]


def test_tear_file_damages_but_keeps_a_prefix(tmp_path):
    path = tmp_path / "entry.json"
    path.write_text(json.dumps({"value": list(range(100))}))
    size = path.stat().st_size
    assert tear_file(path) is True
    torn = path.stat().st_size
    assert 0 < torn < size
    with pytest.raises(json.JSONDecodeError):
        json.loads(path.read_text())
    assert tear_file(tmp_path / "missing.json") is False


def test_chaos_probe_is_deterministic():
    assert chaos_probe(3, seed=9) == chaos_probe(3, seed=9)
    assert chaos_probe(3, seed=9) != chaos_probe(4, seed=9)


# ---------------------------------------------------------------------------
# serial chaos: convergence and loud failure
# ---------------------------------------------------------------------------

def test_serial_chaos_within_budget_is_bitwise_identical(tmp_path):
    tasks = probe_tasks()
    baseline = run_tasks(tasks, jobs=1)
    chaos = ChaosPolicy.at_intensity(1.0, seed=5, max_attempt=2)
    fake = FakeTime()
    cache = ResultCache(tmp_path / "cache")
    ledger = RunLedger(tmp_path / "ledger.jsonl")
    out = run_tasks(tasks, jobs=1, retries=3, backoff_s=0.2, jitter=0.5,
                    retry_timeouts=True, chaos=chaos, cache=cache,
                    ledger=ledger, clock=fake.clock, sleep=fake.sleep)
    assert [r.outcome for r in out] == ["ok"] * len(tasks)
    assert [r.value for r in out] == [r.value for r in baseline]
    assert any(r.attempts > 1 for r in out)
    assert fake.slept, "backoff must go through the injected sleep"
    assert len(ledger.entries()) == len(tasks)


def test_chaos_decisions_ignore_the_source_fingerprint(tmp_path):
    """A source edit moves every cache/ledger key but no chaos decision:
    faults are drawn on the task's fingerprint-free identity."""
    tasks = probe_tasks()
    chaos = ChaosPolicy.at_intensity(1.0, seed=4, max_attempt=2)

    def run(fingerprint):
        fake = FakeTime()
        with obs.use_registry(obs.MetricsRegistry()) as registry:
            out = run_tasks(
                tasks, jobs=1, retries=3, retry_timeouts=True, chaos=chaos,
                cache=ResultCache(tmp_path / fingerprint,
                                  fingerprint=fingerprint),
                ledger=RunLedger(tmp_path / f"{fingerprint}.jsonl"),
                clock=fake.clock, sleep=fake.sleep)
        counters = {name: value for name, value
                    in registry.snapshot()["counters"].items()
                    if name.startswith("runtime.chaos.")}
        return out, counters

    first, first_counters = run("a" * 16)
    second, second_counters = run("b" * 16)
    assert all(a.key != b.key for a, b in zip(first, second))
    assert ([(r.outcome, r.attempts) for r in first]
            == [(r.outcome, r.attempts) for r in second])
    assert first_counters == second_counters
    assert sum(first_counters.values()) > 0
    assert any(r.attempts > 1 for r in first)


def test_fatal_chaos_fails_loudly_with_ledger_trail(tmp_path):
    tasks = probe_tasks(4)
    chaos = ChaosPolicy(seed=1, crash_rate=1.0, max_attempt=3)
    ledger = RunLedger(tmp_path / "ledger.jsonl")
    fake = FakeTime()
    out = run_tasks(tasks, jobs=1, retries=1, chaos=chaos, ledger=ledger,
                    clock=fake.clock, sleep=fake.sleep)
    assert [r.outcome for r in out] == ["failed"] * 4
    assert all(r.attempts == 2 for r in out)
    assert all("chaos" in r.error for r in out)
    entries = ledger.entries()
    assert len(entries) == 4
    assert all(e["outcome"] == "failed" and "chaos" in e["error"]
               for e in entries)
    # Every attempt left a start event: 2 per task.
    starts = [e for e in ledger.events() if e.get("event") == "start"]
    assert len(starts) == 8


def test_serial_hang_becomes_timeout_without_sleeping():
    tasks = probe_tasks(3)
    chaos = ChaosPolicy(seed=2, hang_rate=1.0, hang_s=60.0, max_attempt=9)
    fake = FakeTime()
    out = run_tasks(tasks, jobs=1, retries=2, chaos=chaos,
                    clock=fake.clock, sleep=fake.sleep)
    assert [r.outcome for r in out] == ["timeout"] * 3
    assert all(r.attempts == 1 for r in out)  # not retried by default


def test_serial_hang_retried_under_retry_timeouts():
    tasks = probe_tasks(3)
    chaos = ChaosPolicy(seed=2, hang_rate=1.0, hang_s=60.0, max_attempt=1)
    fake = FakeTime()
    with obs.use_registry(obs.MetricsRegistry()) as registry:
        out = run_tasks(tasks, jobs=1, retries=1, retry_timeouts=True,
                        chaos=chaos, clock=fake.clock, sleep=fake.sleep)
    assert [r.outcome for r in out] == ["ok"] * 3
    assert all(r.attempts == 2 for r in out)
    counters = registry.snapshot()["counters"]
    assert counters["runtime.pool.timeout_retries"] == 3
    assert counters["runtime.chaos.hangs"] == 3


# ---------------------------------------------------------------------------
# cache-write chaos
# ---------------------------------------------------------------------------

def test_torn_cache_writes_quarantine_and_recompute(tmp_path):
    tasks = probe_tasks(4)
    chaos = ChaosPolicy(seed=4, torn_cache_rate=1.0)
    cache = ResultCache(tmp_path / "cache")
    with obs.use_registry(obs.MetricsRegistry()) as registry:
        out = run_tasks(tasks, jobs=1, chaos=chaos, cache=cache)
        assert all(r.outcome == "ok" for r in out)
        counters = registry.snapshot()["counters"]
        assert counters["runtime.chaos.torn_cache_writes"] == 4
        # Damaged entries are quarantined on read; values recompute.
        assert all(cache.get(task) is None for task in tasks)
    assert sum(1 for p in cache.quarantine_dir.iterdir()
               if p.is_file()) == 4
    warm = run_tasks(tasks, jobs=1, cache=ResultCache(tmp_path / "cache"))
    assert [r.value for r in warm] == [r.value for r in out]


def test_enospc_chaos_skips_cache_but_not_results(tmp_path):
    tasks = probe_tasks(3)
    chaos = ChaosPolicy(seed=4, enospc_rate=1.0)
    cache = ResultCache(tmp_path / "cache")
    with obs.use_registry(obs.MetricsRegistry()) as registry:
        out = run_tasks(tasks, jobs=1, chaos=chaos, cache=cache)
        counters = registry.snapshot()["counters"]
    assert all(r.outcome == "ok" for r in out)
    assert counters["runtime.chaos.enospc"] == 3
    assert counters["runtime.cache.write_errors"] == 3
    assert all(cache.get(task) is None for task in tasks)


def test_torn_ledger_writes_recover_on_jsonl(tmp_path):
    tasks = probe_tasks(3)
    chaos = ChaosPolicy(seed=6, torn_ledger_rate=1.0)
    ledger = RunLedger(tmp_path / "ledger.jsonl")
    out = run_tasks(tasks, jobs=1, chaos=chaos, ledger=ledger)
    assert all(r.outcome == "ok" for r in out)
    entries = ledger.entries()
    assert len(entries) == 3  # every record survived its torn prefix
    assert ledger.corrupt_lines == 3  # and every torn prefix is counted


# ---------------------------------------------------------------------------
# parallel chaos: real crashes, pool rebuilds
# ---------------------------------------------------------------------------

def test_parallel_crashes_rebuild_pool_and_converge(tmp_path):
    tasks = probe_tasks(4)
    baseline = run_tasks(tasks, jobs=1)
    chaos = ChaosPolicy(seed=8, crash_rate=1.0, max_attempt=1)
    with obs.use_registry(obs.MetricsRegistry()) as registry:
        out = run_tasks(tasks, jobs=2, retries=1, backoff_s=0.01,
                        chaos=chaos)
        counters = registry.snapshot()["counters"]
    assert [r.outcome for r in out] == ["ok"] * 4
    assert all(r.attempts == 2 for r in out)
    assert [r.value for r in out] == [r.value for r in baseline]
    assert counters["runtime.pool.pool_restarts"] >= 1
    assert counters["runtime.chaos.crashes"] == 4


def test_parallel_fatal_crashes_fail_loudly():
    tasks = probe_tasks(2)
    chaos = ChaosPolicy(seed=8, crash_rate=1.0, max_attempt=5)
    out = run_tasks(tasks, jobs=2, retries=1, backoff_s=0.01, chaos=chaos)
    assert [r.outcome for r in out] == ["failed"] * 2
    assert all("worker process died" in r.error for r in out)


def test_parallel_hangs_require_timeout():
    chaos = ChaosPolicy(seed=1, hang_rate=0.5, hang_s=30.0)
    with pytest.raises(ConfigurationError):
        run_tasks(probe_tasks(2), jobs=2, chaos=chaos)
    with pytest.raises(ConfigurationError):
        run_tasks(probe_tasks(2), jobs=2, timeout_s=60.0, chaos=chaos)


def test_serial_and_parallel_chaos_agree_on_accounting(tmp_path):
    """Same policy, same tasks: identical outcomes, attempts, counters."""
    tasks = probe_tasks(5)
    chaos = ChaosPolicy(seed=12, crash_rate=0.3, transient_rate=0.4,
                        max_attempt=2)

    def run(jobs):
        with obs.use_registry(obs.MetricsRegistry()) as registry:
            out = run_tasks(tasks, jobs=jobs, retries=3, backoff_s=0.01,
                            chaos=chaos)
            counters = registry.snapshot()["counters"]
        return out, {k: v for k, v in counters.items()
                     if k.startswith("runtime.chaos.")}

    serial, serial_counters = run(1)
    parallel, parallel_counters = run(2)
    assert [r.value for r in serial] == [r.value for r in parallel]
    assert [r.attempts for r in serial] == [r.attempts for r in parallel]
    assert serial_counters == parallel_counters
