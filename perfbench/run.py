"""The repository benchmark: four closed-loop workloads, end-to-end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload plan --seed 1 --seconds 20 --trace 0

``--workload`` is one of ``plan``, ``city``, ``churn`` or ``emulate`` (see
``workloads.py`` and ``BENCHMARK.json`` for what each op is and why).
One process runs one workload with one client, pinned to one CPU (the
highest-numbered one it may use); BLAS/OpenMP pools are capped at one
thread.  The op count is fixed by ``--seconds`` (and, for
``churn``, by the seeded stream), so the deterministic outputs repeat
exactly for a given seed.

``--trace 0`` times the ops with no instrumentation installed and
reports the end-to-end metrics.  ``--trace 1`` runs the same ops
untraced, then again from a fresh set-up with spans around each layer's
entry points (``tracer.py``) and a :class:`repro.obs.MetricsRegistry`
active, and reports the per-layer metrics, the tracing overhead and the
layer-split predictions; the spans are written to
``perfbench/out/spans-<workload>-<seed>.jsonl``.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
# One client on one core: pin before any library starts a thread (the
# HiGHS solver keeps its own worker pool), so every thread inherits it.
CPUS = sorted(os.sched_getaffinity(0))
os.sched_setaffinity(0, {CPUS[-1]})

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: set-ups per run; setup_s reports their median
SETUP_REPS = 3
#: layer-split predictions: (layers whose self time must be >= half the
#: op time, per-layer counters that must be zero, ... that must be > 0)
PREDICTIONS = {
    "plan": (("core.ilp",), (), ()),
    "city": (("core.engine", "phy.models"), ("core.ilp.solves",), ()),
    "churn": (("core.engine", "core.schedule"), (),
              ("core.engine.delta_updates",)),
    "emulate": (("sim",), ("core.ilp.solves",), ()),
}
#: span name -> per-layer metric reporting its summed self time
SPAN_METRICS = {
    "core.engine.lookup": "core.engine.lookup_ms",
    "core.engine.cold_build": "core.engine.cold_build_ms",
    "core.engine.delta": "core.engine.delta_ms",
    "core.engine.index": "core.engine.index_ms",
    "core.ilp.solve": "core.ilp.assembly_ms",
    "core.ilp.milp": "core.ilp.milp_ms",
    "core.ordering.bf": "core.ordering.bf_ms",
    "core.greedy.pack": "core.greedy.pack_ms",
    "core.schedule.s8": "core.schedule.s8_ms",
    "core.repair.retarget": "core.repair.retarget_ms",
    "phy.models.sinr_build": "phy.models.sinr_build_ms",
    "net.routing.route": "net.routing.route_ms",
    "faults.apply": "faults.apply_ms",
    "mobility.stream": "mobility.stream_ms",
    "sim.run": "sim.run_ms",
    "overlay.tdma": "overlay.tdma_ms",
    "dot11.dcf": "dot11.dcf_ms",
}
#: spans whose layer works in set-up: their metric adds the traced set-up
SETUP_SPANS = ("net.routing.route", "mobility.stream")
#: per-layer metric -> repro.obs counter it reads
COUNTER_METRICS = {
    "core.engine.index_hits": "core.engine.index_hits",
    "core.ilp.solves": "core.ilp.solves",
    "core.ilp.infeasible": "core.ilp.infeasible",
    "core.minslots.probes": "core.engine.ilp_probes",
    "core.minslots.bf_shortcuts": "core.engine.bf_shortcuts",
    "core.minslots.undecided": "core.minslots.probe_timeouts",
    "core.repair.local": "core.repair.local",
    "core.repair.resolve": "core.repair.resolve",
    "phy.models.sinr_edges": "phy.sinr.conflict_edges",
}
#: deterministic outputs: metric -> (unit, workloads that produce it)
OUTPUTS = {
    "slots_total": ("count", ("plan", "city")),
    "carried_flow_ticks": ("count", ("churn",)),
    "delivered_packets": ("count", ("emulate",)),
    "sinr_violations": ("count", ("city",)),
}


def fail(message: str) -> None:
    print(f"perfbench: error: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("plan", "city", "churn", "emulate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 1 <= args.seconds <= 600:
        parser.error("--seconds must be between 1 and 600")
    return args


def import_program():
    """Put the checkout's ``src`` first on the path and import the modules."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        fail(f"no repro package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import numpy
    import scipy

    import repro  # noqa: F401
    import tracer
    import workloads
    return numpy, scipy, tracer, workloads


def run_ops(workload, around=None) -> tuple[list[float], dict]:
    """The closed loop: per-op latencies (s) and {op: failure messages}.

    ``around(i)``, when given, is a context manager entered for op ``i``
    only (the traced pass), never for its check.
    """
    workload.engine_stats = []
    # set-up garbage must not be collected on an op's clock
    gc.collect()
    gc.freeze()
    latencies: list[float] = []
    failures: dict = {}
    for i in range(workload.num_ops):
        started = time.perf_counter()
        try:
            if around is None:
                out = workload.run_op(i)
            else:
                with around(i):
                    out = workload.run_op(i)
        except Exception as exc:  # a failing op stays in the workload
            latencies.append(time.perf_counter() - started)
            failures[i] = [f"raised {exc!r}"]
            continue
        latencies.append(time.perf_counter() - started)
        try:
            problems = workload.check(i, out)
        except Exception as exc:
            problems = [f"check raised {exc!r}"]
        if problems:
            failures[i] = problems
    return latencies, failures


def merge(failures: dict, extra: list) -> None:
    """Fold ``(op, message)`` pairs into ``{op: [messages]}``."""
    for op, message in extra:
        failures.setdefault(op, []).append(message)


def tail_percentile(ordered: list[float]) -> tuple[str, float, int]:
    """Highest of p99/p90/p75 with at least ten ops beyond it."""
    n = len(ordered)
    for q in (99, 90, 75):
        rank = math.ceil(q / 100 * n)
        if n - rank >= 10:
            return f"p{q}", ordered[rank - 1], n - rank
    rank = math.ceil(n / 2)
    return "p50", ordered[rank - 1], n - rank


def end_to_end(latencies, failures, setup_s) -> tuple[dict, dict]:
    ordered = sorted(latencies)
    label, tail, beyond = tail_percentile(ordered)
    metrics = {
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    info = {"ops": len(latencies), "tail": label, "beyond_tail": beyond,
            "failed_frac": len(failures) / len(latencies)}
    return metrics, info


def layer_report(trace, registry_counters, workload_name, outputs,
                 overhead_pct) -> tuple[dict, list[str]]:
    """Per-layer metrics from the spans and counters, plus report lines."""
    selfs = trace.self_times()
    span_ms = dict.fromkeys(SPAN_METRICS, 0.0)
    layer_s: dict[str, float] = {}
    op_total = unaccounted = 0.0
    events = delta_ok = delta_none = cold = 0
    for (name, op, _parent, start, end, attrs), self_s in zip(trace.spans,
                                                              selfs):
        in_op = isinstance(op, int)
        if name == "op":
            op_total += end - start
            unaccounted += self_s
            continue
        if name in span_ms and (in_op or name in SETUP_SPANS):
            span_ms[name] += self_s * 1e3
        if not in_op:
            continue
        layer = name.rsplit(".", 1)[0]  # core.ilp.solve -> core.ilp
        layer_s[layer] = layer_s.get(layer, 0.0) + self_s
        if name == "sim.run":
            events += attrs["events"]
        elif name == "core.engine.delta":
            delta_ok += attrs["applied"]
            delta_none += not attrs["applied"]
        elif name == "core.engine.cold_build":
            cold += 1
    metrics = {SPAN_METRICS[name]: (ms, "ms") for name, ms in span_ms.items()}
    metrics.update({
        "core.engine.cold_builds": (cold, "count"),
        "core.engine.delta_updates": (delta_ok, "count"),
        "core.engine.delta_fallbacks": (delta_none, "count"),
        "sim.events": (events, "count"),
        "sim.event_us": ((span_ms["sim.run"] * 1e3 / events) if events
                         else 0.0, "us"),
        "unaccounted_ms": (unaccounted * 1e3, "ms"),
        "trace_overhead_pct": (overhead_pct, "%"),
    })
    for metric, counter in COUNTER_METRICS.items():
        metrics[metric] = (registry_counters.get(counter, 0), "count")
    for metric, (unit, _owners) in OUTPUTS.items():
        metrics[metric] = (outputs.get(metric, 0), unit)

    lines = ["layer self time, share of op time:"]
    shares = {layer: s / op_total for layer, s in layer_s.items()}
    shares["(unaccounted)"] = unaccounted / op_total
    for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:<16} {share * 100:6.1f} %")
    heavy, zero, positive = PREDICTIONS[workload_name]
    share = sum(shares.get(layer, 0.0) for layer in heavy)
    verdicts = [(f"{' + '.join(heavy)} >= 50% of op time ({share * 100:.1f}%)",
                 share >= 0.5)]
    verdicts += [(f"{m} == 0 ({metrics[m][0]})", metrics[m][0] == 0)
                 for m in zero]
    verdicts += [(f"{m} > 0 ({metrics[m][0]})", metrics[m][0] > 0)
                 for m in positive]
    for text, ok in verdicts:
        lines.append(f"prediction {'PASS' if ok else 'FAIL'}: {text}")
    return metrics, lines


def print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:14.4f} {unit}")


def main() -> None:
    args = parse_args()
    numpy, scipy, tracer_mod, workloads = import_program()
    from repro import obs

    import_s = time.perf_counter() - PROCESS_START
    workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds)
    setup_times = []
    for _ in range(SETUP_REPS):
        started = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - started)
    setup_s = import_s + statistics.median(setup_times)

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"env nproc={os.cpu_count()} allowed_cpus={len(CPUS)} "
          f"pinned_cpu={CPUS[-1]} "
          f"python={platform.python_version()} numpy={numpy.__version__} "
          f"scipy={scipy.__version__} blas_threads=1 clients=1")
    print(f"op: {workload.op}")

    latencies, failures = run_ops(workload)
    untraced_wall = sum(latencies)
    if not args.trace:
        merge(failures, workload.finish())
    outputs = workload.outputs()
    metrics, info = end_to_end(latencies, failures, setup_s)
    print(f"ops={info['ops']} failed={len(failures)} "
          f"failed_frac={info['failed_frac']:.4f} tail={info['tail']} "
          f"({info['beyond_tail']} ops beyond) "
          f"setup_import_s={import_s:.3f}")
    print_metrics("end-to-end:", metrics)
    for metric, (unit, owners) in OUTPUTS.items():
        shown = outputs.get(metric) if args.workload in owners else "n/a"
        print(f"  {metric:<28} {shown!s:>14} {unit}")
    attempted = len(latencies)

    if args.trace:
        trace = tracer_mod.Tracer()
        trace.install()
        registry = obs.MetricsRegistry()
        with trace.root("setup"):
            workload.setup()

        @contextlib.contextmanager
        def around(i):
            with trace.root(i), obs.use_registry(registry):
                yield

        traced, traced_failures = run_ops(workload, around)
        trace.uninstall()
        merge(traced_failures, workload.finish())
        if workload.outputs() != outputs:
            merge(traced_failures, [(
                "outputs", f"untraced pass gave {outputs}, traced pass "
                f"{workload.outputs()}")])
        for op, messages in traced_failures.items():
            failures[f"traced {op}"] = messages
        attempted += len(traced)
        overhead_pct = (sum(traced) / untraced_wall - 1.0) * 100.0
        metrics, lines = layer_report(
            trace, registry.snapshot()["counters"], args.workload,
            workload.outputs(), overhead_pct)
        stats: dict[str, int] = {}
        for engine_stats in workload.engine_stats:
            for key, value in engine_stats.items():
                stats[key] = stats.get(key, 0) + value
        print(f"traced op phase {sum(traced):.3f} s vs untraced "
              f"{untraced_wall:.3f} s: overhead {overhead_pct:+.1f} %")
        print(f"SolverEngine.stats (summed over the traced ops): {stats}")
        print_metrics("per-layer:", metrics)
        for line in lines:
            print(line)
        spans_path = HERE / "out" / f"spans-{args.workload}-{args.seed}.jsonl"
        trace.dump(spans_path)
        print(f"spans: {spans_path.relative_to(ROOT)}")

    for op, messages in list(failures.items())[:20]:
        print(f"FAILED op {op}: {'; '.join(messages)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
