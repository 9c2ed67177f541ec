"""Full-runtime benchmark: one workload per call, end-to-end or per-layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fleet_echo --seed 0 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics from a separate traced run and writes the spans as
Chrome trace-event JSON under ``.perfbench_out/``.  Human-readable lines
(raw and drift-corrected timings of every drive, end state, checks) come
first; the last line of standard output is the JSON result.  See
perfbench/README.md for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from perfbench.drift import (  # noqa: E402
    REFERENCE_NOMINAL_S,
    NullSlicer,
    Slicer,
    reference_median,
)
from perfbench.workloads import WORKLOADS, ClusterWorkload, percentile  # noqa: E402

SETUP_PROBES = 5
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

END_TO_END = (
    ("host_us_per_inv", "us"),
    ("host_us_per_inv_p90", "us"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("completed_share", "ratio"),
    ("sim_committed_mib", "MiB"),
)

# Simulated latencies are deterministic per seed: the same on every run of
# one seed, and at several seeds pinned to a few service-time levels, so
# they are reported with the per-layer figures (see README.md).
PER_LAYER = (
    ("sim_p50_ms", "ms"),
    ("sim_p99_ms", "ms"),
    ("sim.self_us_per_inv", "us"),
    ("sim.events_per_inv", "count"),
    ("sim.resumes_per_inv", "count"),
    ("sim.host_ns_per_event", "ns"),
    ("sharded.self_us_per_inv", "us"),
    ("sharded.events_per_inv", "count"),
    ("sharded.windows", "count"),
    ("trace.self_us_per_inv", "us"),
    ("trace.setup_s", "s"),
    ("cluster.self_us_per_inv", "us"),
    ("cluster.attempts_per_inv", "count"),
    ("cluster.hedge_win_ratio", "ratio"),
    ("cluster.quarantines", "count"),
    ("sched.self_us_per_inv", "us"),
    ("sched.decisions_per_inv", "count"),
    ("dispatcher.self_us_per_inv", "us"),
    ("dispatcher.tasks_per_inv", "count"),
    ("dispatcher.retries_per_inv", "count"),
    ("engines.compute.self_us_per_inv", "us"),
    ("engines.comm.self_us_per_inv", "us"),
    ("engines.comm.exchanges_per_inv", "count"),
    ("engines.compute_util", "ratio"),
    ("backends.self_us_per_inv", "us"),
    ("functions.self_us_per_inv", "us"),
    ("functions.guard_entries_per_inv", "count"),
    ("apps.self_us_per_inv", "us"),
    ("data.self_us_per_inv", "us"),
    ("data.calls_per_inv", "count"),
    ("data.bytes_stored_per_inv", "B"),
    ("data.committed_peak_mib", "MiB"),
    ("net.self_us_per_inv", "us"),
    ("net.bytes_per_inv", "B"),
    ("setup.import_s", "s"),
    ("setup.assemble_s", "s"),
    ("setup.trace_s", "s"),
    ("runtime.gc_ms_per_kinv", "ms"),
    ("runtime.gc_collections_per_kinv", "count"),
    ("harness.share", "ratio"),
    ("coverage.share", "ratio"),
    ("trace_overhead", "ratio"),
)


class GcWatch:
    """Collector pauses and collections while ``active`` (via gc.callbacks)."""

    def __init__(self):
        self.active = False
        self.collections = 0
        self.seconds = 0.0
        self._started = None

    def __call__(self, phase, _info):
        if not self.active:
            return
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            self.seconds += time.perf_counter() - self._started
            self.collections += 1
            self._started = None


# -- set-up probes ------------------------------------------------------------------


class _FirstEvent(Exception):
    """Stops a set-up probe at the first simulated event."""


def setup_probe(name, seed):
    """Host time from before the first repro import to the first event.

    Runs in a fresh interpreter so the import is really the first one.
    """
    workload = WORKLOADS[name]()
    ref_before = reference_median(5)
    start = time.perf_counter()
    import repro.scenario  # noqa: F401  (the first repro import)
    import repro.apps  # noqa: F401
    import repro.sim.sharded  # noqa: F401
    import repro.trace.stream  # noqa: F401
    imported = time.perf_counter()
    prepared = workload.prepare(seed)
    if isinstance(workload, ClusterWorkload):
        workload.start(prepared)
        prepared.cluster.env.step()
    else:
        def stop():
            raise _FirstEvent()
        try:
            workload.drive(prepared, NullSlicer(), on_first=stop)
        except _FirstEvent:
            pass
    end = time.perf_counter()
    scale = REFERENCE_NOMINAL_S / statistics.median(
        [ref_before, reference_median(5)])
    return {
        "setup_s": (end - start) * scale,
        "raw_s": end - start,
        "import_s": (imported - start) * scale,
        "trace_s": prepared.trace_s * scale,
        # Everything else before the first event: cluster assembly and
        # registration, or the replayer's shard and executor set-up.
        "assemble_s": (end - imported - prepared.trace_s) * scale,
    }


def run_setup_probes(name, seed, count=SETUP_PROBES):
    probes = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        probes.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return {key: statistics.median(p[key] for p in probes) for key in probes[0]}


# -- drives ------------------------------------------------------------------------------


class Drive:
    """One measured drive: host timings plus the simulated outcome."""

    def __init__(self, slicer, outcome, problems):
        self.outcome = outcome
        self.problems = problems
        offered = max(outcome.offered, 1)
        corrected = slicer.corrected()
        self.raw_us = slicer.raw_seconds / offered * 1e6
        self.corrected_us = sum(corrected) / offered * 1e6
        self.ref_ms = statistics.median(slicer.refs) * 1e3
        per_slice = sorted(
            seconds / due * 1e6
            for seconds, due in zip(corrected, slicer.counts) if due > 0
        )
        self.p90_us = percentile(per_slice, 90)
        self.slices = len(corrected)
        self.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measured_drives(workload, seed, seconds, gc_watch, min_drives=2):
    drives = []
    deadline = time.perf_counter() + seconds
    while True:
        prepared = workload.prepare(seed)
        gc.collect()
        slicer = Slicer()
        gc_watch.active = True
        outcome = workload.drive(prepared, slicer)
        gc_watch.active = False
        problems = workload.check(prepared, outcome)
        drives.append(Drive(slicer, outcome, problems))
        del prepared
        if time.perf_counter() >= deadline and len(drives) >= min_drives:
            return drives


def report_drives(drives):
    for i, d in enumerate(drives):
        o = d.outcome
        print(f"drive {i}: raw {d.raw_us:.2f} us/inv, corrected {d.corrected_us:.2f} "
              f"us/inv (ref loop {d.ref_ms:.3f} ms), slice p90 {d.p90_us:.2f}, "
              f"{d.slices} slices, offered {o.offered} completed {o.completed} "
              f"failed {o.failed}, digest {o.digest()[:12]}")
    first = drives[0].outcome
    print(f"raw median {statistics.median(d.raw_us for d in drives):.2f} us/inv; "
          f"simulated p50 {first.sim_percentile_ms(50):.4f} ms, "
          f"p99 {first.sim_percentile_ms(99):.4f} ms")
    print("end state after drive: "
          + ", ".join(f"{k}={v}" for k, v in first.end_state.items()))


def correctness(workload, seed, drives):
    problems = []
    for d in drives:
        problems.extend(d.problems)
    digests = {d.outcome.digest() for d in drives}
    if len(digests) != 1:
        problems.append(f"simulated outputs differ across drives: {sorted(digests)}")
    if workload.check_equivalence is not None:
        problems.extend(workload.check_equivalence(seed))
    return problems


def end_to_end_metrics(drives, setup):
    first = drives[0].outcome
    return {
        "host_us_per_inv": statistics.median(d.corrected_us for d in drives),
        "host_us_per_inv_p90": statistics.median(d.p90_us for d in drives),
        "setup_s": setup["setup_s"],
        # After the first drive: later drives only add allocator
        # fragmentation that grows with the number of drives a run fits.
        "peak_rss_mib": drives[0].peak_rss_mib,
        "completed_share": first.completed / first.offered,
        "sim_committed_mib": first.committed_mib,
    }


# -- traced run ------------------------------------------------------------------------


class WallSlicer:
    """Wall time of a traced drive, without reference loops inside it."""

    def __init__(self):
        self.seconds = 0.0
        self._started = 0.0

    def begin(self):
        self._started = time.perf_counter()

    def cut(self, due):
        now = time.perf_counter()
        self.seconds += now - self._started
        self._started = now


def traced_drive(workload, seed, tracer):
    from perfbench import tracing

    patches = tracing.install(tracer)
    try:
        prepared = workload.prepare(seed)
        cluster_workload = isinstance(workload, ClusterWorkload)
        if cluster_workload:
            tracing.wrap_user_functions(patches, prepared.cluster, tracer)
        # The collector stays off while tracing, so its pauses do not land
        # in whichever span happened to allocate; the untraced drives
        # report them as runtime.*.
        gc.collect()
        gc.disable()
        ref_before = reference_median()
        slicer = WallSlicer()
        try:
            if cluster_workload:
                outcome = workload.drive(prepared, slicer, tag=tracer.tag)
            else:
                outcome = workload.drive(prepared, slicer,
                                         wrap_next=tracing.traced_stream(tracer))
        finally:
            gc.enable()
        scale = REFERENCE_NOMINAL_S / statistics.median([ref_before, reference_median()])
        problems = workload.check(prepared, outcome)
    finally:
        patches.undo()
    return outcome, slicer.seconds, scale, problems


def per_layer_metrics(workload, outcome, tracer, traced_s, scale, untraced_us,
                      gc_watch, untraced_invocations, setup):
    offered = max(outcome.offered, 1)
    counts = outcome.layer_counts
    layer_ns = tracer.layer_self_ns()
    wall_ns = traced_s * 1e9

    def self_us(layer):
        return layer_ns.get(layer, 0) * scale / 1e3 / offered

    events = counts.get("events", 0)
    hedges = counts.get("hedges", 0)
    kinv = max(untraced_invocations, 1) / 1e3
    traced_us = traced_s * scale / offered * 1e6
    metrics = {
        "sim_p50_ms": outcome.sim_percentile_ms(50),
        "sim_p99_ms": outcome.sim_percentile_ms(99),
        "sim.self_us_per_inv": self_us("sim"),
        "sim.events_per_inv": events / offered,
        "sim.resumes_per_inv": tracer.resumes / offered,
        "sim.host_ns_per_event": (layer_ns.get("sim", 0) * scale / events) if events else 0.0,
        "sharded.self_us_per_inv": self_us("sharded"),
        "sharded.events_per_inv": counts.get("sharded_events", 0) / offered,
        "sharded.windows": counts.get("windows", 0),
        "trace.self_us_per_inv": self_us("trace"),
        # Only the replay builds its trace with repro.trace; the cluster
        # workloads draw arrivals with the scenario engine.
        "trace.setup_s": 0.0 if isinstance(workload, ClusterWorkload) else setup["trace_s"],
        "cluster.self_us_per_inv": self_us("cluster"),
        "cluster.attempts_per_inv":
            (counts.get("routed", 0) + counts.get("retries", 0)) / offered,
        "cluster.hedge_win_ratio": counts.get("hedges_won", 0) / hedges if hedges else 0.0,
        "cluster.quarantines": counts.get("quarantines", 0),
        "sched.self_us_per_inv": self_us("sched"),
        "sched.decisions_per_inv": tracer.calls_with_prefix("sched:") / offered,
        "dispatcher.self_us_per_inv": self_us("dispatcher"),
        "dispatcher.tasks_per_inv": counts.get("tasks", 0) / offered,
        "dispatcher.retries_per_inv": counts.get("retries", 0) / offered,
        "engines.compute.self_us_per_inv": self_us("engines.compute"),
        "engines.comm.self_us_per_inv": self_us("engines.comm"),
        "engines.comm.exchanges_per_inv": counts.get("net_requests", 0) / offered,
        "engines.compute_util": counts.get("compute_util", 0.0),
        "backends.self_us_per_inv": self_us("backends"),
        "functions.self_us_per_inv": self_us("functions"),
        "functions.guard_entries_per_inv":
            tracer.calls.get("functions:_PurityGuard.__enter__", 0) / offered,
        "apps.self_us_per_inv": self_us("apps"),
        "data.self_us_per_inv": self_us("data"),
        "data.calls_per_inv": tracer.calls_with_prefix("data:") / offered,
        "data.bytes_stored_per_inv": tracer.bytes_stored / offered,
        "data.committed_peak_mib": counts.get("committed_peak_mib", 0.0),
        "net.self_us_per_inv": self_us("net"),
        "net.bytes_per_inv": counts.get("net_bytes", 0) / offered,
        "setup.import_s": setup["import_s"],
        "setup.assemble_s": setup["assemble_s"],
        "setup.trace_s": setup["trace_s"],
        "runtime.gc_ms_per_kinv": gc_watch.seconds * 1e3 / kinv,
        "runtime.gc_collections_per_kinv": gc_watch.collections / kinv,
        "harness.share": layer_ns.get("harness", 0) / wall_ns,
        "coverage.share": tracer.root_ns / wall_ns,
        "trace_overhead": traced_us / untraced_us,
    }
    return metrics


# -- entry point ------------------------------------------------------------------------


def emit(correct, attempted, failed, values, table):
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in table}
    for name, unit in table:
        print(f"{name} = {values[name]!r} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        print(json.dumps(setup_probe(args.workload, args.seed)))
        return 0

    workload = WORKLOADS[args.workload]()
    setup = run_setup_probes(args.workload, args.seed)
    print(f"setup: {setup['setup_s']:.4f} s corrected ({setup['raw_s']:.4f} s raw), "
          f"median of {SETUP_PROBES} fresh interpreters")

    gc_watch = GcWatch()
    gc.callbacks.append(gc_watch)
    try:
        untraced_seconds = args.seconds if not args.trace else args.seconds * 0.4
        drives = measured_drives(workload, args.seed, untraced_seconds, gc_watch,
                                 min_drives=2 if not args.trace else 1)
    finally:
        gc.callbacks.remove(gc_watch)
    report_drives(drives)
    untraced_us = statistics.median(d.corrected_us for d in drives)
    attempted = sum(d.outcome.offered for d in drives)
    failed = sum(d.outcome.failed for d in drives)

    if not args.trace:
        values = end_to_end_metrics(drives, setup)
        problems = correctness(workload, args.seed, drives)
        for problem in problems:
            print(f"CHECK FAILED: {problem}")
        emit(not problems, attempted, failed, values, END_TO_END)
        return 0

    from perfbench.tracing import Tracer

    tracer = Tracer()
    outcome, traced_s, scale, traced_problems = traced_drive(workload, args.seed, tracer)
    problems = correctness(workload, args.seed, drives) + traced_problems
    if outcome.digest() != drives[0].outcome.digest():
        problems.append("tracing changed the simulated outputs")
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    tracer.write_chrome_trace(path)
    print(f"traced drive: {traced_s:.3f} s wall, {len(tracer.records)} spans -> {path}")
    values = per_layer_metrics(
        workload, outcome, tracer, traced_s, scale, untraced_us, gc_watch,
        attempted, setup,
    )
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    emit(not problems, attempted + outcome.offered, failed + outcome.failed,
         values, PER_LAYER)
    return 0


if __name__ == "__main__":
    sys.exit(main())
