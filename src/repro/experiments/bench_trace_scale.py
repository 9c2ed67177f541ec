"""Trace-scale benchmark: the sharded lean replayer at 10× trace scale.

Times :mod:`repro.sim.sharded` over one streamed invocation stream at
several shard counts and executors.  The numbers land in
``BENCH_trace_scale.json``; ``benchmarks/test_trace_scale.py`` (the CI
trace-scale job) re-measures the 10× matrix, gates every row on
:data:`FLOORS` and checks the shard-count invariance of the rendered
``fig10_full`` result.

Scale is relative to ``run_fig10``'s 100-function sample: ``scale=10``
is 1,000 functions at 120 rps aggregate over the same 1200 s window
(~70k invocations), ``scale=100`` is the fig10_full headline (10,000
functions, ~670k invocations).

The sharded replayer is the repo's only trace-replay model.  The eager
single-kernel replayer and the generator+``Resource`` shard kernel it
replaced are gone; their last measurements stay as frozen reference
numbers (:data:`REFERENCE_10X`, :data:`REFERENCE_100X`), measured on
the development machine like ``bench_kernel.REFERENCE``.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time

__all__ = [
    "run_trace_scale_bench",
    "trace_scale_matrix",
    "DEFAULT_OUTPUT",
    "FLOORS",
    "REFERENCE_10X",
    "REFERENCE_100X",
]

DEFAULT_OUTPUT = "BENCH_trace_scale.json"

# CI gate (benchmarks/test_trace_scale.py): every re-measured row must
# clear the events/sec floor, set to hold even on a single-CPU host
# where the 4-shard run falls back to serial stepping.  The 100× floor
# is the acceptance record, asserted against REFERENCE_100X whenever
# the benchmark is (re)generated.
FLOORS = {
    "events_per_second_min": 40_000,
    "speedup_4_shards_min_100x": 3.0,
}

# Last 10× measurement of the deleted kernels (scale=10: 1,000
# functions, 69,633 invocations, 4×64-core fleet) on the same 1-CPU
# development machine as REFERENCE_100X: the eager single-kernel
# replayer (trace materialization + one pooled-core kernel) and the
# generator+Resource shard kernel, next to the lean kernel of the same
# run.  Frozen: nothing re-measures them.
REFERENCE_10X = {
    "scale": 10,
    "invocations": 69_633,
    "workers": 4,
    "cores_per_worker": 64,
    "cpu_count": 1,
    "baseline_single_kernel_seconds": 2.387,
    "baseline_trace_materialize_seconds": 0.326,
    "sharded_classic_1_serial_seconds": 1.533,
    "sharded_lean_1_serial_seconds": 0.698,
    "sharded_lean_4_auto_seconds": 1.118,
    "speedup_lean_1_vs_baseline": 3.42,
    "speedup_4_shards_vs_baseline": 2.14,
    "machine": "Linux x86_64 dev container, CPython 3.11, 1 CPU",
}

# Measured once at full fig10_full scale (scale=100: 10,000 functions,
# 670,847 invocations, 25×64-core fleet) on the development machine —
# a 1-CPU container, so the 4-shard row runs the serial executor and
# the speedup is pure kernel + data-plane work, with zero parallelism.
REFERENCE_100X = {
    "scale": 100,
    "invocations": 670_847,
    "workers": 25,
    "cores_per_worker": 64,
    "cpu_count": 1,
    "baseline_single_kernel_seconds": 78.9,
    "baseline_trace_materialize_seconds": 5.2,
    "sharded_classic_1_serial_seconds": 19.4,
    "sharded_lean_1_serial_seconds": 5.9,
    "sharded_lean_4_serial_seconds": 6.1,
    "speedup_lean_1_vs_baseline": 13.4,
    "speedup_4_shards_vs_baseline": 11.4,
    "machine": "Linux x86_64 dev container, CPython 3.11, 1 CPU",
}


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _scaled_params(scale: float) -> dict:
    from .fig10_full import (
        BASE_DURATION_SECONDS,
        BASE_FUNCTIONS,
        BASE_TOTAL_RPS,
        _fleet_for,
    )

    workers, cores_per_worker = _fleet_for(scale)
    return {
        "function_count": round(BASE_FUNCTIONS * scale),
        "duration_seconds": BASE_DURATION_SECONDS,
        "total_rps": BASE_TOTAL_RPS * scale,
        "workers": workers,
        "cores_per_worker": cores_per_worker,
    }


def _sharded_row(trace, workers, cores_per_worker, shards, executor) -> dict:
    from ..sim.sharded import ShardedConfig, run_sharded_replay

    config = ShardedConfig(
        workers=workers,
        cores_per_worker=cores_per_worker,
        shards=shards,
        executor=executor,
    )
    start = time.perf_counter()
    report = run_sharded_replay(trace, config)
    wall = time.perf_counter() - start
    return {
        "shards": shards,
        "executor": executor,
        "executor_mode": report.executor_mode,
        "invocations": report.routed,
        "events": report.events,
        "wall_seconds": round(wall, 3),
        "events_per_second": round(report.events / wall) if wall > 0 else None,
        "windows": report.windows,
        "stall_seconds": round(
            sum(stats["stall_seconds"] for stats in report.shard_stats), 3
        ),
    }


def trace_scale_matrix(scale: float = 10.0) -> dict:
    """One scale's measurement matrix (the CI job re-runs this at 10×)."""
    from ..trace.stream import streamed_trace

    params = _scaled_params(scale)
    workers = params["workers"]
    cores_per_worker = params["cores_per_worker"]

    def fresh_trace():
        return streamed_trace(
            function_count=params["function_count"],
            duration_seconds=params["duration_seconds"],
            total_rps=params["total_rps"],
            seed=42,
        )

    rows = [
        _sharded_row(fresh_trace(), workers, cores_per_worker, shards, executor)
        for shards, executor in ((1, "serial"), (2, "serial"), (4, "serial"), (4, "auto"))
    ]
    return {
        "scale": scale,
        "workers": workers,
        "cores_per_worker": cores_per_worker,
        "rows": rows,
    }


def run_trace_scale_bench(
    scales=(10.0,), output: "str | None" = DEFAULT_OUTPUT
) -> dict:
    """Measure the matrix at each scale; optionally write ``output``."""
    report = {
        "schema": "repro-bench-trace-scale/v2",
        "generated_unix": int(time.time()),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "cpu_count": _available_cpus(),
        "floors": FLOORS,
        "measured": {f"scale_{scale:g}x": trace_scale_matrix(scale) for scale in scales},
        "reference_10x": REFERENCE_10X,
        "reference_100x": REFERENCE_100X,
    }
    assert (
        REFERENCE_100X["speedup_4_shards_vs_baseline"]
        >= FLOORS["speedup_4_shards_min_100x"]
    ), "100x acceptance record fell below its floor"
    if output:
        with open(output, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
    return report
