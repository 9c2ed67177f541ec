#!/usr/bin/env python3
"""Azure-trace replay: the memory-elasticity headline (Figs 1 and 10).

Replays the same synthetic Azure-Functions-like invocation stream on
(a) Dandelion with per-request contexts and (b) Firecracker MicroVMs
under Knative-style keep-alive autoscaling, then compares committed
memory and tail latency.

Run:  python examples/azure_trace_replay.py
"""

from repro.experiments import default_trace
from repro.sim.sharded import ShardedConfig, run_sharded_replay

MiB = 1 << 20


def replay(trace, platform):
    """One 16-core node, arrivals delivered as they come."""
    config = ShardedConfig(
        workers=1, cores_per_worker=16, dispatch_delay_seconds=0.0,
        platform=platform, executor="serial",
    )
    return run_sharded_replay(trace, config)


def main():
    trace = default_trace(duration_seconds=900.0)
    print(f"trace: {len(trace.functions)} functions, "
          f"{trace.total_invocations} invocations over {trace.duration_seconds:.0f} s "
          f"({trace.average_rps:.1f} rps average)\n")

    dandelion = replay(trace, "dandelion")
    firecracker = replay(trace, "faas")

    for label, report in (("dandelion", dandelion), ("firecracker+knative", firecracker)):
        # Dandelion commits memory only while a request runs: every
        # request cold-creates its context, and committed == active.
        cold = 1.0 if report is dandelion else report.cold_starts / report.completed
        print(f"{label:>20}: "
              f"avg committed {report.committed_mean_bytes / MiB:8.1f} MiB | "
              f"p99 latency {report.latency_percentile(99) * 1e3:7.1f} ms | "
              f"cold {cold * 100:5.1f}%")

    savings = 100 * (1 - dandelion.committed_mean_bytes / firecracker.committed_mean_bytes)
    over = firecracker.committed_mean_bytes / max(1, firecracker.active_mean_bytes)
    print(f"\nKnative over-provisions {over:.0f}x more memory than active demand (paper: 16x)")
    print(f"Dandelion commits {savings:.1f}% less memory on average (paper: 96%)")


if __name__ == "__main__":
    main()
