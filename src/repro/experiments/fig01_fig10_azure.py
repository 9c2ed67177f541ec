"""Figs 1 and 10 — Azure-trace memory and latency experiments.

Both figures replay the (synthetic) Azure Functions trace sample:

* **Fig 1** contrasts the memory Knative-style autoscaling *commits*
  (warm MicroVMs held after requests) against the memory required by
  the VMs *actively serving requests* — the paper measures ~16× average
  over-provisioning.

* **Fig 10** adds Dandelion: per-request contexts mean committed ==
  active, reducing average committed memory by ~96% vs
  Firecracker+Knative (109 MB vs 2619 MB in the paper) while also
  cutting p99 latency (−46% in the paper) because no request waits on
  a snapshot restore.

Both replay the eager default trace through the sharded replayer on a
single ``cores``-core node with arrivals delivered as they come (no
dispatch delay); the replayer's committed/active grid is the figures'
``resample_step`` grid.
"""

from __future__ import annotations

from ..sim.distributions import Rng
from ..sim.sharded import ShardedConfig, run_sharded_replay
from ..sim.sharded.shard import PLATFORM_DANDELION, PLATFORM_FAAS
from ..trace.azure import generate_trace
from ..trace.sampler import sample_trace
from .common import ExperimentResult

__all__ = ["run_fig01", "run_fig10", "default_trace"]

MiB = 1 << 20


def default_trace(
    function_population: int = 100,
    sample_size: int = 100,
    duration_seconds: float = 1200.0,
    total_rps: float = 12.0,
    seed: int = 42,
):
    """The experiment's trace: a 100-function sample at d430-scale load.

    When ``function_population`` exceeds ``sample_size`` the InVitro-
    style stratified sampler picks the subset; the default generates
    the sample-sized population directly (the sampler is exercised by
    its own tests), which keeps the aggregate request rate calibrated.
    """
    population = generate_trace(
        function_count=function_population,
        duration_seconds=duration_seconds,
        total_rps=total_rps,
        seed=seed,
    )
    if function_population == sample_size:
        return population
    return sample_trace(population, sample_size, Rng(seed + 1))


def _replay(trace, platform: str, cores: int, resample_step: float):
    """One platform on one ``cores``-core node, arrivals delivered as-is."""
    config = ShardedConfig(
        workers=1,
        cores_per_worker=cores,
        dispatch_delay_seconds=0.0,
        platform=platform,
        grid_step=resample_step,
        executor="serial",
    )
    return run_sharded_replay(trace, config)


def _grid_times(report) -> list[float]:
    return [index * report.grid_step for index in range(len(report.committed_grid))]


def run_fig01(trace=None, cores: int = 16, resample_step: float = 60.0) -> ExperimentResult:
    trace = trace or default_trace()
    report = _replay(trace, PLATFORM_FAAS, cores, resample_step)
    result = ExperimentResult(
        name="Fig 1",
        description="Azure trace on Knative-autoscaled MicroVMs: committed vs active memory (MiB)",
        headers=["time_s", "committed_mib", "active_mib"],
    )
    for time, committed, active in zip(
        _grid_times(report), report.committed_grid, report.active_grid
    ):
        result.add_row(time_s=time, committed_mib=committed / MiB, active_mib=active / MiB)
    average_committed = report.committed_mean_bytes / MiB
    average_active = max(report.active_mean_bytes / MiB, 1e-9)
    cold_fraction = report.cold_starts / report.completed if report.completed else 0.0
    result.note(
        f"average committed {average_committed:.0f} MiB vs active "
        f"{average_active:.0f} MiB -> {average_committed / average_active:.1f}x "
        "over-provisioning (paper: ~16x)"
    )
    result.note(f"cold fraction {cold_fraction * 100:.1f}% (paper: ~3.3%)")
    return result


def run_fig10(trace=None, cores: int = 16, resample_step: float = 60.0) -> ExperimentResult:
    trace = trace or default_trace()
    dandelion = _replay(trace, PLATFORM_DANDELION, cores, resample_step)
    firecracker = _replay(trace, PLATFORM_FAAS, cores, resample_step)
    result = ExperimentResult(
        name="Fig 10",
        description="Azure trace: committed memory over time, Dandelion vs Firecracker+Knative (MiB)",
        headers=["time_s", "dandelion_mib", "firecracker_mib"],
    )
    for time, dandelion_bytes, fc_bytes in zip(
        _grid_times(dandelion), dandelion.committed_grid, firecracker.committed_grid
    ):
        result.add_row(
            time_s=time,
            dandelion_mib=dandelion_bytes / MiB,
            firecracker_mib=fc_bytes / MiB,
        )
    dandelion_avg = dandelion.committed_mean_bytes / MiB
    firecracker_avg = firecracker.committed_mean_bytes / MiB
    savings = 100 * (1 - dandelion_avg / firecracker_avg)
    dandelion_p99 = dandelion.latency_percentile(99)
    firecracker_p99 = firecracker.latency_percentile(99)
    p99_reduction = 100 * (1 - dandelion_p99 / firecracker_p99)
    result.note(
        f"average committed: dandelion {dandelion_avg:.0f} MiB vs firecracker "
        f"{firecracker_avg:.0f} MiB -> {savings:.1f}% less (paper: 96%, 109 vs 2619 MB)"
    )
    result.note(
        f"p99 latency: dandelion {dandelion_p99 * 1e3:.0f} ms vs "
        f"firecracker {firecracker_p99 * 1e3:.0f} ms -> "
        f"{p99_reduction:.1f}% reduction (paper: 46%)"
    )
    result.note(
        f"requests: {dandelion.completed}; dandelion cold fraction 100% by design"
    )
    return result
