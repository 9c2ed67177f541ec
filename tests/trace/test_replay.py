"""Trace replay on Dandelion and Firecracker+Knative.

Both platforms replay an eager trace through the sharded replayer on
one 16-core node with arrivals delivered as they come, the setup of
Figs 1 and 10.
"""

import pytest

from repro.sim.sharded import ShardedConfig, run_sharded_replay
from repro.sim.sharded.coordinator import _calibrations
from repro.trace import generate_trace



def replay(trace, platform, **kw):
    config = ShardedConfig(
        workers=1,
        cores_per_worker=16,
        dispatch_delay_seconds=0.0,
        platform=platform,
        executor="serial",
        **kw,
    )
    return run_sharded_replay(trace, config)


def cold_fraction(report):
    return report.cold_starts / report.completed


@pytest.fixture(scope="module")
def small_trace():
    # Dense enough that keep-alive actually produces warm hits: 10
    # functions sharing ~8 rps over four minutes.
    return generate_trace(function_count=10, duration_seconds=240, total_rps=8, seed=21)


@pytest.fixture(scope="module")
def dandelion_report(small_trace):
    return replay(small_trace, "dandelion")


@pytest.fixture(scope="module")
def faas_report(small_trace):
    return replay(small_trace, "faas")


def test_all_invocations_served(small_trace, dandelion_report, faas_report):
    assert dandelion_report.completed == small_trace.total_invocations
    assert faas_report.completed == small_trace.total_invocations


def test_dandelion_every_request_cold(small_trace, dandelion_report):
    # Every request pays sandbox creation on its critical path: no
    # latency is shorter than creation + its own duration (up to the
    # rounding of subtracting arrival times of a few hundred seconds).
    creation = _calibrations()["creation_seconds"]
    service = sorted(creation + inv.duration_seconds for inv in small_trace.invocations)
    assert all(
        latency >= floor - 1e-9
        for latency, floor in zip(dandelion_report.latencies, service)
    )


def test_faas_mostly_warm(faas_report):
    assert cold_fraction(faas_report) < 0.35


def test_dandelion_commits_far_less_memory(dandelion_report, faas_report):
    assert dandelion_report.committed_mean_bytes < faas_report.committed_mean_bytes / 5


def test_faas_overprovisions_vs_active(faas_report):
    assert faas_report.committed_mean_bytes > 3 * faas_report.active_mean_bytes


def test_dandelion_committed_equals_active(small_trace, dandelion_report):
    # Committed memory is exactly the memory of running requests: on a
    # node that never queues, each request holds its footprint from
    # arrival for creation + duration (cut at the trace end).
    creation = _calibrations()["creation_seconds"]
    end = small_trace.duration_seconds
    memory = {f.name: f.memory_bytes for f in small_trace.functions}
    active_integral = sum(
        memory[inv.function_name]
        * (min(inv.time + creation + inv.duration_seconds, end) - inv.time)
        for inv in small_trace.invocations
    )
    assert dandelion_report.committed_mean_bytes == pytest.approx(
        active_integral / end, rel=1e-9
    )


def test_dandelion_memory_returns_to_zero(dandelion_report):
    assert dandelion_report.committed_grid[-1] == 0
    assert min(dandelion_report.committed_grid) == 0


def test_latency_dominated_by_execution(dandelion_report):
    # Sandbox creation is sub-ms; latencies track the trace durations.
    assert dandelion_report.latency_percentile(50) >= 0.01


def test_summary_fields(dandelion_report):
    summary = dandelion_report.summary()
    assert {"platform", "committed_mean_bytes", "latency_p99", "cold_starts"} <= set(summary)
    assert summary["platform"] == "dandelion"


def test_replay_deterministic(small_trace):
    first = replay(small_trace, "dandelion")
    second = replay(small_trace, "dandelion")
    assert first.summary() == second.summary()
    assert first.latencies == second.latencies


def test_keep_alive_zero_removes_overprovisioning(small_trace):
    report = replay(small_trace, "faas", keep_alive_seconds=0.0)
    assert cold_fraction(report) == 1.0
    assert report.committed_mean_bytes == pytest.approx(report.active_mean_bytes, rel=0.05)


def test_longer_keepalive_more_memory_fewer_colds(small_trace):
    short = replay(small_trace, "faas", keep_alive_seconds=10.0)
    long = replay(small_trace, "faas", keep_alive_seconds=300.0)
    assert long.committed_mean_bytes > short.committed_mean_bytes
    assert cold_fraction(long) <= cold_fraction(short)
