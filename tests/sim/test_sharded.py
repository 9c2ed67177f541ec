"""Sharded simulator: codec, invariance, reference models, observability."""

import dataclasses
import json

import pytest

from repro.baselines.base import FaasPlatform, FunctionModel, KeepAlivePolicy, compute_phase
from repro.baselines.specs import FIRECRACKER_SNAPSHOT
from repro.cluster.sharding import INVOCATION, ShardPlan
from repro.sim.core import Environment
from repro.sim.resources import Resource
from repro.sim.sharded import ShardedConfig, coordinator, run_sharded_replay
from repro.sim.sharded.coordinator import GUEST_OS_OVERHEAD_BYTES, KNATIVE_COLD_OVERHEAD_SECONDS
from repro.sim.sharded.shard import ShardSim, _StepSeries
from repro.sim.sharded.messages import (
    decode_final_report,
    decode_latencies,
    decode_window_batch,
    decode_window_report,
    encode_final_report,
    encode_window_batch,
    encode_window_report,
)
from repro.trace.azure import generate_trace
from repro.trace.stream import streamed_trace

SMALL = dict(function_count=150, duration_seconds=60.0, total_rps=30.0, seed=42)


def small_trace():
    return streamed_trace(**SMALL)


def replay(platform="dandelion", shards=1, executor="serial", **kw):
    config = ShardedConfig(
        workers=6,
        cores_per_worker=8,
        shards=shards,
        platform=platform,
        executor=executor,
        **kw,
    )
    return run_sharded_replay(small_trace(), config)


def summary_key(report):
    return json.dumps(report.summary(), sort_keys=True)


class _ReferenceDandelionWorker:
    """Generator+``Resource`` restatement of the lean Dandelion worker.

    The pre-sharding simulation idiom: every delivery is a process
    that waits for a core slot, commits the function's memory while it
    holds the slot, and runs for creation + duration.
    """

    def __init__(self, env, cores, creation_seconds, memory_of, duration, grid_step):
        self.env = env
        self.cores = Resource(env, capacity=cores)
        self.creation = creation_seconds
        self.memory_of = memory_of
        self.committed = 0
        self.latencies = []
        self.series = _StepSeries(duration, grid_step)
        self.completed = 0
        self.outstanding = 0

    def serve(self, delivery, fn_index, duration, arrival):
        env = self.env
        delay = delivery - env.now
        if delay > 0:
            yield env.timeout(delay)
        self.outstanding += 1
        memory = self.memory_of[fn_index]
        with self.cores.acquire() as slot:
            yield slot
            self.committed += memory
            self.series.record(env.now, self.committed)
            yield env.timeout(self.creation + duration)
            self.committed -= memory
            self.series.record(env.now, self.committed)
        self.latencies.append(env.now - arrival)
        self.completed += 1
        self.outstanding -= 1


class ReferenceShardSim:
    """Drop-in for :class:`ShardSim` over the reference Dandelion worker.

    Test-only: the equivalence test swaps it into the coordinator so
    both kernels see the same routed delivery stream.
    """

    def __init__(self, worker_indices, config):
        assert config["platform"] == "dandelion"
        self.env = Environment()
        self.cores = config["cores_per_worker"]
        self.workers = [
            _ReferenceDandelionWorker(
                self.env, self.cores, config["creation_seconds"],
                config["memory_of"], config["duration_seconds"], config["grid_step"],
            )
            for _ in worker_indices
        ]
        self._by_global = dict(zip(worker_indices, self.workers))

    def run_window(self, records, end):
        for delivery, worker, fn_index, duration, arrival in records:
            self.env.process(self._by_global[worker].serve(delivery, fn_index, duration, arrival))
        self.env.run(until=end)

    drain_latencies = ShardSim.drain_latencies
    final_summary = ShardSim.final_summary

    def outstanding(self):
        return [w.outstanding for w in self.workers]

    @property
    def events(self):
        return self.env._seq


class TestShardPlan:
    def test_round_robin_partition(self):
        plan = ShardPlan(7, 3)
        workers = [plan.workers_of(s) for s in range(3)]
        assert workers == [(0, 3, 6), (1, 4), (2, 5)]
        assert all(plan.shard_of(w) == w % 3 for w in range(7))

    def test_shard_count_clamped_to_workers(self):
        assert ShardPlan(2, 8).shard_count == 2

    def test_merge_restores_global_order(self):
        plan = ShardPlan(5, 2)
        per_shard = [["w0", "w2", "w4"], ["w1", "w3"]]
        assert plan.merge(per_shard) == ["w0", "w1", "w2", "w3", "w4"]


class TestMessageCodec:
    def test_window_batch_roundtrip(self):
        records = [(1.25, 3, 17, 0.5, 1.2495), (2.0, 0, 4, 0.125, 1.9995)]
        payload = bytearray()
        for record in records:
            payload += INVOCATION.pack(*record)
        blob = encode_window_batch(7, 3.5, payload)
        index, end, finish, decoded = decode_window_batch(blob)
        assert (index, end, finish) == (7, 3.5, False)
        assert decoded == records

    def test_finish_flag(self):
        _, _, finish, records = decode_window_batch(
            encode_window_batch(0, 0.0, b"", finish=True)
        )
        assert finish and records == []

    def test_window_report_roundtrip(self):
        blob = encode_window_report(3, 2.0, [4, 0, 9], [0.25, 0.5], 123, 0.75)
        index, outstanding, item, events, stall = decode_window_report(blob)
        assert (index, outstanding, events, stall) == (3, [4, 0, 9], 123, 0.75)
        assert decode_latencies(item) == (0.25, 0.5)

    def test_final_report_roundtrip(self):
        summary = {"workers": [{"completed": 3}], "events": 9}
        assert decode_final_report(encode_final_report(summary)) == summary


@pytest.mark.parametrize("platform", ["dandelion", "faas"])
class TestShardCountInvariance:
    """The tentpole guarantee: KPIs are byte-identical across shard
    counts and executors (PYTHONHASHSEED pinned by CI for the formal
    gate; the JSON key ordering here is explicit so the test is hermetic
    either way)."""

    def test_serial_shard_counts(self, platform):
        base = summary_key(replay(platform, shards=1))
        for shards in (2, 3):
            assert summary_key(replay(platform, shards=shards)) == base

    def test_process_executor_matches_serial(self, platform):
        assert summary_key(replay(platform, shards=2, executor="process")) == (
            summary_key(replay(platform, shards=2, executor="serial"))
        )

    def test_every_routed_invocation_completes(self, platform):
        report = replay(platform, shards=3)
        assert report.routed == report.completed > 0


class TestEngineEquivalence:
    def test_classic_matches_lean_modulo_events(self, monkeypatch):
        lean = replay(shards=1).summary()
        monkeypatch.setattr(coordinator, "ShardSim", ReferenceShardSim)
        classic = replay(shards=2).summary()
        lean_events = lean.pop("events")
        classic_events = classic.pop("events")
        assert lean == classic
        # Lean: one reserved delivery seq + one completion per
        # invocation; reference: generator Process + Resource machinery.
        assert lean_events == 2 * lean["routed"]
        assert classic_events > lean_events

    def test_lean_faas_matches_faas_platform(self):
        # A node that never runs more requests than it has cores, so
        # the platform's processor-sharing CPU and the lean FIFO core
        # pool serve every request identically.
        trace = generate_trace(function_count=10, duration_seconds=240, total_rps=8, seed=21)
        cores = 64
        lean = run_sharded_replay(trace, ShardedConfig(
            workers=1, cores_per_worker=cores, dispatch_delay_seconds=0.0,
            platform="faas", executor="serial",
        ))
        reference = _faas_platform_replay(trace, cores)
        assert lean.completed == reference.cold_requests + reference.hot_requests
        assert 0 < lean.cold_starts < lean.completed
        assert lean.cold_starts / lean.completed == reference.cold_fraction()
        assert lean.latency_percentile(99) == reference.latencies.percentile(99)
        duration = trace.duration_seconds
        assert lean.committed_mean_bytes == pytest.approx(
            reference.committed_series.time_weighted_mean(0, duration), rel=1e-9
        )
        assert lean.active_mean_bytes == pytest.approx(
            reference.active_series.time_weighted_mean(0, duration), rel=1e-9
        )

    def test_faas_platform_has_cold_starts_and_active_memory(self):
        report = replay(platform="faas", shards=2)
        assert 0 < report.cold_starts < report.completed
        assert report.active_mean_bytes is not None
        assert report.active_mean_bytes < report.committed_mean_bytes

    def test_dandelion_commits_only_active_memory(self):
        report = replay(platform="dandelion")
        assert report.active_mean_bytes is None or (
            report.active_mean_bytes == report.committed_mean_bytes
        )


class TestObservability:
    def test_per_shard_stats_present(self):
        report = replay(shards=3)
        assert len(report.shard_stats) == 3
        for shard, stats in enumerate(report.shard_stats):
            assert stats["shard"] == shard
            assert stats["events"] > 0
            assert stats["windows"] == report.windows
            assert stats["stall_seconds"] >= 0.0
            assert stats["barrier_wait_seconds"] >= 0.0
        assert sum(s["events"] for s in report.shard_stats) == report.events
        assert report.wall_seconds > 0
        assert report.executor_mode == "serial"

    def test_stats_never_leak_into_summary(self):
        summary = replay().summary()
        assert "wall_seconds" not in summary
        assert "shard_stats" not in summary
        assert not any("stall" in key for key in summary)

    def test_process_executor_reports_stall(self):
        report = replay(shards=2, executor="process")
        assert report.executor_mode == "process"
        assert all(s["stall_seconds"] > 0 for s in report.shard_stats)


class TestWindowSemantics:
    def test_window_count_covers_duration(self):
        report = replay()
        assert report.windows >= int(SMALL["duration_seconds"] / 0.5)

    def test_window_length_is_a_model_parameter(self):
        # Unlike the shard count, the window length changes snapshot
        # staleness and therefore the KPIs — it must be held fixed when
        # comparing shard counts, which ShardedConfig's default does.
        wide = replay(window_seconds=2.0)
        narrow = replay(window_seconds=0.5)
        assert summary_key(wide) != summary_key(narrow)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            replay(engine="warp")
        with pytest.raises(ValueError, match="unknown engine"):
            replay(engine="classic")


def _faas_platform_replay(trace, cores):
    """Firecracker+Knative on :class:`FaasPlatform` with keep-alive.

    The platform registers static phases per function; the trace has a
    duration per invocation, so each request serves a one-off model
    carrying the registered function's name and memory.
    """
    env = Environment()
    spec = dataclasses.replace(
        FIRECRACKER_SNAPSHOT,
        cold_start_seconds=FIRECRACKER_SNAPSHOT.cold_start_seconds
        + KNATIVE_COLD_OVERHEAD_SECONDS,
    )
    platform = FaasPlatform(env, spec, cores=cores, policy=KeepAlivePolicy(75.0))
    functions = {f.name: f for f in trace.functions}
    for function in trace.functions:
        platform.register_function(
            function.name,
            [compute_phase(function.median_duration_seconds)],
            memory_bytes=function.memory_bytes + GUEST_OS_OVERHEAD_BYTES,
        )

    def driver():
        processes = []
        for invocation in trace.invocations:
            delay = invocation.time - env.now
            if delay > 0:
                yield env.timeout(delay)
            function = functions[invocation.function_name]
            model = FunctionModel(
                function.name,
                (compute_phase(invocation.duration_seconds),),
                function.memory_bytes + GUEST_OS_OVERHEAD_BYTES,
            )
            processes.append(env.process(platform._serve(model)))
        for process in processes:
            yield process

    env.run(until=env.process(driver()))
    return platform
