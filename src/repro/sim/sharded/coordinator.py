"""Conservative time-window coordinator for the sharded simulator.

Topology is hub-and-spoke: shards never talk to each other, only to
the coordinator, and only at window barriers.  Each window of length
``window_seconds`` proceeds as

1. the coordinator pulls the window's arrivals from the trace stream
   and routes them through the :class:`~repro.dispatcher.windowed.WindowedRouter`
   against the fleet view merged from the *previous* barrier's reports;
2. per-shard delivery batches go out as v2 wire-format blobs
   (:mod:`.messages`); every delivery time already includes the
   dispatch delay, the conservative lookahead — nothing the dispatcher
   decides in this window can take effect inside a shard earlier than
   that, and shards cannot affect each other at all, so any window
   length is causally safe;
3. each shard ingests its batch, runs its kernel to the window end,
   and reports outstanding counts plus the window's completion
   latencies;
4. the coordinator merges the reports (global worker order, see
   :class:`~repro.cluster.sharding.ShardPlan`) and the loop repeats
   until the stream is exhausted and every routed invocation has
   completed.

The window length therefore trades snapshot freshness (routing acts on
state ``window_seconds`` stale, exactly like a real cluster manager
polling worker state) against barrier overhead — it is a *model*
parameter, identical across shard counts, which is why KPIs are
invariant to sharding.  Determinism rules are spelled out in
docs/simulation.md.

Two executors share one byte path: :class:`SerialExecutor` steps every
shard in-process (the N=1 default and the no-multiprocessing
fallback), :class:`ProcessExecutor` runs one OS process per shard
connected by pipes.  Both round-trip the same blobs through
:mod:`.messages`, so invariance tests on the serial executor pin the
codec the process executor uses.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import time
from array import array
from dataclasses import dataclass, field
from typing import Optional

from ...cluster.sharding import ShardPlan
from ...dispatcher.windowed import WindowedRouter
from ..metrics import percentile
from .messages import (
    decode_final_report,
    decode_window_batch,
    decode_window_report,
    encode_final_report,
    encode_window_batch,
    encode_window_report,
)
from .shard import PLATFORM_DANDELION, ShardSim

__all__ = [
    "GUEST_OS_OVERHEAD_BYTES",
    "ShardedConfig",
    "ShardedReplayReport",
    "SerialExecutor",
    "ProcessExecutor",
    "run_sharded_replay",
]


# Extra committed memory a MicroVM carries beyond the function's own
# working set: guest kernel, rootfs page cache, agent (§2.3: "Running a
# guest OS inside each function sandbox also adds to the memory
# footprint").
GUEST_OS_OVERHEAD_BYTES = 40 * 1024 * 1024
# Orchestration path a scale-from-zero request traverses before the
# MicroVM restore even starts (activator hop, autoscaler reaction,
# scheduling): the sub-second control-plane latency that dominates
# Knative cold starts and drives the paper's 46% p99 gap.
KNATIVE_COLD_OVERHEAD_SECONDS = 0.8


@functools.lru_cache(maxsize=None)
def _calibrations() -> dict:
    """Platform costs, read once from the calibrated models.

    Dandelion creates one process-backend sandbox per request; the
    FaaS side is a Firecracker snapshot restore behind Knative's cold
    path.  Neither is a :class:`ShardedConfig` field, so the trace
    replay cannot drift from the calibrations the rest of the
    reproduction uses.
    """
    from ...backends.base import create_backend
    from ...baselines.specs import FIRECRACKER_SNAPSHOT as fc
    from ...composition.registry import FunctionBinary

    trace_function = FunctionBinary("trace-fn", lambda vfs: None)
    return {
        "creation_seconds": create_backend("process", "linux").creation_seconds(
            trace_function
        ),
        "guest_overhead_bytes": GUEST_OS_OVERHEAD_BYTES,
        "cold_start_seconds": fc.cold_start_seconds + KNATIVE_COLD_OVERHEAD_SECONDS,
        "hot_start_seconds": fc.hot_start_seconds,
        "paging_seconds_per_mib": fc.cold_paging_seconds_per_mib,
        "compute_slowdown": fc.compute_slowdown,
    }


@dataclass
class ShardedConfig:
    """Fleet, routing, and synchronization parameters for one run.

    Platform costs are not fields: they come from the calibrated
    backend and baseline models (see :func:`_calibrations`).  The FaaS
    keep-alive window is one, because Figs 1/10 and the ablations sweep
    it.
    """

    workers: int
    cores_per_worker: int = 16
    shards: int = 1
    window_seconds: float = 0.5
    dispatch_delay_seconds: float = 0.0005
    platform: str = PLATFORM_DANDELION
    policy: str = "least_loaded"
    seed: int = 0
    grid_step: float = 60.0
    engine: str = "lean"            # the only kernel; kept for callers that name it
    executor: str = "auto"          # "auto" | "serial" | "process"
    keep_alive_seconds: float = 75.0

    def __post_init__(self):
        if self.engine != "lean":
            raise ValueError(f"unknown engine {self.engine!r}; the only engine is 'lean'")

    def shard_config(self, duration_seconds: float) -> dict:
        """The per-shard kernel parameters (sent once at init)."""
        return {
            "cores_per_worker": self.cores_per_worker,
            "duration_seconds": duration_seconds,
            "grid_step": self.grid_step,
            "platform": self.platform,
            "keep_alive_seconds": self.keep_alive_seconds,
            **_calibrations(),
        }


@dataclass
class ShardedReplayReport:
    """Merged results of one sharded replay.

    Everything in :meth:`summary` is a pure function of the trace and
    the :class:`ShardedConfig` model parameters — byte-identical across
    shard counts and executors.  Wall-clock observability (stall times,
    barrier waits, wall seconds) lives in separate fields and in
    :attr:`shard_stats`, and never feeds the summary.
    """

    platform: str
    workers: int
    cores_per_worker: int
    duration_seconds: float
    grid_step: float
    routed: int
    completed: int
    cold_starts: int
    events: int
    windows: int
    committed_grid: list
    active_grid: Optional[list]
    committed_mean_bytes: float
    active_mean_bytes: Optional[float]
    latencies: list = field(repr=False)
    # Observability (excluded from summary): one dict per shard with
    # events, windows, sync-barrier stall seconds, plus coordinator
    # wall clock and per-shard barrier waits.
    shard_stats: list = field(default_factory=list)
    wall_seconds: float = 0.0
    executor_mode: str = ""

    def latency_percentile(self, q: float) -> float:
        return percentile(self.latencies, q)

    def summary(self) -> dict:
        """Deterministic KPI record (shard-count/executor invariant)."""
        n = len(self.latencies)
        return {
            "platform": self.platform,
            "workers": self.workers,
            "cores_per_worker": self.cores_per_worker,
            "routed": self.routed,
            "completed": self.completed,
            "cold_starts": self.cold_starts,
            "events": self.events,
            "windows": self.windows,
            "latency_p50": self.latency_percentile(50) if n else 0.0,
            "latency_p99": self.latency_percentile(99) if n else 0.0,
            "latency_mean": (sum(self.latencies) / n) if n else 0.0,
            "committed_mean_bytes": self.committed_mean_bytes,
            "active_mean_bytes": self.active_mean_bytes,
            "committed_grid": list(self.committed_grid),
            "active_grid": list(self.active_grid) if self.active_grid is not None else None,
        }


def _window_reply(sim, blob, stall_seconds: float) -> "tuple[bytes, bool]":
    """Serve one coordinator message on a shard; shared by executors."""
    index, end, finish, records = decode_window_batch(blob)
    if finish:
        summary = sim.final_summary()
        summary["stall_seconds"] = stall_seconds
        return encode_final_report(summary), True
    sim.run_window(records, end)
    report = encode_window_report(
        index, end, sim.outstanding(), sim.drain_latencies(), sim.events, stall_seconds
    )
    return report, False


class SerialExecutor:
    """All shards stepped in one process (zero barrier stall).

    ``send``/``receive`` mirror the process executor's split so the
    coordinator loop is executor-agnostic; here ``send`` just parks the
    blobs and ``receive`` does the work.
    """

    __slots__ = ("_sims", "_inbox")

    def __init__(self, plan: ShardPlan, shard_config: dict):
        self._sims = [
            ShardSim(plan.workers_of(shard), shard_config)
            for shard in range(plan.shard_count)
        ]
        self._inbox: list = []

    def send(self, blobs) -> None:
        self._inbox = blobs

    def receive(self):
        replies = [
            _window_reply(sim, blob, 0.0)[0]
            for sim, blob in zip(self._sims, self._inbox)
        ]
        self._inbox = []
        return replies, [0.0] * len(replies)

    def finish(self):
        fin = encode_window_batch(0, 0.0, b"", finish=True)
        return [_window_reply(sim, fin, 0.0)[0] for sim in self._sims]

    def close(self):
        self._sims = []


def _shard_process_main(conn) -> None:
    """Entry point of one shard worker process."""
    try:
        init = conn.recv()
        sim = ShardSim(init["worker_indices"], init["config"])
        stall = 0.0
        while True:
            begin = time.perf_counter()
            blob = conn.recv_bytes()
            stall += time.perf_counter() - begin
            reply, finished = _window_reply(sim, blob, stall)
            conn.send_bytes(reply)
            if finished:
                break
    finally:
        conn.close()


class ProcessExecutor:
    """One OS process per shard, pipes for window traffic."""

    __slots__ = ("_conns", "_procs")

    def __init__(self, plan: ShardPlan, shard_config: dict):
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
        self._conns = []
        self._procs = []
        try:
            for shard in range(plan.shard_count):
                parent, child = ctx.Pipe()
                proc = ctx.Process(
                    target=_shard_process_main, args=(child,), daemon=True
                )
                proc.start()
                child.close()
                parent.send(
                    {
                        "worker_indices": plan.workers_of(shard),
                        "config": shard_config,
                    }
                )
                self._conns.append(parent)
                self._procs.append(proc)
        except BaseException:
            self.close()
            raise

    def send(self, blobs) -> None:
        for conn, blob in zip(self._conns, blobs):
            conn.send_bytes(blob)

    def receive(self):
        replies = []
        waits = []
        for conn in self._conns:
            begin = time.perf_counter()
            replies.append(conn.recv_bytes())
            waits.append(time.perf_counter() - begin)
        return replies, waits

    def finish(self):
        fin = encode_window_batch(0, 0.0, b"", finish=True)
        for conn in self._conns:
            conn.send_bytes(fin)
        return [conn.recv_bytes() for conn in self._conns]

    def close(self):
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        for proc in self._procs:
            proc.join(timeout=30)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
        self._conns = []
        self._procs = []


def _available_cpus() -> int:
    """CPUs actually usable by this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def run_sharded_replay(trace, config: ShardedConfig) -> ShardedReplayReport:
    """Replay ``trace``: a :class:`~repro.trace.stream.StreamedTrace` or
    an eager :class:`~repro.trace.azure.AzureTrace` (both provide
    ``memory_bytes()`` and ``iter_invocations()``)."""
    memory_of = trace.memory_bytes()
    duration = trace.duration_seconds
    plan = ShardPlan(config.workers, config.shards)
    router = WindowedRouter(plan, config.policy, config.seed)
    shard_config = config.shard_config(duration)
    shard_config["memory_of"] = memory_of
    mode = config.executor
    if mode == "auto":
        # Shard processes only help when there are spare cores to run
        # them on; on a single-CPU host the barrier ping-pong costs more
        # than the parallelism returns, so fall back to serial stepping
        # (same byte path, same results — that's the invariance
        # guarantee).
        mode = (
            "serial"
            if plan.shard_count == 1 or _available_cpus() == 1
            else "process"
        )
    executor = (
        SerialExecutor(plan, shard_config)
        if mode == "serial"
        else ProcessExecutor(plan, shard_config)
    )
    window = config.window_seconds
    dispatch_delay = config.dispatch_delay_seconds
    begin_wall = time.perf_counter()
    try:
        stream = trace.iter_invocations()
        pending = next(stream, None)
        routed = 0
        completed = 0
        windows = 0
        latency_items: list = []
        events_of = [0] * plan.shard_count
        stall_of = [0.0] * plan.shard_count
        barrier_wait = [0.0] * plan.shard_count
        # Window 0's arrivals; each iteration then pulls the *next*
        # window's arrivals between send and receive, so trace
        # generation overlaps shard compute under the process executor.
        arrivals = []
        while pending is not None and pending[0] < window:
            arrivals.append(pending)
            pending = next(stream, None)
        while True:
            end = (windows + 1) * window
            routed += len(arrivals)
            batches = router.route_window(arrivals, dispatch_delay)
            executor.send(
                [encode_window_batch(windows, end, batch) for batch in batches]
            )
            next_end = end + window
            arrivals = []
            while pending is not None and pending[0] < next_end:
                arrivals.append(pending)
                pending = next(stream, None)
            replies, waits = executor.receive()
            per_shard_outstanding = []
            for shard, reply in enumerate(replies):
                _index, outstanding, item, events, stall = decode_window_report(reply)
                per_shard_outstanding.append(outstanding)
                if item.size:
                    latency_items.append(item)
                    completed += item.size // 8
                events_of[shard] = events
                stall_of[shard] = stall
                barrier_wait[shard] += waits[shard]
            router.refresh(per_shard_outstanding)
            windows += 1
            if (
                pending is None
                and not arrivals
                and end >= duration
                and completed == routed
            ):
                break
        finals = [decode_final_report(blob) for blob in executor.finish()]
    finally:
        executor.close()
    wall_seconds = time.perf_counter() - begin_wall

    # Merge per-worker aggregates in global worker order: sums of ints
    # are exact and float additions happen in one canonical order, so
    # the merged KPIs are identical for every shard count.
    worker_entries = plan.merge([final["workers"] for final in finals])
    grid_points = len(worker_entries[0]["committed_grid"])
    committed_grid = [0] * grid_points
    committed_integral = 0.0
    has_active = "active_grid" in worker_entries[0]
    active_grid = [0] * grid_points if has_active else None
    active_integral = 0.0
    cold_starts = 0
    merged_completed = 0
    for entry in worker_entries:
        for i, value in enumerate(entry["committed_grid"]):
            committed_grid[i] += value
        committed_integral += entry["committed_integral"]
        merged_completed += entry["completed"]
        if has_active:
            for i, value in enumerate(entry["active_grid"]):
                active_grid[i] += value
            active_integral += entry["active_integral"]
            cold_starts += entry["cold_starts"]

    latencies = array("d")
    for item in latency_items:
        latencies.frombytes(item.data)
    sorted_latencies = sorted(latencies)

    shard_stats = [
        {
            "shard": shard,
            "workers": len(plan.workers_of(shard)),
            "events": final["events"],
            "windows": windows,
            "stall_seconds": final.get("stall_seconds", stall_of[shard]),
            "barrier_wait_seconds": barrier_wait[shard],
        }
        for shard, final in enumerate(finals)
    ]

    return ShardedReplayReport(
        platform=config.platform,
        workers=config.workers,
        cores_per_worker=config.cores_per_worker,
        duration_seconds=duration,
        grid_step=config.grid_step,
        routed=routed,
        completed=merged_completed,
        cold_starts=cold_starts,
        events=sum(events_of),
        windows=windows,
        committed_grid=committed_grid,
        active_grid=active_grid,
        committed_mean_bytes=committed_integral / duration,
        active_mean_bytes=(active_integral / duration) if has_active else None,
        latencies=sorted_latencies,
        shard_stats=shard_stats,
        wall_seconds=wall_seconds,
        executor_mode=mode,
    )
