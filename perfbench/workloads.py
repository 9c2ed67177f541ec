"""The benchmark's workloads, built only from the runtime's public entry points.

Each workload is one open-loop request stream of Poisson arrivals in
virtual time, generated from the benchmark seed and driven by a single
simulation process on one host thread (``shards=1`` and the serial
executor for the replay).  A workload splits a run into three parts:

* ``prepare(seed)`` builds the cluster (or trace) and the request stream;
  this is set-up, timed separately;
* ``drive(prepared, slicer)`` runs the simulation, cutting it into equal
  virtual-time slices through ``slicer`` so each slice's host time can be
  drift-corrected on its own;
* ``check(prepared, outcome)`` verifies the simulated outputs, outside the
  timed region, and returns the digest that must repeat for one seed.

Simulated latency is counted from each request's due arrival time: every
request's process sleeps until its arrival and invokes then, so the
generator is never late in virtual time.
"""

from __future__ import annotations

import hashlib
import math
import time

MiB = 1 << 20


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list (``q`` in 0..100)."""
    if not sorted_values:
        return float("nan")
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


class Prepared:
    """What ``prepare`` built: the system under test plus its inputs."""

    def __init__(self, **fields):
        self.__dict__.update(fields)


class Outcome:
    """What one drive produced (simulated results, no host timings)."""

    def __init__(self, offered, completed, failed, latencies_ms,
                 committed_mib, digest_parts, end_state, layer_counts):
        self.offered = offered
        self.completed = completed
        self.failed = failed
        self.latencies_ms = latencies_ms  # ascending, completed only
        self.committed_mib = committed_mib
        self.digest_parts = digest_parts
        self.end_state = end_state
        self.layer_counts = layer_counts

    def sim_percentile_ms(self, q):
        """Latency percentile where a missing invocation counts as slower
        than any completed one (so failures can only raise a percentile)."""
        missing = self.offered - self.completed
        values = self.latencies_ms + [math.inf] * missing
        return percentile(values, q)

    def digest(self):
        return hashlib.sha256(repr(self.digest_parts).encode()).hexdigest()


# -- cluster workloads ----------------------------------------------------------


class ClusterWorkload:
    """A synthetic request stream through ``ClusterManager.invoke``."""

    name = ""
    why = ""
    slices = 100

    def spec(self, seed):
        raise NotImplementedError

    def install_app(self, prepared):
        """Set ``prepared.names`` and ``prepared.inputs`` for the invocations."""
        from repro.scenario.engine import composition_names

        spec = prepared.spec
        prepared.names = composition_names(spec)
        prepared.inputs = {"data": spec.workload.payload.encode()}

    def prepare(self, seed):
        from repro.scenario import assemble_cluster, build_requests

        spec = self.spec(seed)
        cluster, injector = assemble_cluster(spec)
        prepared = Prepared(spec=spec, cluster=cluster, injector=injector,
                            duration=spec.trace.duration_seconds)
        self.install_app(prepared)
        t0 = time.perf_counter()
        prepared.requests = build_requests(spec)
        prepared.trace_s = time.perf_counter() - t0
        return prepared

    def start(self, prepared, tag=None):
        """Create the load-generator process (its start is the first event).

        The process structure mirrors the scenario engine's own, so the
        event stream, and with it every KPI, is the one ``run_scenario``
        produces for the same spec.
        """
        cluster = prepared.cluster
        env = cluster.env
        names = prepared.names
        inputs = prepared.inputs
        invoke = cluster.invoke
        results = [None] * len(prepared.requests)

        def one(index, arrive_at, app):
            delay = arrive_at - env.now
            if delay > 0:
                yield env.timeout(delay)
            if tag is not None:
                tag(index)
            result = yield invoke(names[app], inputs)
            results[index] = (env.now - arrive_at, result)

        def generate():
            processes = [
                env.process(one(index, t, app))
                for index, (t, app) in enumerate(prepared.requests)
            ]
            if processes:
                yield env.all_of(processes)

        prepared.results = results
        prepared.generator = env.process(generate())

    def drive(self, prepared, slicer, tag=None):
        step = prepared.duration / self.slices
        due = [0] * self.slices
        for t, _app in prepared.requests:
            due[min(int(t / step), self.slices - 1)] += 1
        self.start(prepared, tag)
        env = prepared.cluster.env
        slicer.begin()
        for k in range(1, self.slices):
            env.run(until=k * step)
            slicer.cut(due[k - 1])
        env.run(until=prepared.generator)
        slicer.cut(due[-1])
        return self.outcome(prepared)

    def outcome(self, prepared):
        cluster = prepared.cluster
        latencies = []
        completed = failed = 0
        digest = []
        for index, (latency, result) in enumerate(prepared.results):
            if result.ok:
                completed += 1
                latencies.append(latency * 1e3)
            else:
                failed += 1
            digest.append((index, result.ok, latency))
        latencies.sort()
        workers = cluster.workers
        horizon = prepared.duration
        committed = sum(
            worker.memory.average_committed(0.0, horizon) for worker in workers
        )
        stats = cluster.stats()
        dispatchers = [worker.dispatcher for worker in workers]
        end_state = {
            "in_flight": sum(
                d.invocations_started - d.invocations_completed - d.invocations_failed
                for d in dispatchers
            ),
            "committed_bytes": stats["total_committed_bytes"],
            "live_contexts": sum(w.memory.live_context_count for w in workers),
        }
        gray = stats["gray"]
        compute_busy = sum(w.compute_group.busy_seconds for w in workers)
        compute_cores = sum(w.compute_group.engine_count for w in workers)
        layer_counts = {
            "events": cluster.env._seq,
            "routed": stats["invocations_routed"],
            "retries": sum(d.retries_performed for d in dispatchers),
            "hedges": gray["hedges_issued"],
            "hedges_won": gray["hedges_won"],
            "quarantines": gray["quarantine_entries"],
            "tasks": sum(
                w.compute_group.tasks_executed + w.comm_group.tasks_executed
                for w in workers
            ),
            "net_bytes": cluster.network.bytes_sent + cluster.network.bytes_received,
            "net_requests": cluster.network.requests_sent,
            "committed_peak_mib": stats["peak_committed_bytes"] / MiB,
            "compute_util": compute_busy / (compute_cores * cluster.env.now),
        }
        digest.append(sorted(layer_counts.items()))
        return Outcome(
            offered=len(prepared.results), completed=completed, failed=failed,
            latencies_ms=latencies, committed_mib=committed / MiB,
            digest_parts=digest, end_state=end_state, layer_counts=layer_counts,
        )

    def check(self, prepared, outcome):
        """App-level output checks; returns a list of problems."""
        problems = []
        if outcome.offered != outcome.completed + outcome.failed:
            problems.append("conservation: offered != completed + failed")
        problems.extend(self.check_outputs(prepared))
        return problems

    def check_outputs(self, prepared):
        payload = prepared.inputs["data"]
        bad = 0
        for _latency, result in prepared.results:
            if result.ok:
                items = result.output("result").items
                if len(items) != 1 or bytes(items[0].data) != payload:
                    bad += 1
        return [f"{bad} echo results differ from their payload"] if bad else []

    def kpi_view(self, prepared, outcome):
        """The fields ``run_scenario(spec).kpis`` reports for this run."""
        cluster = prepared.cluster
        stats = cluster.stats()
        latencies = cluster.latencies
        return (
            outcome.offered,
            outcome.completed,
            latencies.median * 1e3,
            latencies.percentile(95) * 1e3,
            latencies.p99 * 1e3,
            outcome.layer_counts["retries"],
            stats["failures"]["failed_invocations"],
            stats["gray"]["quarantine_entries"],
            stats["gray"]["hedges_issued"],
        )

    def check_equivalence(self, seed):
        """The benchmark's load generator reproduces ``run_scenario(spec).kpis``."""
        from repro.scenario import run_scenario

        from perfbench.drift import NullSlicer

        prepared = self.prepare(seed)
        outcome = self.drive(prepared, NullSlicer())
        mine = self.kpi_view(prepared, outcome)
        k = run_scenario(prepared.spec).kpis
        theirs = (
            k.offered, k.completed, k.p50_ms, k.p95_ms, k.p99_ms,
            k.counters["retries"], k.counters["failed"],
            k.counters["quarantines"], k.counters["hedges"],
        )
        if mine != theirs:
            return [f"load generator differs from run_scenario: {mine} != {theirs}"]
        return []


class FleetEcho(ClusterWorkload):
    name = "fleet_echo"
    why = ("pure per-invocation control path: 16-worker routing, serial "
           "dispatcher path, data accounting, purity guard; no network")
    slices = 360

    def spec(self, seed):
        from repro.scenario import load_spec

        return load_spec("sec62").with_overrides(
            {"fleet.workers": 16, "seed": seed}
        )


class GrayHedge(ClusterWorkload):
    name = "gray_hedge"
    why = ("hedged routing, latency quarantine, backoff retries and "
           "throttled engines, none of which run in fleet_echo")
    slices = 300

    def spec(self, seed):
        from repro.scenario import load_spec

        return load_spec("sec63").with_overrides({
            "sched.hedge": True,
            "faults.limp_severity": 4.0,
            "faults.transient_rate": 0.02,
            "trace.rps": 600.0,
            "trace.duration_seconds": 20.0,
            # sec63's 20 ms deadline fails a few invocations at most seeds;
            # 100 ms keeps every one completing (retries, hedges and
            # quarantines all still fire) so no benchmark operation fails.
            "faults.deadline_seconds": 0.1,
            "seed": seed,
        })


class LogprocFanout(ClusterWorkload):
    name = "logproc_fanout"
    why = ("the only workload with communication functions, each fan-out "
           "through the DAG dispatcher path and payloads large enough to matter")
    slices = 200
    shards = 8
    lines_per_shard = 400

    def spec(self, seed):
        from repro.scenario import scenario_from_dict

        return scenario_from_dict({
            "name": "logproc_fanout",
            "seed": seed,
            "trace": {"kind": "synthetic", "rps": 400.0, "duration_seconds": 3.0},
            "fleet": {"workers": 2, "cores": 8},
        })

    def install_app(self, prepared):
        from repro.apps import register_logproc_app, setup_log_services

        cluster = prepared.cluster
        prepared.endpoints = setup_log_services(
            cluster.workers[0],
            shard_count=self.shards,
            lines_per_shard=self.lines_per_shard,
        )
        for worker in cluster.workers:
            name = register_logproc_app(worker)
        prepared.names = [name]
        prepared.inputs = {"token": b"token-alpha"}

    def expected_report(self, prepared):
        """``(total_lines, errors)`` computed directly from the shards."""
        from repro.net.http import HttpRequest

        total = errors = 0
        for endpoint in prepared.endpoints:
            request = HttpRequest("GET", endpoint)
            service = prepared.cluster.network.service(request.host)
            lines = service.handle(request).body.decode().splitlines()
            total += len(lines)
            errors += sum(1 for line in lines if "level=ERROR" in line)
        return total, errors

    def check_outputs(self, prepared):
        total, errors = self.expected_report(prepared)
        marker = f"total_lines={total} errors={errors}".encode()
        bad = 0
        for _latency, result in prepared.results:
            if result.ok:
                items = result.output("report").items
                if len(items) != 1 or marker not in bytes(items[0].data):
                    bad += 1
        return [f"{bad} logproc reports differ from the shard contents"] if bad else []

    check_equivalence = None


# -- trace replay -----------------------------------------------------------------


class _SlicedTrace:
    """The replay's trace, handed to ``run_sharded_replay`` unchanged except
    that pulling the first arrival of each virtual-time slice cuts a slice.

    ``on_first`` runs once the replayer and the stream are set up, just
    before the first arrival is pulled; ``wrap_next`` (traced drives) replaces the slicing with a
    wrapper around each pull.
    """

    def __init__(self, trace, slicer, step, on_first=None, wrap_next=None):
        self._trace = trace
        self._slicer = slicer
        self._step = step
        self._on_first = on_first
        self._wrap_next = wrap_next
        self.tail_due = 0

    def __getattr__(self, name):
        return getattr(self._trace, name)

    def iter_invocations(self):
        stream = self._trace.iter_invocations()
        if self._on_first is not None:
            self._on_first()
        if self._wrap_next is not None:
            return self._wrap_next(stream)
        return self._sliced(stream)

    def _sliced(self, stream):
        step = self._step
        slicer = self._slicer
        boundary = step
        due = 0
        for record in stream:
            while record[0] >= boundary:
                slicer.cut(due)
                due = 0
                boundary += step
            due += 1
            yield record
        self.tail_due = due


class Replay10x:
    name = "replay_10x"
    why = ("sharded replay of the 10x Azure-shaped trace: sharded, trace and "
           "window serialisation, bypassing cluster/dispatcher/engines")
    slices = 240
    scale = 10.0
    population_seed = 42

    def prepare(self, seed):
        from repro.trace.stream import StreamedTrace, streamed_trace

        # The function population is the workload's fixed application mix
        # (the Fig 10 sample's seed, scaled 10x); the benchmark seed draws
        # the invocation stream over it, as it draws arrivals over the
        # fixed app set of the cluster workloads.
        t0 = time.perf_counter()
        population = streamed_trace(
            function_count=round(100 * self.scale),
            duration_seconds=1200.0,
            total_rps=12.0 * self.scale,
            seed=self.population_seed,
        )
        trace = StreamedTrace(population.functions, population.duration_seconds, seed)
        t1 = time.perf_counter()
        return Prepared(trace=trace, duration=trace.duration_seconds,
                        trace_s=t1 - t0, seed=seed, report=None)

    def config(self, seed):
        from repro.sim.sharded import ShardedConfig

        return ShardedConfig(
            workers=4, cores_per_worker=64, shards=1, window_seconds=0.5,
            platform="dandelion", policy="least_loaded", engine="lean",
            executor="serial", seed=seed,
        )

    def drive(self, prepared, slicer, tag=None, on_first=None, wrap_next=None):
        from repro.sim.sharded import run_sharded_replay

        sliced = _SlicedTrace(prepared.trace, slicer,
                              prepared.duration / self.slices, on_first, wrap_next)
        slicer.begin()
        report = run_sharded_replay(sliced, self.config(prepared.seed))
        slicer.cut(sliced.tail_due)
        prepared.report = report
        return self.outcome(prepared)

    def outcome(self, prepared):
        report = prepared.report
        latencies = sorted(x * 1e3 for x in report.latencies)
        layer_counts = {
            "sharded_events": report.events,
            "windows": report.windows,
            "committed_peak_mib": max(report.committed_grid) / MiB,
        }
        return Outcome(
            offered=report.routed, completed=report.completed,
            failed=report.routed - report.completed, latencies_ms=latencies,
            committed_mib=report.committed_mean_bytes / MiB,
            digest_parts=[sorted(report.summary().items())],
            end_state={"in_flight": report.routed - report.completed,
                       "committed_bytes": report.committed_grid[-1],
                       "live_contexts": 0},
            layer_counts=layer_counts,
        )

    def check(self, prepared, outcome):
        problems = []
        offered = sum(1 for _ in prepared.trace.iter_invocations())
        if prepared.report.routed != offered:
            problems.append(
                f"replay routed {prepared.report.routed} of {offered} invocations"
            )
        if outcome.offered != outcome.completed + outcome.failed:
            problems.append("conservation: offered != completed + failed")
        return problems

    check_equivalence = None


WORKLOADS = {w.name: w for w in (FleetEcho, LogprocFanout, Replay10x, GrayHedge)}
