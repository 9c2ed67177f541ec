"""Cluster manager — Dirigent-like multi-worker orchestration (§5).

"The cluster manager orchestrates multiple worker nodes and load
balances composition invocations across nodes.  We extended Dirigent to
support Dandelion worker nodes, but other cluster managers could also
be used."

The :class:`ClusterManager` owns a fleet of :class:`WorkerNode`\\ s that
share one simulation environment and one simulated network (so they see
the same remote services), replicates function/composition
registrations across the fleet, and routes invocations through a
pluggable :class:`~repro.sched.routing.RoutingPolicy` (see
docs/scheduling.md).  Policies are named in the back-compat
:data:`ROUTING_POLICIES` registry or passed as objects:

* ``round_robin`` — rotate over the stable worker-index ring;
* ``least_loaded`` — fewest in-flight invocations (Dirigent-style
  just-in-time placement);
* ``random`` — seeded uniform choice;
* ``jsq`` — power-of-d-choices sampling (d=2);
* ``locality`` — prefer workers with warm binary caches for the
  invoked composition;
* ``gray`` — quarantine latency-degraded workers with load-bounded
  spill-back (requires ``latency_health=True``).

Routing decisions consume an immutable
:class:`~repro.sched.snapshots.ClusterSnapshot` built in O(1): the
healthy-index ring is maintained incrementally on
``fail_worker``/``restore_worker``/``add_worker`` rather than rebuilt
per invocation.

Workers can also be added while the cluster is running (scale-out);
previously registered functions and compositions are replayed onto the
new node before it receives traffic.

Fail-stop fault domain (§6.1): :meth:`fail_worker` crashes a worker —
it is skipped by routing, invocations in flight on it are re-routed to
a healthy peer (safe because compositions are pure compute and
protocol-checked communication, so re-execution is transparent), and
its state is lost.  :meth:`restore_worker` brings the node back as a
*fresh* worker with registrations replayed, mirroring how Dirigent
re-admits a recovered node.  :class:`~repro.cluster.faults.WorkerFaultInjector`
drives these transitions from seeded MTTF/MTTR distributions.

Gray-failure fault domain (docs/fault_tolerance.md): :meth:`limp_worker`
degrades a worker's engine throughput without killing it — the
"limplock" regime fail-stop detectors are blind to.  Two optional
defenses, both off by default (and byte-identical to the legacy
behaviour when off):

* ``latency_health=True`` maintains a per-worker completion-latency
  EWMA (:class:`~repro.cluster.health.LatencyHealthTracker`) and a
  *preferred* routing ring excluding quarantined workers, which every
  routing policy consumes through the snapshot's ``candidates``;
* ``hedge=True`` re-issues an invocation to a second worker once it
  has been outstanding longer than a percentile of observed latency,
  taking whichever completion arrives first.  Hedges are only sent for
  pure-compute compositions (re-execution is idempotent, §6.1) and are
  capped at ``hedge_budget_fraction`` of traffic.
"""

from __future__ import annotations

from typing import Optional, Union

from ..composition.graph import Composition
from ..composition.registry import FunctionBinary
from ..dispatcher.dispatcher import InvocationResult
from ..errors import InvocationError, WorkerCrashed
from ..net.network import LatencyModel, SimulatedNetwork
from ..sched import ClusterSnapshot, RoutingPolicy, make_routing_policy
from ..sched.routing import ROUTING_POLICIES
from ..sim.core import Environment, Interrupt
from ..sim.distributions import Rng
from ..sim.metrics import LatencyRecorder
from ..worker import WorkerConfig, WorkerNode
from .health import LatencyHealthTracker

__all__ = ["ClusterManager", "ROUTING_POLICIES"]

# Cluster-manager hop: routing decision + request forwarding.
_ROUTING_OVERHEAD_SECONDS = 50e-6


def _pure_compute(composition: Composition) -> bool:
    """True when the composition (recursively) has no communication
    nodes — the idempotency precondition for hedged re-execution."""
    for node in composition.nodes.values():
        if node.kind == "communication":
            return False
        if node.kind == "composition" and not _pure_compute(node.composition):
            return False
    return True


class ClusterManager:
    """Routes composition invocations over a fleet of worker nodes."""

    def __init__(
        self,
        worker_count: int = 2,
        worker_config: Optional[WorkerConfig] = None,
        policy: Union[str, RoutingPolicy] = "least_loaded",
        env: Optional[Environment] = None,
        network: Optional[SimulatedNetwork] = None,
        seed: int = 0,
        max_reroutes: int = 3,
        latency_health: bool = False,
        health_tracker: Optional[LatencyHealthTracker] = None,
        quarantine_ttl_seconds: float = 1.0,
        hedge: bool = False,
        hedge_percentile: float = 95.0,
        hedge_budget_fraction: float = 0.05,
        hedge_min_samples: int = 20,
    ):
        if worker_count < 1:
            raise ValueError("cluster needs at least one worker")
        if not 0.0 < hedge_percentile < 100.0:
            raise ValueError("hedge_percentile must be in (0, 100)")
        if not 0.0 <= hedge_budget_fraction <= 1.0:
            raise ValueError("hedge_budget_fraction must be in [0, 1]")
        if hedge_min_samples < 1:
            raise ValueError("hedge_min_samples must be >= 1")
        self.env = env or Environment()
        self.network = network or SimulatedNetwork(self.env, LatencyModel())
        self._rng = Rng(seed)
        self.routing_policy = make_routing_policy(policy, self._rng)
        # Back-compat: `.policy` stays the string name experiments log.
        self.policy = policy if isinstance(policy, str) else self.routing_policy.name
        self._config = worker_config or WorkerConfig()
        self.max_reroutes = max_reroutes
        self.workers: list[WorkerNode] = []
        self._functions: list[FunctionBinary] = []
        self._compositions: list = []
        # Function names used by each registered composition, sorted for
        # deterministic locality scoring (snapshot contract).
        self._composition_functions: dict[str, tuple] = {}
        self._in_flight: dict[int, int] = {}
        self._healthy: dict[int, bool] = {}
        # Healthy-index ring, maintained incrementally so the fault-free
        # routing fast path builds its snapshot in O(1).
        self._healthy_indices: tuple = ()
        # Cluster-side processes waiting on each worker; interrupted
        # (and re-routed) when that worker fail-stops.  Insertion-ordered
        # dicts used as sets: interrupts go out in the order the waiters
        # started, never in id()-hash order, so re-routing is
        # deterministic.
        self._crash_waiters: dict[int, dict] = {}
        self.latencies = LatencyRecorder("cluster")
        self.failed_latencies = LatencyRecorder("cluster-failed")
        self.invocations_routed = 0
        self.invocations_failed = 0
        self.worker_crashes = 0
        self.worker_restores = 0
        self.reroutes = 0
        self.per_worker_invocations: dict[int, int] = {}
        self.per_worker_failures: dict[int, int] = {}
        self.per_worker_crashes: dict[int, int] = {}
        # Gray-failure defenses.  `health is None` (the default) keeps
        # the snapshot free of health references, so every routing
        # policy sees exactly the legacy inputs and fault-free runs
        # stay bit-identical.
        if health_tracker is not None:
            self.health: Optional[LatencyHealthTracker] = health_tracker
        elif latency_health:
            self.health = LatencyHealthTracker()
        else:
            self.health = None
        # Preferred ring: healthy AND not quarantined, maintained
        # incrementally like the healthy ring (rebuilt only on
        # quarantine flips and membership changes).
        self._preferred_indices: tuple = ()
        # Quarantine is a probation, not a death sentence: a sidelined
        # worker receives (almost) no traffic, so its EWMA can never
        # recover on its own.  After the TTL the manager forgets the
        # worker's latency history and lets it re-earn its place — a
        # still-limping worker re-quarantines within min_samples
        # completions, a recovered one rejoins cleanly.
        if quarantine_ttl_seconds <= 0:
            raise ValueError("quarantine_ttl_seconds must be positive")
        self.quarantine_ttl_seconds = quarantine_ttl_seconds
        self.hedge = hedge
        self.hedge_percentile = hedge_percentile
        self.hedge_budget_fraction = hedge_budget_fraction
        self.hedge_min_samples = hedge_min_samples
        self.hedges_issued = 0
        self.hedges_won = 0
        self._hedged_invocations = 0
        # composition name -> safe to hedge (pure compute, §6.1).
        self._hedgeable: dict[str, bool] = {}
        for _ in range(worker_count):
            self.add_worker()

    # -- fleet management ------------------------------------------------------

    def add_worker(self) -> WorkerNode:
        """Add (scale out) one worker; replays existing registrations."""
        worker = self._fresh_worker()
        index = len(self.workers)
        self.workers.append(worker)
        self._in_flight[index] = 0
        self._healthy[index] = True
        self._refresh_healthy_indices()
        self._refresh_preferred_indices()
        self._crash_waiters[index] = {}
        self.per_worker_invocations[index] = 0
        self.per_worker_failures[index] = 0
        self.per_worker_crashes[index] = 0
        return worker

    def _fresh_worker(self) -> WorkerNode:
        worker = WorkerNode(self._config, env=self.env, network=self.network)
        for binary in self._functions:
            worker.frontend.register_function(binary)
        for composition in self._compositions:
            worker.frontend.register_composition(composition)
        return worker

    @property
    def worker_count(self) -> int:
        return len(self.workers)

    @property
    def healthy_worker_count(self) -> int:
        return len(self._healthy_indices)

    def is_healthy(self, index: int) -> bool:
        return self._healthy[index]

    def _refresh_healthy_indices(self) -> None:
        """Rebuild the healthy ring on membership changes (rare: add,
        fail, restore) so routing never rescans the fleet."""
        self._healthy_indices = tuple(
            index for index, ok in self._healthy.items() if ok
        )

    def _refresh_preferred_indices(self) -> None:
        """Rebuild the preferred (non-quarantined) ring.

        Runs only on quarantine flips and membership changes — both
        rare — so routing keeps its O(1) snapshot on the hot path."""
        if self.health is None:
            return
        is_quarantined = self.health.is_quarantined
        self._preferred_indices = tuple(
            index for index in self._healthy_indices if not is_quarantined(index)
        )

    def is_quarantined(self, index: int) -> bool:
        return self.health is not None and self.health.is_quarantined(index)

    # -- fail-stop fault domain (§6.1) ----------------------------------------

    def fail_worker(self, index: int) -> None:
        """Crash worker ``index`` (fail-stop): its state is lost.

        Routing skips the worker from now on, and every cluster-side
        invocation currently in flight on it is interrupted and
        re-routed to a healthy peer — transparent re-execution is safe
        because compositions are pure (§6.1).  The crashed node's
        in-simulation activity is abandoned (results discarded), the
        discrete-event analogue of the process disappearing.
        """
        if not 0 <= index < len(self.workers):
            raise IndexError(f"no worker {index}")
        if not self._healthy[index]:
            raise ValueError(f"worker {index} is already failed")
        self._healthy[index] = False
        self._refresh_healthy_indices()
        if self.health is not None:
            # A dead worker's latency history is meaningless for the
            # fresh node that will replace it.
            self.health.reset(index)
            self._refresh_preferred_indices()
        self.worker_crashes += 1
        self.per_worker_crashes[index] += 1
        cause = WorkerCrashed(index)
        waiters = self._crash_waiters[index]
        for process in list(waiters):
            if process.is_alive:
                process.interrupt(cause)
        waiters.clear()

    def restore_worker(self, index: int) -> WorkerNode:
        """Bring worker ``index`` back as a fresh node (state was lost).

        Fail-stop semantics mean nothing survives the crash, so restore
        builds a brand-new :class:`WorkerNode` and replays every
        function/composition registration before the node re-enters the
        routing pool.
        """
        if not 0 <= index < len(self.workers):
            raise IndexError(f"no worker {index}")
        if self._healthy[index]:
            raise ValueError(f"worker {index} is healthy; nothing to restore")
        worker = self._fresh_worker()
        self.workers[index] = worker
        self._healthy[index] = True
        self._refresh_healthy_indices()
        if self.health is not None:
            self.health.reset(index)
            self._refresh_preferred_indices()
        self._in_flight[index] = 0
        self.worker_restores += 1
        return worker

    # -- gray-failure fault domain (limplock) ---------------------------------

    def limp_worker(self, index: int, multiplier: float) -> None:
        """Degrade worker ``index`` to ``1/multiplier`` of nominal speed.

        The worker stays in the healthy ring and keeps serving — just
        slower (every compute service time and network exchange is
        stretched by ``multiplier``).  Fail-stop detection cannot see
        this; only latency-based health can.
        """
        if not 0 <= index < len(self.workers):
            raise IndexError(f"no worker {index}")
        if not self._healthy[index]:
            raise ValueError(f"worker {index} is down; dead workers cannot limp")
        self.workers[index].set_limp(multiplier)

    def clear_limp(self, index: int) -> None:
        """Restore worker ``index`` to nominal engine throughput."""
        if not 0 <= index < len(self.workers):
            raise IndexError(f"no worker {index}")
        self.workers[index].set_limp(1.0)

    def limp_factor(self, index: int) -> float:
        return self.workers[index].limp_multiplier

    @property
    def limping_worker_count(self) -> int:
        return sum(1 for worker in self.workers if worker.throttle.limping)

    # -- registration (fanned out to every node) ----------------------------------

    def register_function(self, binary: FunctionBinary) -> None:
        self._functions.append(binary)
        for worker in self.workers:
            worker.frontend.register_function(binary)

    def register_composition(self, composition_or_source) -> Composition:
        registered: Optional[Composition] = None
        for worker in self.workers:
            registered = worker.frontend.register_composition(composition_or_source)
        assert registered is not None
        self._compositions.append(registered)
        self._composition_functions[registered.name] = tuple(
            sorted(registered.required_functions())
        )
        self._hedgeable[registered.name] = _pure_compute(registered)
        ingest = getattr(self.routing_policy, "ingest_summary", None)
        if ingest is not None and self.workers:
            # Cost-aware policies take the static dataflow summary at
            # registration time; other policies never pay for analysis.
            summary = self.workers[0].dispatcher.cost_summary(registered.name)
            if summary is not None:
                ingest(summary)
        return registered

    # -- routing ---------------------------------------------------------------

    def _warm_functions_of(self, index: int):
        """Live warm-binary view of one worker (locality signal)."""
        return self.workers[index].dispatcher.warm_binaries

    def snapshot(self, composition_name: Optional[str] = None) -> ClusterSnapshot:
        """Build the routing policy's O(1) view of the fleet."""
        if self.health is None:
            return ClusterSnapshot(
                self._healthy_indices,
                len(self.workers),
                self._healthy,
                self._in_flight,
                composition_name,
                self._composition_functions.get(composition_name, ()),
                self._warm_functions_of,
            )
        return ClusterSnapshot(
            self._healthy_indices,
            len(self.workers),
            self._healthy,
            self._in_flight,
            composition_name,
            self._composition_functions.get(composition_name, ()),
            self._warm_functions_of,
            self._preferred_indices,
            self.health.scores,
            self.health.quarantined,
        )

    def _observe_latency(self, index: int, elapsed: float) -> None:
        """Feed one completion into latency health (no-op when off)."""
        if self.health is not None and self.health.observe(index, elapsed):
            self._refresh_preferred_indices()
            if self.health.is_quarantined(index):
                self.env.process(self._probation(index))

    def _probation(self, index: int):
        """After the quarantine TTL, amnesty: forget the worker's
        latency history so it can rejoin and be re-judged afresh."""
        yield self.env.timeout(self.quarantine_ttl_seconds)
        if self.health is not None and self.health.is_quarantined(index):
            self.health.reset(index)
            self._refresh_preferred_indices()

    def _pick_worker(self, composition_name: Optional[str] = None) -> Optional[int]:
        """Pick a healthy worker index, or ``None`` if the fleet is down.

        With every worker healthy each default policy consumes exactly
        the same decision stream as the pre-``repro.sched`` inline
        dispatch, so fault-free runs stay bit-identical.
        """
        if not self._healthy_indices:
            return None
        return self.routing_policy.decide(self.snapshot(composition_name))

    def invoke(self, composition_name: str, inputs: dict):
        """Route one invocation; returns a process → InvocationResult."""
        if self.hedge and self._hedgeable.get(composition_name, False):
            return self.env.process(self._invoke_hedged(composition_name, inputs))
        return self.env.process(self._invoke(composition_name, inputs))

    def _invoke(self, composition_name: str, inputs: dict):
        yield self.env.timeout(_ROUTING_OVERHEAD_SECONDS)
        started = self.env.now
        reroutes = 0
        while True:
            index = self._pick_worker(composition_name)
            if index is None:
                return self._fail_invocation(
                    started, InvocationError("no healthy workers available")
                )
            self._in_flight[index] += 1
            self.per_worker_invocations[index] += 1
            self.invocations_routed += 1
            waiter = self.env.active_process
            self._crash_waiters[index][waiter] = None
            crashed = False
            attempt_started = self.env.now
            try:
                result = yield self.workers[index].frontend.invoke(
                    composition_name, inputs
                )
            except Interrupt:
                # The worker fail-stopped under us; whatever it was
                # doing is lost.  Re-route to a healthy peer.
                crashed = True
            finally:
                self._crash_waiters[index].pop(waiter, None)
                if self._in_flight.get(index, 0) > 0:
                    self._in_flight[index] -= 1
            if crashed:
                reroutes += 1
                if reroutes > self.max_reroutes:
                    return self._fail_invocation(started, WorkerCrashed(index))
                self.reroutes += 1
                continue
            # Per-attempt latency is the gray-failure signal: error
            # completions (deadline expirations on a limping node)
            # carry it just as loudly as successes.
            self._observe_latency(index, self.env.now - attempt_started)
            if result.ok:
                self.latencies.record(self.env.now - started)
            else:
                # Error paths are telemetry too: count them against the
                # worker that served the request and record their
                # latency separately so failures never vanish silently.
                self.invocations_failed += 1
                self.per_worker_failures[index] += 1
                self.failed_latencies.record(self.env.now - started)
            return result

    # -- hedged requests (gray-failure tail-latency defense) -------------------

    def _hedge_delay(self) -> Optional[float]:
        """Percentile-of-observed-latency hedge trigger, or ``None``
        until enough completions have been seen to estimate it."""
        if self.latencies.count < self.hedge_min_samples:
            return None
        return self.latencies.percentile(self.hedge_percentile)

    def _hedge_budget_available(self) -> bool:
        """True while issuing one more hedge keeps the hedge rate at or
        below ``hedge_budget_fraction`` of hedge-eligible traffic."""
        return (self.hedges_issued + 1) <= (
            self.hedge_budget_fraction * self._hedged_invocations
        )

    def _pick_hedge_worker(
        self, primary: int, composition_name: Optional[str]
    ) -> Optional[int]:
        """Deterministic secondary choice: least outstanding over the
        non-quarantined candidates, excluding the primary."""
        snapshot = self.snapshot(composition_name)
        best = None
        best_load = None
        for pool in (snapshot.candidates, snapshot.healthy):
            for index in pool:
                if index == primary:
                    continue
                load = self._in_flight[index]
                if best is None or load < best_load:
                    best = index
                    best_load = load
            if best is not None:
                return best
        return None

    def _route_to(self, index: int) -> None:
        """Account one routed attempt against a worker, synchronously
        with the routing decision (so same-instant decisions see it)."""
        self._in_flight[index] += 1
        self.per_worker_invocations[index] += 1
        self.invocations_routed += 1

    def _attempt(self, index: int, composition_name: str, inputs: dict):
        """One worker-level try, as its own process so attempts race.

        Returns ``(index, result)`` — ``result`` is ``None`` when the
        worker fail-stopped mid-attempt (the crash sentinel).

        The caller increments ``_in_flight`` (and the routed counters)
        *before* spawning this process: the attempt only starts on a
        later event-loop turn, and by then other same-instant routing
        decisions must already see the load this attempt adds.
        """
        waiter = self.env.active_process
        self._crash_waiters[index][waiter] = None
        attempt_started = self.env.now
        try:
            result = yield self.workers[index].frontend.invoke(
                composition_name, inputs
            )
        except Interrupt:
            return (index, None)
        finally:
            self._crash_waiters[index].pop(waiter, None)
            if self._in_flight.get(index, 0) > 0:
                self._in_flight[index] -= 1
        self._observe_latency(index, self.env.now - attempt_started)
        return (index, result)

    def _invoke_hedged(self, composition_name: str, inputs: dict):
        """Route one hedge-eligible invocation.

        The primary attempt runs as a child process; once it has been
        outstanding for the hedge delay (a percentile of observed
        cluster latency), a second attempt is issued to a different
        worker and the first completion wins.  Only pure-compute
        compositions take this path (``invoke`` gates on
        ``_hedgeable``), so the duplicate execution a hedge implies is
        idempotent by construction — the loser just burns simulated
        cycles, exactly like re-execution after a crash (§6.1).
        """
        yield self.env.timeout(_ROUTING_OVERHEAD_SECONDS)
        started = self.env.now
        self._hedged_invocations += 1
        reroutes = 0
        while True:
            index = self._pick_worker(composition_name)
            if index is None:
                return self._fail_invocation(
                    started, InvocationError("no healthy workers available")
                )
            self._route_to(index)
            primary = self.env.process(
                self._attempt(index, composition_name, inputs)
            )
            attempts = [primary]
            if self._hedge_budget_available():
                delay = self._hedge_delay()
                if delay is not None:
                    timer = self.env.timeout(delay)
                    yield self.env.any_of((primary, timer))
                    # Re-check the budget at issue time: other hedged
                    # invocations may have spent it while we waited
                    # (the pre-wait check is only a cheap early out).
                    if primary.is_alive and self._hedge_budget_available():
                        hedge_index = self._pick_hedge_worker(
                            index, composition_name
                        )
                        if hedge_index is not None:
                            self.hedges_issued += 1
                            self._route_to(hedge_index)
                            attempts.append(
                                self.env.process(
                                    self._attempt(
                                        hedge_index, composition_name, inputs
                                    )
                                )
                            )
            # First *successful* completion wins; an error completion is
            # kept as a fallback while another attempt is still running
            # (its worker may still come through).  Losing attempts are
            # left to finish on their own — their in-flight accounting
            # unwinds in _attempt and their results are discarded.
            winner = None
            winner_index = -1
            result = None
            fallback_index = -1
            fallback = None
            outstanding = list(attempts)
            while outstanding:
                if len(outstanding) == 1:
                    attempt = outstanding[0]
                    value = yield attempt
                else:
                    yield self.env.any_of(outstanding)
                    attempt = next(p for p in outstanding if p.processed)
                    value = attempt.value
                outstanding.remove(attempt)
                attempt_index, attempt_result = value
                if attempt_result is None:
                    continue  # that worker crashed; drain the others
                if attempt_result.ok:
                    winner = attempt
                    winner_index = attempt_index
                    result = attempt_result
                    break
                if fallback is None:
                    fallback_index = attempt_index
                    fallback = attempt_result
            if result is None and fallback is not None:
                winner_index = fallback_index
                result = fallback
            if result is None:
                # Every attempt died under a crashing worker.
                reroutes += 1
                if reroutes > self.max_reroutes:
                    return self._fail_invocation(started, WorkerCrashed(index))
                self.reroutes += 1
                continue
            if winner is not None and winner is not primary:
                self.hedges_won += 1
            if result.ok:
                self.latencies.record(self.env.now - started)
            else:
                self.invocations_failed += 1
                self.per_worker_failures[winner_index] += 1
                self.failed_latencies.record(self.env.now - started)
            return result

    def _fail_invocation(self, started: float, error: Exception) -> InvocationResult:
        self.invocations_failed += 1
        self.failed_latencies.record(self.env.now - started)
        return InvocationResult(
            invocation_id=-1,
            error=error,
            started_at=started,
            finished_at=self.env.now,
        )

    def invoke_and_run(self, composition_name: str, inputs: dict):
        process = self.invoke(composition_name, inputs)
        return self.env.run(until=process)

    # -- telemetry ----------------------------------------------------------------

    def stats(self) -> dict:
        return {
            "workers": len(self.workers),
            "healthy_workers": self.healthy_worker_count,
            "policy": self.policy,
            "invocations_routed": self.invocations_routed,
            "per_worker": dict(self.per_worker_invocations),
            "total_committed_bytes": sum(w.memory.current_bytes for w in self.workers),
            "peak_committed_bytes": sum(w.memory.peak_bytes for w in self.workers),
            "failures": {
                "worker_crashes": self.worker_crashes,
                "worker_restores": self.worker_restores,
                "reroutes": self.reroutes,
                "failed_invocations": self.invocations_failed,
                "per_worker_failures": dict(self.per_worker_failures),
                "per_worker_crashes": dict(self.per_worker_crashes),
            },
            "gray": {
                "limping_workers": self.limping_worker_count,
                "quarantined_workers": (
                    self.health.quarantined_count() if self.health else 0
                ),
                "quarantine_entries": (
                    self.health.quarantine_entries if self.health else 0
                ),
                "quarantine_exits": (
                    self.health.quarantine_exits if self.health else 0
                ),
                "hedges_issued": self.hedges_issued,
                "hedges_won": self.hedges_won,
                "hedge_rate": (
                    self.hedges_issued / self._hedged_invocations
                    if self._hedged_invocations
                    else 0.0
                ),
            },
        }
