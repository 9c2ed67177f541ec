"""The benchmark measures the program: its spans fire and its timings move.

Run from the root of a checkout (about a minute)::

    python3 -m pytest perfbench/test_wiring.py -q

* every span wrapper fires on the workload that exercises its layer, and
  the layers a workload bypasses read zero there, at the held-out seed;
* a busy-wait injected into one entry point each of ``data``,
  ``functions`` and ``net`` raises that layer's self time by about
  delay x calls per invocation, and raises ``host_us_per_inv`` on the
  workload that runs the layer, while the workload that bypasses ``net``
  stays within the benchmark's bound.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import json
import os
import statistics
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import run as bench  # noqa: E402
from perfbench import tracing  # noqa: E402
from perfbench.drift import REFERENCE_NOMINAL_S  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    FleetEcho,
    GrayHedge,
    LogprocFanout,
    Replay10x,
)

# The committed baseline figures use seed 0; these checks run at a seed
# that was not used while the benchmark was written.
HELD_OUT_SEED = 7


class ShortLogproc(LogprocFanout):
    def spec(self, seed):
        return super().spec(seed).with_overrides({"trace.duration_seconds": 0.5})


class ShortGray(GrayHedge):
    def spec(self, seed):
        return super().spec(seed).with_overrides({"trace.duration_seconds": 5.0})


WORKLOADS = {
    "fleet_echo": FleetEcho,
    "logproc_fanout": ShortLogproc,
    "replay_10x": Replay10x,
    "gray_hedge": ShortGray,
}

# Span -> the workload named to exercise it.  Together these cover every
# entry point ``tracing.install`` wraps.
SPANS = {
    "sim:Environment.run": "fleet_echo",
    "cluster:ClusterManager.invoke": "fleet_echo",
    "sched:LeastOutstanding.decide": "fleet_echo",
    "sched:GrayFailureAware.decide": "gray_hedge",
    "dispatcher:Frontend.invoke": "fleet_echo",
    "dispatcher:Dispatcher.invoke": "fleet_echo",
    "engines.compute:EngineGroup.submit": "fleet_echo",
    "engines.comm:EngineGroup.submit": "logproc_fanout",
    "backends:IsolationBackend.execute": "fleet_echo",
    "functions:run_compute_function": "fleet_echo",
    "functions:purity_guard": "fleet_echo",
    "functions:_PurityGuard.__enter__": "fleet_echo",
    "functions:_PurityGuard.__exit__": "fleet_echo",
    "functions:user": "fleet_echo",
    "apps:user": "logproc_fanout",
    "data:MemoryContext.store_sets": "fleet_echo",
    "data:serialized_size": "logproc_fanout",
    "data:serialize_sets": "replay_10x",
    "data:parse_sets_lazy": "replay_10x",
    "net:SimulatedNetwork.perform": "logproc_fanout",
    "sharded:run_sharded_replay": "replay_10x",
    "sharded:ShardSim.run_window": "replay_10x",
    "sharded:WindowedRouter.route_window": "replay_10x",
    "trace:next": "replay_10x",
    "cluster:ClusterManager._invoke_hedged": "gray_hedge",
}

# Layer -> workloads that bypass it, where its self time must be zero.
BYPASSED = {
    "net": ("fleet_echo", "gray_hedge", "replay_10x"),
    "sharded": ("fleet_echo", "gray_hedge", "logproc_fanout"),
    "cluster": ("replay_10x",),
    "dispatcher": ("replay_10x",),
    "engines.compute": ("replay_10x",),
    "functions": ("replay_10x",),
}


def _bound(metric):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return next(m["bound"] for m in spec["end_to_end"] if m["name"] == metric)


def _traced(name, seed=HELD_OUT_SEED):
    workload = WORKLOADS[name]()
    tracer = tracing.Tracer()
    outcome, traced_s, scale, problems = bench.traced_drive(workload, seed, tracer)
    assert problems == []
    return workload, tracer, outcome, scale


def _untraced_us(name, drives=2, seed=HELD_OUT_SEED):
    measured = bench.measured_drives(WORKLOADS[name](), seed, 0.0, bench.GcWatch(),
                                     min_drives=drives)
    assert all(d.problems == [] for d in measured)
    scale = REFERENCE_NOMINAL_S / (statistics.median(d.ref_ms for d in measured) / 1e3)
    return statistics.median(d.corrected_us for d in measured), scale


def _self_us(tracer, outcome, scale, layer):
    return tracer.layer_self_ns().get(layer, 0) * scale / 1e3 / outcome.offered


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_spans_fire_where_named_and_bypassed_layers_read_zero(name):
    _workload, tracer, outcome, _scale = _traced(name)
    silent = [span for span, where in SPANS.items()
              if where == name and not tracer.calls.get(span)]
    assert silent == [], f"spans that never fired on {name}: {silent}"
    layers = tracer.layer_self_ns()
    for layer, bypassing in BYPASSED.items():
        if name in bypassing:
            assert layers.get(layer, 0) == 0, f"{layer} ran on {name}"
    counts = outcome.layer_counts
    if name == "fleet_echo":
        assert counts["hedges"] == counts["hedges_won"] == counts["quarantines"] == 0
    if name == "gray_hedge":
        assert counts["hedges"] > 0 and counts["quarantines"] > 0
    if name in BYPASSED["net"]:
        assert counts.get("net_bytes", 0) == 0


def test_every_entry_point_has_a_span_named_for_a_workload():
    for layer, target in tracing.entry_points():
        suffix = (f".{target[1]}" if isinstance(target, tuple)
                  else f":{target.__qualname__}")
        assert any(span.startswith(layer + ":") and span.endswith(suffix)
                   for span in SPANS), target


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


@contextlib.contextmanager
def _injected(layer, delay):
    """Busy-wait ``delay`` seconds on each call of one entry point of ``layer``."""
    from repro.data.context import MemoryContext
    from repro.functions import compute
    from repro.net.network import SimulatedNetwork

    patches = tracing.Patches()
    if layer == "data":
        store_sets = MemoryContext.store_sets

        @functools.wraps(store_sets)
        def slow_store_sets(self, *args, **kwargs):
            _busy(delay)
            return store_sets(self, *args, **kwargs)

        patches.set(MemoryContext, "store_sets", slow_store_sets)
    elif layer == "functions":
        run_compute_function = compute.run_compute_function

        @functools.wraps(run_compute_function)
        def slow_run_compute_function(*args, **kwargs):
            _busy(delay)
            return run_compute_function(*args, **kwargs)

        tracing.patch_function(patches, run_compute_function, slow_run_compute_function)
    elif layer == "net":
        perform = SimulatedNetwork.perform

        @functools.wraps(perform)
        def slow_perform(self, request):
            _busy(delay)
            return (yield from perform(self, request))

        patches.set(SimulatedNetwork, "perform", slow_perform)
    try:
        yield
    finally:
        patches.undo()
        gc.collect()


# Layer -> (workload that runs it, span of the entry point that is slowed).
INJECTIONS = {
    "data": ("fleet_echo", "data:MemoryContext.store_sets"),
    "functions": ("fleet_echo", "functions:run_compute_function"),
    "net": ("logproc_fanout", "net:SimulatedNetwork.perform"),
}
DELAY_S = 40e-6


@pytest.mark.parametrize("layer", sorted(INJECTIONS))
def test_injected_delay_shows_in_its_layer_and_end_to_end(layer):
    name, span = INJECTIONS[layer]
    base_us, _ = _untraced_us(name)
    _, base_tracer, base_outcome, base_scale = _traced(name)
    base_self = _self_us(base_tracer, base_outcome, base_scale, layer)
    del base_tracer
    with _injected(layer, DELAY_S):
        slow_us, untraced_scale = _untraced_us(name)
        _, tracer, outcome, scale = _traced(name)
    # ``perform`` is a generator with one span per resume but one delay per
    # exchange, so its calls are the network's request count.
    calls = (outcome.layer_counts["net_requests"] if layer == "net"
             else tracer.calls[span])
    expected_us = DELAY_S * 1e6 * calls / outcome.offered
    rise = _self_us(tracer, outcome, scale, layer) - base_self
    assert 0.6 * expected_us * scale < rise < 1.6 * expected_us * scale, (
        rise, expected_us, scale)
    assert slow_us - base_us > 0.5 * expected_us * untraced_scale, (base_us, slow_us)


def test_workload_bypassing_net_stays_within_bound():
    base_us, _ = _untraced_us("fleet_echo")
    with _injected("net", DELAY_S):
        slow_us, _ = _untraced_us("fleet_echo")
        _, tracer, outcome, scale = _traced("fleet_echo")
    assert _self_us(tracer, outcome, scale, "net") == 0
    assert abs(slow_us - base_us) / base_us < _bound("host_us_per_inv")
