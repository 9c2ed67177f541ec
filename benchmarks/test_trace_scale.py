"""Trace-scale benchmark: the sharded lean replayer at 10× trace scale.

Two checks on the reduced fig10_full stream (1,000 functions, ~70k
invocations):

* shard-count invariance: the rendered fig10_full result is
  byte-identical unsharded on the serial executor and with 2 shards on
  the auto executor (the window length is a model parameter, so
  partitioning and the process-vs-serial executor must never leak into
  results);
* the re-measured matrix clears the events/sec floor committed in
  ``BENCH_trace_scale.json`` on every row, and every row replays the
  identical stream.
"""

import json
from pathlib import Path

from repro.experiments import run_fig10_full
from repro.experiments.bench_trace_scale import FLOORS, trace_scale_matrix

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_fig10_full_10x_is_shard_count_invariant():
    base = run_fig10_full(scale=10.0, shards=1, executor="serial")
    sharded = run_fig10_full(scale=10.0, shards=2, executor="auto")
    assert base.render() == sharded.render(), (
        "sharded replay KPIs must be shard-count invariant"
    )
    print()
    print(sharded.render())
    for platform, stats in sorted(sharded.meta["platforms"].items()):
        print(f"{platform}: {stats['wall_seconds']:.2f}s wall, "
              f"{stats['events']:,} events, {stats['windows']} windows")


def test_trace_scale_10x_matrix(benchmark):
    floors = json.loads((REPO_ROOT / "BENCH_trace_scale.json").read_text())["floors"]
    assert floors == FLOORS
    matrix = benchmark.pedantic(
        trace_scale_matrix, args=(10.0,), rounds=1, iterations=1
    )
    print()
    for row in matrix["rows"]:
        label = f"lean-{row['shards']}-{row['executor']}"
        print(f"{label:20s} {row['wall_seconds']:8.2f}s "
              f"{row['events_per_second']:>10,} events/s")
    assert {row["invocations"] for row in matrix["rows"]} == {
        matrix["rows"][0]["invocations"]
    }, "all rows must replay the same stream"
    assert matrix["rows"][0]["invocations"] > 50_000
    for row in matrix["rows"]:
        assert row["events_per_second"] >= floors["events_per_second_min"], row
