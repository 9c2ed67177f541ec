"""Trace-scale benchmark plumbing: groups, filter, and the gated record."""

import json
from pathlib import Path

import pytest

from repro.experiments.bench_kernel import BENCH_GROUPS, run_bench
from repro.experiments.bench_trace_scale import (
    FLOORS,
    REFERENCE_10X,
    REFERENCE_100X,
    trace_scale_matrix,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_acceptance_record_meets_floor():
    # The committed 100x record is the acceptance criterion: >=3x at 4
    # shards vs the single-shard kernel at equal scale.
    assert (
        REFERENCE_100X["speedup_4_shards_vs_baseline"]
        >= FLOORS["speedup_4_shards_min_100x"]
        == 3.0
    )
    assert REFERENCE_100X["invocations"] >= 500_000
    assert REFERENCE_100X["scale"] == 100


def test_committed_bench_report_is_consistent():
    path = REPO_ROOT / "BENCH_trace_scale.json"
    report = json.loads(path.read_text())
    assert report["schema"] == "repro-bench-trace-scale/v2"
    assert report["floors"] == FLOORS
    assert report["reference_10x"] == REFERENCE_10X
    assert report["reference_100x"] == REFERENCE_100X
    matrix = report["measured"]["scale_10x"]
    assert [(row["shards"], row["executor"]) for row in matrix["rows"]] == [
        (1, "serial"), (2, "serial"), (4, "serial"), (4, "auto"),
    ]
    for row in matrix["rows"]:
        assert row["invocations"] == REFERENCE_10X["invocations"]
        assert row["events_per_second"] >= FLOORS["events_per_second_min"]


def test_matrix_smoke_without_baseline():
    # A tiny matrix run: lean rows only (the eager baseline is a frozen
    # reference record), events/sec recorded, no speedups.
    matrix = trace_scale_matrix(scale=0.5)
    assert not any(key.startswith("speedup") for key in matrix)
    assert len(matrix["rows"]) == 4
    for row in matrix["rows"]:
        assert row["invocations"] > 0
        assert row["events_per_second"] > 0
        assert row["wall_seconds"] >= 0
    assert {r["invocations"] for r in matrix["rows"]} == {
        matrix["rows"][0]["invocations"]
    }, "all rows must replay the same stream"


def test_bench_only_filter_selects_groups():
    report = run_bench(output=None, only=["timeout_churn_200k"])
    assert list(report["benchmarks"]) == ["timeout_churn_200k"]
    assert report["benchmarks"]["timeout_churn_200k"]["operations"] == 200_000


def test_bench_only_rejects_unknown_group():
    with pytest.raises(KeyError, match="unknown bench groups"):
        run_bench(output=None, only=["no_such_group"])


def test_trace_scale_is_a_registered_group():
    assert "trace_scale" in BENCH_GROUPS
