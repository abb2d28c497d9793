"""Engine perf-smoke: the macro-benchmark behind ``BENCH_HISTORY.json``.

Re-runs the bulk ft-TCP transfer through the primary + 2-backup chain
and compares against the committed trajectory: deterministic simulation
results (event count, simulated duration, throughput, queue high-water
mark) must match the latest history entry exactly on any machine;
events/sec gates on a relative threshold against the *best* committed
entry because wall-clock speed varies by host
(``PERF_REGRESSION_PCT`` overrides the default 30).
"""

import os
from pathlib import Path

from repro.metrics.perf import (
    DEFAULT_THRESHOLD,
    check_regression,
    load_baseline,
    run_engine_benchmark,
)

from .conftest import bench_once

BASELINE_PATH = Path(__file__).resolve().parents[1] / "BENCH_HISTORY.json"


def _threshold() -> float:
    pct = os.environ.get("PERF_REGRESSION_PCT")
    return float(pct) / 100.0 if pct else DEFAULT_THRESHOLD


def test_bench_engine_macro(benchmark):
    baseline = load_baseline(BASELINE_PATH)
    workload = baseline["engine"]["workload"]
    result = bench_once(benchmark, run_engine_benchmark, **workload)
    benchmark.extra_info.update(result.to_dict())
    assert result.completed
    problems = check_regression(result, baseline, threshold=_threshold())
    assert problems == [], "\n".join(problems)


def test_bench_engine_deterministic_results():
    """Two runs with the same seed produce byte-identical simulation
    results (the perf work must never perturb behaviour)."""
    a = run_engine_benchmark(nbuf=64, buflen=1024)
    b = run_engine_benchmark(nbuf=64, buflen=1024)
    for field in (
        "completed",
        "bytes_sent",
        "events",
        "sim_seconds",
        "peak_queue_len",
        "throughput_kB_per_s",
    ):
        assert getattr(a, field) == getattr(b, field), field
