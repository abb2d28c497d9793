"""Parallel-execution-layer benchmarks (DESIGN.md §12, BENCH_HISTORY.json).

Two contracts from the scenario pool, mirroring the perf-smoke split:

* determinism is absolute — the scaling sweep must produce an identical
  batch fingerprint at every jobs level, and pooled interleaved
  repetitions of the engine macro-benchmark must agree on every
  deterministic field;
* throughput is hardware-dependent — parallel efficiency only gates
  when the host actually has the cores (``REPRO_BENCH_JOBS`` overrides
  the worker count used for the pooled medians).
"""

import os

from repro.metrics.perf import (
    check_scaling,
    run_pooled_engine_medians,
    run_scaling_benchmark,
)

from .conftest import bench_once


def _bench_jobs() -> int:
    env = os.environ.get("REPRO_BENCH_JOBS")
    return int(env) if env else min(2, os.cpu_count() or 1)


def test_bench_scaling_sweep(benchmark):
    result = bench_once(
        benchmark,
        run_scaling_benchmark,
        jobs_levels=(1, 2),
        n_scenarios=8,
    )
    benchmark.extra_info.update(result.to_dict())
    problems = check_scaling(result, min_efficiency=0.5, at_jobs=2)
    assert problems == [], "\n".join(problems)
    fingerprints = {p.batch_fingerprint for p in result.points}
    assert len(fingerprints) == 1


def test_bench_pooled_engine_medians(benchmark):
    medians = bench_once(
        benchmark,
        run_pooled_engine_medians,
        runs=3,
        jobs=_bench_jobs(),
        nbuf=64,
        buflen=1024,
    )
    benchmark.extra_info.update(medians)
    assert medians["deterministic"]["completed"] is True
    assert medians["deterministic"]["bytes_sent"] == 64 * 1024
    assert medians["median_events_per_sec"] > 0
