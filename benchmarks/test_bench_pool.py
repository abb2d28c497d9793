"""Parallel-execution-layer benchmark (DESIGN.md §12).

Two contracts from the scenario pool, mirroring CI's scaling-smoke job:

* determinism is absolute — the scaling sweep must produce an identical
  batch fingerprint at every jobs level;
* throughput is hardware-dependent — parallel efficiency only gates
  when the host actually has the cores.
"""

from repro.metrics.perf import check_scaling, run_scaling_benchmark

from .conftest import bench_once


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
