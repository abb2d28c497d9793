"""Process-pool scaling sweep (DESIGN.md §12), CI's scaling-smoke job.

:func:`run_scaling_benchmark` runs one batch of seeded fuzz scenarios
through the :mod:`repro.runtime` pool at several ``--jobs`` levels and
reports scenarios/sec and parallel efficiency.  The batch fingerprint
must be identical at every level; wall clock only gates relatively.
Simulation speed is measured by ``perfbench/`` (``--trace 1`` splits a
run by layer).
"""

from __future__ import annotations

import argparse
import json
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, Sequence


def scaling_scenario(scenario_seed: int) -> dict:
    """Pool task for the scaling benchmark: one seeded fuzz scenario,
    derived purely from its integer seed inside the worker."""
    from repro.invariants.fuzz import generate_spec, run_scenario

    spec = generate_spec(scenario_seed)
    result = run_scenario(spec)
    return {
        "seed": scenario_seed,
        "fingerprint": result.fingerprint,
        "violated": result.violated_monitors,
        "client_received": result.client_received,
    }


@dataclass
class ScalingPoint:
    """Batch throughput at one ``--jobs`` level."""

    jobs: int
    tasks: int
    wall_seconds: float
    scenarios_per_sec: float
    speedup: float  # vs the jobs=1 point of the same sweep
    efficiency: float  # speedup / jobs
    batch_fingerprint: str  # must be identical at every jobs level


@dataclass
class ScalingResult:
    """One full sweep of :func:`run_scaling_benchmark`."""

    n_scenarios: int
    base_seed: int
    cores: int
    start_method: str
    pinned: bool
    points: list[ScalingPoint] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)

    def point(self, jobs: int) -> Optional[ScalingPoint]:
        return next((p for p in self.points if p.jobs == jobs), None)


def run_scaling_benchmark(
    jobs_levels: Sequence[int] = (1, 2, 4, 8),
    n_scenarios: int = 24,
    seed: int = 0,
    pin_cores: bool = True,
) -> ScalingResult:
    """Scenario throughput vs worker count.

    The batch is ``n_scenarios`` seeded fuzz scenarios (mixed
    workloads, fault schedules, chain lengths — the repository's most
    representative scenario population).  Each jobs level runs the
    *identical* batch through a fresh :class:`~repro.runtime.ScenarioPool`
    (workers pinned one per core when ``pin_cores``) and the canonical
    batch fingerprint must come out identical every time — parallelism
    must never change results, only wall clock.
    """
    from repro.runtime import (
        ScenarioPool,
        Task,
        batch_fingerprint,
        default_start_method,
    )

    result = ScalingResult(
        n_scenarios=n_scenarios,
        base_seed=seed,
        cores=os.cpu_count() or 1,
        start_method=default_start_method(),
        pinned=pin_cores,
    )
    base_sps: Optional[float] = None
    for jobs in jobs_levels:
        tasks = [
            Task(
                key=f"seed{seed + i}",
                fn=scaling_scenario,
                kwargs={"scenario_seed": seed + i},
            )
            for i in range(n_scenarios)
        ]
        keys = [t.key for t in tasks]
        with ScenarioPool(jobs=jobs, pin_cores=pin_cores) as pool:
            started = time.perf_counter()
            outcomes = pool.run(tasks)
            wall = time.perf_counter() - started
        bad = [o for o in outcomes.values() if not o.ok]
        if bad:
            details = "; ".join(f"{o.key}: {o.status} {o.error}" for o in bad[:5])
            raise RuntimeError(f"scaling batch failed at jobs={jobs}: {details}")
        sps = n_scenarios / wall
        if base_sps is None:
            base_sps = sps
        speedup = sps / base_sps
        result.points.append(
            ScalingPoint(
                jobs=jobs,
                tasks=n_scenarios,
                wall_seconds=round(wall, 4),
                scenarios_per_sec=round(sps, 2),
                speedup=round(speedup, 3),
                efficiency=round(speedup / jobs, 3),
                batch_fingerprint=batch_fingerprint(outcomes, keys),
            )
        )
    return result


def check_scaling(
    result: ScalingResult,
    min_efficiency: float = 0.5,
    at_jobs: int = 2,
) -> list[str]:
    """CI gate for a :class:`ScalingResult`; returns problems.

    Batch fingerprints are deterministic and gate unconditionally:
    every jobs level must reproduce the identical results.  Parallel
    efficiency is hardware-dependent and only gates when the machine
    actually has ``at_jobs`` cores to scale onto.
    """
    problems: list[str] = []
    if not result.points:
        return ["scaling result has no points"]
    fingerprints = {p.batch_fingerprint for p in result.points}
    if len(fingerprints) != 1:
        problems.append(
            "batch fingerprint differs across jobs levels — parallel "
            f"execution changed results: { {p.jobs: p.batch_fingerprint[:16] for p in result.points} }"
        )
    point = result.point(at_jobs)
    if point is not None and result.cores >= at_jobs:
        if point.efficiency < min_efficiency:
            problems.append(
                f"parallel efficiency at jobs={at_jobs} is "
                f"{point.efficiency:.2f} < {min_efficiency:.2f} "
                f"({point.scenarios_per_sec} scenarios/s vs "
                f"{result.point(result.points[0].jobs).scenarios_per_sec} serial)"
            )
    return problems


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro perf",
        description=(
            "Scenario-throughput scaling sweep of the process pool "
            "(DESIGN.md §12).  Simulation speed is measured by perfbench/."
        ),
    )
    parser.add_argument(
        "--jobs-levels", default="1,2,4,8", metavar="N,N,...",
        help="comma-separated worker counts to sweep (default 1,2,4,8)",
    )
    parser.add_argument("--scenarios", type=int, default=24, metavar="N")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--no-pin", action="store_true", help="skip core pinning")
    parser.add_argument(
        "--check", action="store_true",
        help="gate on determinism + parallel efficiency (CI scaling-smoke)",
    )
    parser.add_argument("--min-efficiency", type=float, default=0.5)
    parser.add_argument(
        "--out", type=Path, default=None, metavar="PATH",
        help="write the scaling result as JSON",
    )
    args = parser.parse_args(argv)

    jobs_levels = [int(x) for x in args.jobs_levels.split(",") if x.strip()]
    result = run_scaling_benchmark(
        jobs_levels=jobs_levels,
        n_scenarios=args.scenarios,
        seed=args.seed,
        pin_cores=not args.no_pin,
    )
    print(
        f"scaling: {result.n_scenarios} scenarios, base seed "
        f"{result.base_seed}, {result.cores} core(s), "
        f"start method {result.start_method}"
    )
    print(f"{'jobs':>5} {'wall[s]':>9} {'scen/s':>8} {'speedup':>8} {'eff':>6}  fingerprint")
    for p in result.points:
        print(
            f"{p.jobs:>5} {p.wall_seconds:>9.3f} {p.scenarios_per_sec:>8.2f} "
            f"{p.speedup:>8.2f} {p.efficiency:>6.2f}  {p.batch_fingerprint[:16]}…"
        )
    if args.out is not None:
        args.out.write_text(
            json.dumps(result.to_dict(), indent=1, sort_keys=True) + "\n"
        )
    if args.check:
        problems = check_scaling(result, min_efficiency=args.min_efficiency)
        if problems:
            print("SCALING CHECK FAILURES:")
            for p in problems:
                print(f"  - {p}")
            return 1
        print(
            "Scaling check: OK (batch fingerprint identical at every jobs "
            "level"
            + (
                f", efficiency >= {args.min_efficiency:.0%} at 2 workers)"
                if result.cores >= 2
                else "; single-core host, efficiency gate skipped)"
            )
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

