"""Simulation-engine and scenario-throughput measurement (DESIGN.md §10, §12).

:func:`run_engine_benchmark` drives the perf macro-benchmark: a bulk
ft-TCP transfer from a 486-class client through the redirector to a
primary + 2-backup chain — the paper's testbed topology — and reports
how fast the *simulator* chews through it: events per wall-clock
second, wall-clock seconds per simulated second, and the event-heap
high-water mark.

``BENCH_HISTORY.json`` at the repository root records these numbers
for each engine change, and :func:`check_regression` compares a fresh
run against that trajectory (CI's perf-smoke job).  The comparison
splits into two kinds of checks:

* simulation *results* (event count, simulated duration, application
  throughput, heap high-water mark) are deterministic and must match
  the baseline exactly on any machine — a mismatch means behaviour
  changed, not that the machine is slow;
* wall-clock figures are machine-dependent and only gate on a relative
  threshold (default: fail when events/sec drops more than 30 %).

Batch-level throughput sits on top of the single-simulation figures:
:func:`run_scaling_benchmark` pushes a mixed batch of seeded fuzz
scenarios through the :mod:`repro.runtime` process pool at several
``--jobs`` levels and reports scenarios/sec plus parallel efficiency
(the ``scaling`` entries of ``BENCH_HISTORY.json``), and
:func:`run_pooled_engine_medians` computes interleaved-run medians of
the engine macro-benchmark from pooled workers pinned one per core.
Both carry the same split: batch fingerprints are deterministic and
must be identical at every jobs level; wall-clock only gates
relatively.  Run ``python -m repro.metrics.perf --scaling`` for the
scaling table (CI's scaling-smoke step).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, Sequence

#: Default relative events/sec regression tolerance for CI.
DEFAULT_THRESHOLD = 0.30


@dataclass
class EnginePerfResult:
    """One macro-benchmark run's figures."""

    # Workload parameters.
    nbuf: int
    buflen: int
    n_backups: int
    seed: int
    # Deterministic simulation results.
    completed: bool
    bytes_sent: int
    events: int
    sim_seconds: float
    peak_queue_len: int
    throughput_kB_per_s: float
    # Machine-dependent timing.
    wall_seconds: float
    events_per_sec: float
    wall_per_sim_second: float

    def to_dict(self) -> dict:
        return asdict(self)


def run_engine_benchmark(
    nbuf: int = 1024,
    buflen: int = 1024,
    n_backups: int = 2,
    seed: int = 0,
) -> EnginePerfResult:
    """Run the bulk ft-TCP macro-benchmark once and time it.

    ``nbuf * buflen`` bytes are pushed through a primary + ``n_backups``
    chain behind the redirector (see
    :func:`repro.experiments.testbeds.build_primary_backup`).
    """
    # Imported here so importing the metrics package never drags in the
    # whole testbed stack.
    from repro.experiments.testbeds import build_primary_backup

    run = build_primary_backup(seed=seed, n_backups=n_backups)
    sim = run.sim
    events_before = sim.events_processed
    start = time.perf_counter()
    result = run.run(buflen=buflen, nbuf=nbuf)
    wall = time.perf_counter() - start
    events = sim.events_processed - events_before
    return EnginePerfResult(
        nbuf=nbuf,
        buflen=buflen,
        n_backups=n_backups,
        seed=seed,
        completed=result.completed,
        bytes_sent=result.bytes_sent,
        events=events,
        sim_seconds=round(result.duration, 6),
        peak_queue_len=sim.peak_queue_len,
        throughput_kB_per_s=round(result.throughput_kB_per_sec, 3),
        wall_seconds=round(wall, 4),
        events_per_sec=round(events / wall, 1),
        wall_per_sim_second=round(wall / result.duration, 4),
    )


def load_baseline(path: str | Path) -> dict:
    """Load a ``BENCH_HISTORY.json``-style file."""
    with open(path) as f:
        return json.load(f)


#: Alias: the cumulative trajectory file uses the same loader.
load_history = load_baseline


def baseline_records(baseline: dict) -> tuple[dict, dict]:
    """``(deterministic_base, speed_base)`` from a baseline file.

    ``BENCH_HISTORY.json`` carries the whole trajectory under
    ``engine.entries``: deterministic fields gate against the *latest*
    entry (behaviour legitimately evolves across PRs — e.g. the event
    count changed when stale-timer pops started counting), while
    events/sec gates against the *best* committed entry so a PR can
    never quietly re-lose a previous PR's speedup.
    """
    entries = baseline["engine"]["entries"]
    det = entries[-1]
    speed = max(entries, key=lambda e: e.get("events_per_sec") or 0.0)
    return det, speed


def check_regression(
    result: EnginePerfResult,
    baseline: dict,
    threshold: float = DEFAULT_THRESHOLD,
) -> list[str]:
    """Compare a fresh run against the committed baseline.

    The baseline is the cumulative ``BENCH_HISTORY.json`` trajectory
    (see :func:`baseline_records`).  Returns a list of human-readable problems (empty = pass).
    """
    problems: list[str] = []
    base, speed_base = baseline_records(baseline)

    # Determinism: identical on any machine, or behaviour changed.
    for field in (
        "completed",
        "bytes_sent",
        "events",
        "sim_seconds",
        "peak_queue_len",
        "throughput_kB_per_s",
    ):
        got = getattr(result, field)
        want = base[field]
        if got != want:
            problems.append(
                f"deterministic result changed: {field} = {got!r}, "
                f"baseline has {want!r}"
            )

    # Speed: machine-dependent, gated on a relative threshold against
    # the best committed baseline.
    floor = speed_base["events_per_sec"] * (1.0 - threshold)
    if result.events_per_sec < floor:
        problems.append(
            f"events/sec regressed beyond {threshold:.0%}: "
            f"{result.events_per_sec} < {floor:.1f} "
            f"(best committed baseline {speed_base['events_per_sec']})"
        )
    return problems


def write_report(result: EnginePerfResult, path: str | Path) -> None:
    """Write one run's figures as JSON (CI artifact helper)."""
    with open(path, "w") as f:
        json.dump(result.to_dict(), f, indent=1, sort_keys=True)
        f.write("\n")


# -- batch scaling (PR 5: parallel scenario-execution layer) -----------------


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


def engine_task(**workload) -> dict:
    """Pool task: one engine macro-benchmark run, as a plain dict."""
    return run_engine_benchmark(**workload).to_dict()


_ENGINE_DETERMINISTIC_FIELDS = (
    "completed",
    "bytes_sent",
    "events",
    "sim_seconds",
    "peak_queue_len",
    "throughput_kB_per_s",
)


def run_pooled_engine_medians(
    runs: int = 5,
    jobs: Optional[int] = None,
    pin_cores: bool = True,
    **workload,
) -> dict:
    """Median engine-benchmark figures from ``runs`` interleaved
    repetitions executed by pooled workers pinned one per core.

    Interleaving repetitions across distinct pinned workers averages
    out cache/frequency drift that plagues back-to-back runs in one
    process.  Deterministic simulation results must be identical across
    every repetition (raises on drift); wall-clock figures come back as
    medians.
    """
    from repro.runtime import ScenarioPool, Task

    if jobs is None:
        jobs = min(2, os.cpu_count() or 1)
    tasks = [
        Task(key=f"rep{i}", fn=engine_task, kwargs=dict(workload))
        for i in range(runs)
    ]
    with ScenarioPool(jobs=jobs, pin_cores=pin_cores) as pool:
        outcomes = pool.run(tasks)
    bad = [o for o in outcomes.values() if not o.ok]
    if bad:
        raise RuntimeError(
            f"engine benchmark repetition failed: {bad[0].key}: {bad[0].error}"
        )
    values = [outcomes[f"rep{i}"].value for i in range(runs)]
    deterministic = {f: values[0][f] for f in _ENGINE_DETERMINISTIC_FIELDS}
    for i, value in enumerate(values[1:], start=1):
        for f in _ENGINE_DETERMINISTIC_FIELDS:
            if value[f] != deterministic[f]:
                raise RuntimeError(
                    f"deterministic field {f!r} drifted between pooled "
                    f"repetitions: rep0 {deterministic[f]!r} vs "
                    f"rep{i} {value[f]!r}"
                )
    return {
        "workload": dict(workload),
        "runs": runs,
        "jobs": jobs,
        "deterministic": deterministic,
        "median_wall_seconds": round(
            statistics.median(v["wall_seconds"] for v in values), 4
        ),
        "median_events_per_sec": round(
            statistics.median(v["events_per_sec"] for v in values), 1
        ),
        "median_wall_per_sim_second": round(
            statistics.median(v["wall_per_sim_second"] for v in values), 4
        ),
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.metrics.perf",
        description=(
            "Engine + scenario-throughput benchmarks (DESIGN.md §10, §12, "
            "§16).  Default: the engine macro-benchmark, median of 5 "
            "interleaved pooled runs."
        ),
    )
    parser.add_argument(
        "--scaling", action="store_true", help="run the jobs-scaling sweep"
    )
    parser.add_argument(
        "--runs", type=int, default=5, metavar="N",
        help="engine-benchmark repetitions (default 5)",
    )
    parser.add_argument(
        "--profile", nargs="?", const="perf-profile", default=None,
        metavar="DIR",
        help="profile one engine run: event-class histogram + cProfile "
        "artifacts into DIR (default ./perf-profile)",
    )
    parser.add_argument(
        "--baseline", type=Path, default=None, metavar="PATH",
        help="baseline/history JSON to gate against with --check "
        "(default: BENCH_HISTORY.json next to the repo root, if present)",
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

    if args.profile is not None:
        from repro.metrics.profiling import profile_engine

        report = profile_engine(out_dir=args.profile)
        print(report.render())
        return 0

    if not args.scaling:
        # Default mode: the engine macro-benchmark, medians of
        # interleaved pooled runs (the methodology behind the committed
        # BENCH_HISTORY.json entries).
        medians = run_pooled_engine_medians(runs=args.runs)
        det = medians["deterministic"]
        print(
            f"engine macro-benchmark: median of {medians['runs']} interleaved "
            f"pooled runs (jobs={medians['jobs']})"
        )
        print(
            f"  deterministic: events={det['events']} "
            f"sim={det['sim_seconds']}s peak_queue={det['peak_queue_len']} "
            f"app-throughput={det['throughput_kB_per_s']} kB/s"
        )
        print(
            f"  wall-clock:    {medians['median_events_per_sec']:,.1f} ev/s "
            f"median ({medians['median_wall_seconds']:.4f}s/run, "
            f"{medians['median_wall_per_sim_second']:.4f} wall-s per sim-s)"
        )
        if args.out is not None:
            args.out.write_text(
                json.dumps(medians, indent=1, sort_keys=True) + "\n"
            )
        baseline_path = args.baseline
        if baseline_path is None:
            candidate = Path(__file__).resolve().parents[3] / "BENCH_HISTORY.json"
            baseline_path = candidate if candidate.exists() else None
        if baseline_path is not None:
            baseline = load_baseline(baseline_path)
            synthetic = EnginePerfResult(
                **medians["workload"]
                or dict(nbuf=1024, buflen=1024, n_backups=2, seed=0),
                completed=det["completed"],
                bytes_sent=det["bytes_sent"],
                events=det["events"],
                sim_seconds=det["sim_seconds"],
                peak_queue_len=det["peak_queue_len"],
                throughput_kB_per_s=det["throughput_kB_per_s"],
                wall_seconds=medians["median_wall_seconds"],
                events_per_sec=medians["median_events_per_sec"],
                wall_per_sim_second=medians["median_wall_per_sim_second"],
            )
            problems = check_regression(synthetic, baseline)
            _, speed_base = baseline_records(baseline)
            print(
                f"  baseline:      {speed_base['events_per_sec']:,.1f} ev/s "
                f"best committed ({baseline_path.name}) -> "
                f"{medians['median_events_per_sec'] / speed_base['events_per_sec']:.2f}x"
            )
            if args.check and problems:
                print("REGRESSION CHECK FAILURES:")
                for p in problems:
                    print(f"  - {p}")
                return 1
            if args.check:
                print("Regression check: OK")
            elif problems:
                for p in problems:
                    print(f"note: {p}")
        return 0

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

