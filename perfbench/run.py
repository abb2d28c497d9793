"""HydraNet-FT benchmark: one workload per run, checked, one JSON result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {bulk_chain,mesh_echo,fault_batch}
        --seed N --seconds S --trace {0,1}

The run repeats passes of the workload over inputs made from ``--seed``
until ``--seconds`` of host time have passed (at least one pass).  With
``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` each untraced pass is followed by a traced pass over the
same inputs and the last line holds the per-layer metrics.  The line
before it carries the workload's simulated-time results and
deterministic outputs, the unit counts, the host speed samples and the
environment.  Exit status is 0 when every output check passed, 1 when
one failed and 2 when the program source is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Where traced runs write their spans (inside the checkout).
OUT_DIR = ROOT / ".perfbench"

SIM_UNITS = {
    "sim_goodput_kBps": "kB/s",
    "sim_response_p50_ms": "ms",
    "sim_response_p99_ms": "ms",
    "sim_response_samples": "count",
    "sim_failover_s": "s",
    "sim_stall_s": "s",
}

PER_LAYER_UNITS = {"self_s": "s", "compile_s": "s", "events_per_s": "1/s"}

#: Fresh interpreters repeating the run's set-up (imports and the first
#: deployment build), for the set-up median.
SETUP_REPEATS = 6
SETUP_PROBE = (
    "import sys; sys.path[:0] = sys.argv[3:]; import hostspeed; "
    "s = hostspeed.HostSpeed(); s.start(); t = s.clock(); import workloads; "
    "w = workloads.WORKLOADS[sys.argv[1]]; w.build(w.inputs(int(sys.argv[2]))); "
    "t = s.clock() - t; s.stop(); print(t)"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit(root: Path) -> str:
    """HEAD's commit id, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def as_json(metrics: dict) -> dict:
    """``{name: (value, unit)}`` in the printed ``{"value", "unit"}`` form."""
    return {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}


def per_layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[1]
    if suffix in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[suffix]
    return "ratio" if suffix.endswith("ratio") else "count"


def units_per_s(passes) -> float:
    """Median over passes of checked units per reference second of
    the timed part; failed units do not count, so a wrong run never
    reads fast."""
    return median([p.good / p.run_s for p in passes])


def setup_seconds(args, first: float) -> float:
    """Median of this run's set-up time and that of ``SETUP_REPEATS``
    fresh interpreters repeating it (one process's set-up differs from
    the next by up to ~25 %, more than within a process)."""
    samples = [first]
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [
                sys.executable, "-c", SETUP_PROBE,
                args.workload, str(args.seed), str(SRC), str(HERE),
            ],
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        samples.append(float(child.stdout))
    return median(samples)


def host_speed(sampler) -> dict:
    """Quartiles of the host speed samples (1.0 = reference speed)."""
    speeds = sampler.speeds
    quartiles = quantiles(speeds, n=4) if len(speeds) > 1 else speeds * 3
    return {"samples": len(speeds), "quartiles": quartiles}


def end_to_end_metrics(passes, setup_s: float) -> dict:
    """The end-to-end metrics of an untraced run."""
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_MB": (peak_rss_mb(), "MB"),
        "units_per_s": (units_per_s(passes), "1/s"),
    }


def workload_detail(work, passes) -> dict:
    """Workload-specific results, printed by name on the detail line:
    the host throughput in the workload's own unit, the simulated-time
    results of the first pass and the error ratio."""
    name, unit, scale = work.rate
    detail = {name: (units_per_s(passes) * scale, unit)}
    for key, value in passes[0].sim.items():
        detail[key] = (value, SIM_UNITS[key])
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    detail["error_ratio"] = (failed / attempted, "ratio")
    return detail


def measure(work, inputs: dict, seconds: float, trace: bool, sim_class, sampler):
    """Run passes until ``seconds`` have elapsed; returns (untraced
    passes, their host seconds, traced (pass, tracer, untraced wall,
    traced wall) tuples).  Walls are host seconds without the speed
    samples, which pause while a traced pass runs."""
    from tracer import Tracer, installed

    plain, plain_walls, traced = [], [], []
    started = time.perf_counter()
    while True:
        gc.collect()
        t0 = sampler.host()
        plain.append(work.run_pass(inputs, sampler.clock))
        plain_walls.append(sampler.host() - t0)
        if trace:
            gc.collect()
            sampler.pause()
            tracer = Tracer()
            t0 = time.perf_counter()
            with installed(tracer, sim_class), tracer.root():
                result = work.run_pass(inputs)
            traced_wall = time.perf_counter() - t0
            sampler.resume()
            traced.append((result, tracer, plain_walls[-1], traced_wall))
        if time.perf_counter() - started >= seconds:
            return plain, plain_walls, traced


def check_determinism(plain, traced) -> list:
    """Every pass over the same inputs, traced or not, must reproduce
    the first pass's deterministic outputs exactly."""
    reference = plain[0].outputs
    problems = []
    for i, p in enumerate(plain[1:], 1):
        if p.outputs != reference:
            p.failed = p.attempted
            problems.append(f"untraced pass {i} outputs differ from pass 0")
    for i, (p, _tracer, _a, _b) in enumerate(traced):
        if p.outputs != reference:
            p.failed = p.attempted
            problems.append(f"traced pass {i} outputs differ from the untraced pass")
    return problems


def per_layer(traced) -> dict:
    """Per-layer metrics over the traced passes: counts from the first
    (every pass repeats them exactly), times as medians."""
    from tracer import layer_metrics

    runs = [
        (layer_metrics(tracer), plain_s, traced_s)
        for _, tracer, plain_s, traced_s in traced
    ]
    out = {}
    for name, value in runs[0][0].items():
        if name.endswith(("self_s", "compile_s")):
            value = median([m[name] for m, _, _ in runs])
        out[name] = value
    # Events per host second of the untraced pass over the same inputs.
    out["netsim.simulator.events_per_s"] = median(
        [m["netsim.simulator.events"] / plain_s for m, plain_s, _ in runs]
    )
    out["trace.overhead_ratio"] = median(
        [traced_s / plain_s for _, plain_s, traced_s in runs]
    )
    return {name: (value, per_layer_unit(name)) for name, value in out.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    sampler = HostSpeed()
    sampler.start()
    try:
        return run(args, sampler)
    finally:
        sampler.stop()


def run(args, sampler) -> int:
    start = sampler.clock()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {SRC}", file=sys.stderr)
        return 2
    # build_ft_system adds REPRO_SEED_OFFSET to every seed; the
    # benchmark's inputs come from --seed alone.
    os.environ.pop("REPRO_SEED_OFFSET", None)
    sys.path.insert(0, str(SRC))

    from repro.netsim import Simulator
    from workloads import WORKLOADS

    import_s = sampler.clock() - start
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work = WORKLOADS[args.workload]
    sim_class = type(Simulator())
    inputs = work.inputs(args.seed)

    plain, plain_walls, traced = measure(
        work, inputs, args.seconds, bool(args.trace), sim_class, sampler
    )
    problems = check_determinism(plain, traced)
    every = plain + [t[0] for t in traced]
    for p in every:
        problems.extend(p.problems)
    attempted = sum(p.attempted for p in every)
    failed = sum(p.failed for p in every)

    if args.trace:
        metrics = per_layer(traced)
        traced[0][1].write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        # Set-up: the imports and the first pass's deployment build.
        setup_s = setup_seconds(args, import_s + plain[0].build_s)
        metrics = end_to_end_metrics(plain, setup_s)
    detail = {
        "workload": args.workload,
        "unit": work.unit,
        "passes": len(plain),
        "pass_rates": [p.good / p.run_s for p in plain],
        "pass_host_s": plain_walls,
        "host_speed": host_speed(sampler),
        "traced_passes": len(traced),
        "detail": as_json(workload_detail(work, plain)),
        # Deterministic outputs (fingerprints, event counts), identical
        # in every pass; compare them across runs of one seed.
        "outputs": plain[0].outputs,
        "problems": problems[:20],
        "env": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "commit": git_commit(ROOT),
            "scheduler": sim_class.__name__,
        },
    }
    print(json.dumps(detail))
    correct = not problems and failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": as_json(metrics),
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
