"""Golden event-schedule checks (DESIGN.md §16).

For a fixed seed the executed ``(time, seq)`` schedule — and so every
result built on it — must never drift.  Each check here runs once and
compares against a literal committed value.  Every value was recorded
under both the timer-wheel and the binary-heap engines before the
wheel was removed, and the two engines agreed on all of them:

* a randomized schedule/cancel/re-arm churn trace, pinned per seed by
  the sha256 of the trace;
* a Figure 4 point, the D4 ``symmetric`` partition run and the D5
  certify topology at 600 connections;
* the 1 MB bulk ft-TCP transfer through a primary + 2-backup chain
  (the workload of the retired engine macro-benchmark, recorded under
  the heap engine only).

The fuzz corpus pins its own ``clean_fingerprint`` values
(``tests/invariants/test_corpus_replay.py``).
"""

import hashlib
import random
from dataclasses import asdict

import pytest

from repro.netsim.simulator import Simulator, Timer

# -- randomized churn trace ---------------------------------------------------

CHURN_TRACE_SHA256 = {
    0: "762c059fa6130c94852d26294c9d646bfe6833274ca1cdfa73a2d41bb1b7cdde",
    1: "730ed13810d7a1ba54744a3885fc3b63f937c5fa40bade4beaa90224987c9446",
    2: "77159a2913ea3c095a5d1bc94e4d94ff47005d313677a68171996f6fcfe9102b",
    3: "bca44c6aace93870f78f034720dc39db0d4708b9019aac78855c435472f6f6e3",
    4: "8b2d3f4acc26ed842afa799b6fa0ddb707de1e303faa144078507edc1bc7356d",
    5: "f43ad67fa3b31e0fa4f3406e85132c369f893f1e10191324a3ca5bc99b5f920a",
    6: "b8fe60eae8e33ee79e03d4aeebca4854b1a0c5c77a5a6a66c3c156dda786230e",
    7: "0ab9c21d80c46ebd0b0bf795cdd21a33f82a510ae7aa91011ad171a5933188ee",
}


def _churn_trace(seed: int) -> list:
    """Drive a random schedule/cancel/rearm workload; return the trace."""
    sim = Simulator()
    rng = random.Random(seed)
    trace = []
    live = []

    def fire(label):
        trace.append((round(sim.now, 9), label))
        # Sometimes keep churning from inside the dispatch loop.
        if rng.random() < 0.3 and len(trace) < 3000:
            delay = rng.choice([0.0, 1e-6, rng.uniform(0, 0.05), rng.uniform(0, 5)])
            live.append(sim.schedule(delay, fire, f"{label}.r"))

    timers = [Timer(sim, lambda i=i: trace.append((round(sim.now, 9), f"T{i}")))
              for i in range(4)]
    for step in range(400):
        op = rng.random()
        if op < 0.55:
            delay = rng.choice(
                [0.0, rng.uniform(0, 0.01), rng.uniform(0, 1), rng.uniform(0, 600)]
            )
            live.append(sim.schedule(delay, fire, f"s{step}"))
        elif op < 0.7:
            sim.post(rng.uniform(0, 2), fire, f"p{step}")
        elif op < 0.85 and live:
            live.pop(rng.randrange(len(live))).cancel()
        else:
            timers[rng.randrange(4)].start(rng.choice([0.0, 0.5, rng.uniform(0, 30)]))
    sim.run_until_idle(max_events=20000)
    return trace


def _sha256(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


@pytest.mark.parametrize("seed", sorted(CHURN_TRACE_SHA256))
def test_churn_trace_matches_golden(seed):
    assert _sha256(_churn_trace(seed)) == CHURN_TRACE_SHA256[seed]


# -- experiment fingerprints --------------------------------------------------

FIGURE4_POINT = {
    "clean": [142.01708643071106, 525.1500863818039],
    "no_redirection": [140.62746767559537, 521.830803114295],
    "primary_only": [139.59702265729143, 514.0352583510642],
    "primary_backup": [99.68992927276662, 483.34019225636087],
}

D4_SYMMETRIC = {
    "variant": "symmetric",
    "horizon": 90.0,
    "bytes_sent": 460400,
    "bytes_received": 460400,
    "stream_intact": True,
    "matches_baseline": True,
    "client_events": [],
    "epoch_changes": 2,
    "final_epoch": 1,
    "segments_fenced": 1,
    "demotes_sent": 1,
    "promotions_granted": 1,
    "promotions_refused": 0,
    "near_misses": 1,
    "max_primaries_per_epoch": 1,
    "dual_primary_time": 0.0,
    "detection_at": 9.818647599999984,
    "ex_primary_demotions": 1,
    "rejoins_completed": 1,
    "final_degree": 2,
    "final_chain": ["10.0.0.10", "10.0.0.6"],
    "rejoined_as_backup": True,
}
D4_SYMMETRIC_SAMPLES_SHA256 = (
    "86d1fa2f46e74eda4c7d721ac2a241a4792a8740b8eb022f0579c11bd9e439ce"
)

MESH_600_FINGERPRINT = (
    "26e93704bc1580194aac90dc156ac4bc1fc27a06d77c1df6a171ad77a3126149"
)

ENGINE_1MB = {
    "completed": True,
    "bytes_sent": 1_048_576,
    "events": 30_894,
    "duration": 2.170283,
    "peak_queue_len": 123,
    "throughput_kB_per_sec": 483.152,
}


@pytest.mark.integration
def test_figure4_point_matches_golden():
    from repro.experiments.figure4 import run_figure4

    assert run_figure4(sizes=[64, 1024], nbuf=64) == FIGURE4_POINT


@pytest.mark.integration
def test_d4_symmetric_matches_golden():
    from repro.experiments.partition import run_partition

    result = asdict(run_partition(variant="symmetric"))
    samples = result.pop("samples")
    assert len(samples) == 351
    assert _sha256(samples) == D4_SYMMETRIC_SAMPLES_SHA256
    assert result == D4_SYMMETRIC


@pytest.mark.integration
def test_mesh_certify_600_connections_matches_golden():
    """The D5 certify topology (3-tier fat-tree, 120 services) at 600
    connections instead of 10,500."""
    from repro.experiments.mesh_scaling import (
        CERTIFY_KIND,
        CERTIFY_PARAMS,
        CERTIFY_WORKLOAD,
    )
    from repro.topo import MeshWorkload, generate, run_mesh_scenario

    spec = generate(CERTIFY_KIND, CERTIFY_PARAMS, seed=0)
    workload = MeshWorkload(**{**CERTIFY_WORKLOAD, "connections": 600})
    report = run_mesh_scenario(spec, workload)
    assert report.green, report.violations
    assert (report.completed, report.peak_concurrent) == (600, 600)
    assert report.events_processed == 318_830
    assert report.fingerprint == MESH_600_FINGERPRINT


@pytest.mark.integration
def test_bulk_transfer_2_backups_matches_golden():
    """1 MB of ttcp in 1 KB writes through the redirector to a
    primary + 2-backup chain."""
    from repro.experiments.testbeds import build_primary_backup

    run = build_primary_backup(seed=0, n_backups=2)
    events_before = run.sim.events_processed
    result = run.run(buflen=1024, nbuf=1024)
    assert {
        "completed": result.completed,
        "bytes_sent": result.bytes_sent,
        "events": run.sim.events_processed - events_before,
        "duration": round(result.duration, 6),
        "peak_queue_len": run.sim.peak_queue_len,
        "throughput_kB_per_sec": round(result.throughput_kB_per_sec, 3),
    } == ENGINE_1MB
