"""Tests of the benchmark harness itself (not of the program).

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import hostspeed  # noqa: E402
import tracer as tr  # noqa: E402
from workloads import BulkChain  # noqa: E402

from repro.netsim import Simulator  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = tr.Tracer(clock=clock)
    tcp, link = tracer.lid("tcp"), tracer.lid("netsim.link")

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        traced_leaf()
        clock.now += 3.0

    traced_leaf = tracer.span(leaf, link)
    traced_middle = tracer.span(middle, tcp, "middle")
    with tracer.root():
        clock.now += 0.5
        traced_middle()
        traced_middle()
        clock.now += 0.25

    self_s = tracer.self_seconds()
    assert self_s["netsim.link"] == pytest.approx(4.0)
    assert self_s["tcp"] == pytest.approx(8.0)
    assert self_s["other"] == pytest.approx(0.75)
    assert tracer.root_s == pytest.approx(12.75)
    assert tracer.calls["middle"] == 2
    # Span log: root, then middle/leaf pairs, each pointing at its parent.
    assert list(tracer.span_parent) == [-1, 0, 1, 0, 3]
    assert list(tracer.span_end) == [12.75, 6.5, 3.5, 12.5, 9.5]


def test_span_cap_keeps_self_time_exact():
    clock = FakeClock()
    tracer = tr.Tracer(clock=clock, max_spans=2)
    step = tracer.span(lambda: setattr(clock, "now", clock.now + 1.0), tracer.lid("tcp"))
    with tracer.root():
        for _ in range(5):
            step()
    assert len(tracer.span_start) == 2
    assert tracer.spans_dropped == 4
    assert tracer.self_seconds()["tcp"] == pytest.approx(5.0)


def test_callbacks_are_attributed_to_their_module():
    tracer = tr.Tracer()
    from repro.netsim.link import Channel

    assert tracer.owner_layer(Channel.transmit) == tracer.lid("netsim.link")
    assert tr.layer_of_module("repro.tcp.tcb") == "tcp"
    assert tr.layer_of_module("repro.hydranet.mgmt") == "hydranet.daemons"
    assert tr.layer_of_module("repro.sockets.api") == "other"


def busy(sampler: hostspeed.HostSpeed, seconds: float) -> list[float]:
    """Spin for ``seconds`` of host time, reading the clock as it goes."""
    readings, end = [], sampler.host() + seconds
    while sampler.host() < end:
        readings.append(sampler.clock())
    return readings


def test_reference_clock_scales_host_time_by_the_sampled_speed(monkeypatch):
    monkeypatch.setattr(hostspeed, "sample_speed", lambda: 2.0)
    sampler = hostspeed.HostSpeed(interval=0.01)
    sampler.start()
    try:
        h0, c0 = sampler.host(), sampler.clock()
        busy(sampler, 0.2)
        h1, c1 = sampler.host(), sampler.clock()
    finally:
        sampler.stop()
    assert len(sampler.speeds) > 5
    assert c1 - c0 == pytest.approx(2 * (h1 - h0), abs=1e-4)


def test_reference_clock_never_runs_backwards(monkeypatch):
    speeds = iter([0.5, 2.0] * 1000)
    monkeypatch.setattr(hostspeed, "sample_speed", lambda: next(speeds))
    sampler = hostspeed.HostSpeed(interval=0.005)
    sampler.start()
    try:
        readings = busy(sampler, 0.2)
    finally:
        sampler.stop()
    assert len(sampler.speeds) > 10
    assert all(a <= b for a, b in zip(readings, readings[1:]))


class SmallBulk(BulkChain):
    NBUF = 64


def test_traced_pass_matches_untraced_and_self_times_sum_to_wall():
    work = SmallBulk()
    inputs = work.inputs(7)
    plain = work.run_pass(inputs)
    tracer = tr.Tracer()
    start = time.perf_counter()
    with tr.installed(tracer, type(Simulator())), tracer.root():
        traced = work.run_pass(inputs)
    wall = time.perf_counter() - start
    assert not plain.problems and not traced.problems
    assert traced.outputs == plain.outputs
    total = sum(tracer.self_seconds().values())
    assert total == pytest.approx(tracer.root_s, rel=1e-9)
    assert total == pytest.approx(wall, rel=0.02, abs=0.005)
    metrics = tr.layer_metrics(tracer)
    assert metrics["netsim.simulator.events"] == plain.outputs["events"]
    assert metrics["core.ft_tcp.deposits"] > 0
    assert metrics["invariants.monitors.self_s"] == 0.0
    # Patches are undone: a fresh pass is untraced again.
    assert work.run_pass(inputs).outputs == plain.outputs


def test_declared_names_follow_the_grammar():
    spec = declared()
    names = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"] + spec["per_layer"]
    names += [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in metrics:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_names_are_the_declared_names(trace):
    spec = declared()
    out = run_bench(
        ROOT, "--workload", "bulk_chain", "--seed", "3", "--seconds", "0",
        "--trace", trace,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    key = "per_layer" if trace == "1" else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in spec[key]}
    units = {m["name"]: m["unit"] for m in spec[key]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]


def test_without_program_source_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    out = run_bench(
        tmp_path, "--workload", "bulk_chain", "--seed", "1", "--seconds", "1",
        "--trace", "0",
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
