"""The benchmark's three workloads.

Each workload turns the benchmark seed into fixed inputs
(:meth:`inputs`) and runs one *pass* over them (:meth:`run_pass`): build
the deployment (timed as set-up), drive the traffic (timed as the
measured part), and check the outputs.  Times are read from the
``clock`` the harness passes in (its reference clock, see
:mod:`hostspeed`).  A run repeats passes over the same inputs, so
every pass must produce identical deterministic outputs; the harness
checks that too.

The program is reached only through public entry points: testbed and
mesh builders, the fuzzer's ``generate_spec``/``run_scenario``, the
invariant monitors and ``batch_fingerprint``.
"""

from __future__ import annotations

import gc
import random
import time
import traceback
import zlib
from dataclasses import dataclass, field

from repro.apps.echo import echo_server_factory
from repro.apps.ttcp import TTCP_TCP_OPTIONS
from repro.core import DetectorParams, enable_heartbeats
from repro.experiments import testbeds
from repro.experiments.mesh_scaling import CERTIFY_KIND, CERTIFY_PARAMS
from repro.faults.injection import FaultPlan
from repro.invariants.fuzz import generate_spec, run_scenario
from repro.invariants.monitors import attach_invariants
from repro.recovery import RecoveryManager, SparePool
from repro.replication import available_strategies
from repro.runtime.merge import batch_fingerprint
from repro.runtime.pool import TaskOutcome
from repro.topo.driver import MeshScenario, MeshWorkload
from repro.topo.generators import generate


@dataclass
class PassResult:
    """One pass: unit counts, host timings and checked outputs."""

    attempted: int
    failed: int
    #: Seconds building the deployment before the first timed unit.
    build_s: float
    #: Seconds of the timed part (traffic, checks excluded).
    run_s: float
    #: Deterministic outputs; every pass over the same inputs must
    #: produce exactly these, traced or not.
    outputs: dict
    #: Workload-specific simulated-time results, by metric name.
    sim: dict
    problems: list = field(default_factory=list)

    @property
    def good(self) -> int:
        return self.attempted - self.failed


# -- bulk_chain ----------------------------------------------------------------


class BulkChain:
    """One long ttcp transfer (1 KB writes, Nagle off) from the 486
    client through the redirector to a primary + 2-backup chain."""

    name = "bulk_chain"
    unit = "1 KB write delivered"
    #: (name, unit, factor from units/s) of the workload's own throughput.
    rate = ("payload_MBps", "MB/s", 1024 / 1e6)
    BUFLEN = 1024
    NBUF = 4096
    BACKUPS = 2

    def inputs(self, seed: int) -> dict:
        return {"sim_seed": seed}

    def build(self, inputs: dict):
        """The deployment, before the first timed unit: (system, ttcp
        run, per-replica [bytes, crc] of the stream each application
        read)."""
        received: dict[str, list] = {}

        def sink_factory(host_server):
            # Counts and checksums the stream each replica's
            # application reads, so delivery is checked byte for byte.
            record = received.setdefault(host_server.name, [0, 0])

            def on_accept(conn) -> None:
                def on_data(data: bytes) -> None:
                    record[0] += len(data)
                    record[1] = zlib.crc32(data, record[1])

                conn.on_data = on_data
                conn.on_remote_close = conn.close

            return on_accept

        system = testbeds.build_ft_system(
            seed=inputs["sim_seed"], n_backups=self.BACKUPS, factory=sink_factory
        )
        run = testbeds.TtcpRun(system.sim, system.client_node, system.service_ip)
        return system, run, received

    def run_pass(self, inputs: dict, clock=time.perf_counter) -> PassResult:
        t0 = clock()
        system, run, received = self.build(inputs)
        t1 = clock()
        result = run.run(buflen=self.BUFLEN, nbuf=self.NBUF, tcp_options=TTCP_TCP_OPTIONS)
        t2 = clock()

        total = self.BUFLEN * self.NBUF
        write = (bytes(range(256)) * (self.BUFLEN // 256 + 1))[: self.BUFLEN]
        expected_crc = 0
        for _ in range(self.NBUF):
            expected_crc = zlib.crc32(write, expected_crc)
        problems = []
        if not result.completed or result.bytes_sent < total:
            problems.append(f"transfer incomplete: {result.bytes_sent}/{total} bytes")
        if len(received) != 1 + self.BACKUPS:
            problems.append(f"{len(received)} replicas received data")
        for name, (count, crc) in sorted(received.items()):
            if count != total or crc != expected_crc:
                problems.append(f"{name}: received {count}/{total} bytes, crc {crc:#x}")
        sim = system.sim
        return PassResult(
            attempted=self.NBUF,
            failed=self.NBUF if problems else 0,
            build_s=t1 - t0,
            run_s=t2 - t1,
            outputs={
                "bytes_sent": result.bytes_sent,
                "duration": result.duration,
                "retransmits": result.retransmitted_segments,
                "events": sim.events_processed,
                "peak_queue": sim.peak_queue_len,
                "received": sorted(received.items()),
            },
            sim={"sim_goodput_kBps": result.throughput_kB_per_sec},
            problems=problems,
        )


# -- mesh_echo -----------------------------------------------------------------


def _percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


class MeshEcho:
    """~1,000 closed-loop echo connections over the D5 certify fat-tree
    (3 tiers, 120 services, 1 backup each), monitors on every
    redirector."""

    name = "mesh_echo"
    unit = "echo request answered"
    rate = ("requests_per_s", "req/s", 1.0)
    WORKLOAD = dict(
        connections=1000,
        requests_per_conn=2,
        request_size=64,
        think_time=0.15,
        start_window=0.25,
        deadline=120.0,
    )

    def inputs(self, seed: int) -> dict:
        return {"topo_seed": seed}

    def build(self, inputs: dict) -> MeshScenario:
        """The compiled mesh with its clients, before the first timed unit."""
        spec = generate(CERTIFY_KIND, CERTIFY_PARAMS, seed=inputs["topo_seed"])
        return MeshScenario(spec, MeshWorkload(**self.WORKLOAD))

    def run_pass(self, inputs: dict, clock=time.perf_counter) -> PassResult:
        t0 = clock()
        scenario = self.build(inputs)
        t1 = clock()
        report = scenario.run()
        t2 = clock()

        per_conn = self.WORKLOAD["requests_per_conn"]
        attempted = per_conn * len(scenario.clients)
        failed = 0
        responses: list[float] = []
        for client in scenario.clients:
            stats = client.stats
            responses.extend(stats.response_times)
            if not client.done or stats.errors or stats.responses_received != per_conn:
                failed += per_conn
        problems = []
        if failed:
            problems.append(f"{failed // per_conn} connections incomplete or with errors")
        if report.violations:
            problems.append(f"monitor violations: {report.violations[:3]}")
            failed = attempted
        responses.sort()
        sim_metrics = {"sim_response_samples": len(responses)}
        if responses:
            sim_metrics["sim_response_p50_ms"] = _percentile(responses, 50) * 1e3
            sim_metrics["sim_response_p99_ms"] = _percentile(responses, 99) * 1e3
        else:
            problems.append("no responses")
        return PassResult(
            attempted=attempted,
            failed=failed,
            build_s=t1 - t0,
            run_s=t2 - t1,
            outputs={
                "fingerprint": report.fingerprint,
                "events": report.events_processed,
                "peak_queue": scenario.mesh.sim.peak_queue_len,
                **sim_metrics,
            },
            sim=sim_metrics,
            problems=problems,
        )


# -- fault_batch ---------------------------------------------------------------


class FaultBatch:
    """One D7 primary-crash fail-over probe per replication backend, one
    live-join probe (heartbeats on, a spare joins after a backup crash),
    then a fixed batch of fuzzer scenarios over {backends} x {fail-stop,
    gray}, all with the invariant monitors armed.

    The units are independent, so each starts with a full collection of
    the previous unit's cyclic garbage (timed, it is the program's
    cost): peak RSS is then set by the largest unit rather than by when
    the collector last ran, which otherwise moved it by ~15 %.
    """

    name = "fault_batch"
    unit = "scenario completed clean"
    rate = ("scenarios_per_s", "scen/s", 1.0)
    #: Scenario seeds per (backend, fault class) cell of the batch.  The
    #: batch is the same for every benchmark seed so each run does the
    #: same work; the seed moves the crash probes.
    SCENARIOS_PER_CELL = 12
    DETECTOR_THRESHOLD = 3
    PROBE_BYTES = 200_000
    PROBE_HORIZON = 120.0
    JOIN_HORIZON = 30.0
    JOIN_TRAFFIC_UNTIL = 15.0

    def inputs(self, seed: int) -> dict:
        rng = random.Random(seed)
        backends = available_strategies()
        return {
            "probes": [
                {
                    "backend": backend,
                    "sim_seed": seed,
                    # Registration settles at t=2.0 and traffic starts
                    # right after; crash while the stream is in flight.
                    "crash_at": round(2.15 + 0.2 * rng.random(), 6),
                }
                for backend in backends
            ],
            "join": {"sim_seed": seed, "crash_at": round(4.0 + rng.random(), 6)},
            "scenarios": [
                (backend, gray, s)
                for gray in (False, True)
                for backend in backends
                for s in range(self.SCENARIOS_PER_CELL)
            ],
        }

    def build(self, inputs: dict):
        """The first crash probe's testbed, before the first timed unit."""
        return self._probe_system(inputs["probes"][0])

    def _probe_system(self, probe: dict):
        """A crash probe's testbed and its armed monitors."""
        system = testbeds.build_ft_system(
            seed=probe["sim_seed"],
            n_backups=1,
            detector=DetectorParams(threshold=self.DETECTOR_THRESHOLD, cooldown=1.0),
            strategy=probe["backend"],
        )
        return system, attach_invariants(system)

    def _probe(self, probe: dict, clock) -> tuple[float, dict, list]:
        """Crash the primary mid-stream; returns (build seconds,
        outcome, problems)."""
        t0 = clock()
        system, invset = self._probe_system(probe)
        build_s = clock() - t0
        sim, total = system.sim, self.PROBE_BYTES
        crash_at = probe["crash_at"]
        conn = system.client_node.connect(system.service_ip, system.port)
        payload = bytes(i % 256 for i in range(total))
        state = {"sent": 0, "acked": 0, "last": sim.now, "stall": 0.0, "promoted": None}
        client_events: list[str] = []

        def pump() -> None:
            while state["sent"] < total:
                n = conn.send(payload[state["sent"] : state["sent"] + 2048])
                state["sent"] += n
                if n == 0:
                    return

        def track_progress() -> None:
            if conn.snd_una > state["acked"]:
                state["stall"] = max(state["stall"], sim.now - state["last"])
                state["last"] = sim.now
                state["acked"] = conn.snd_una
            if conn.snd_una < total and sim.pending_events:
                sim.schedule(0.05, track_progress)

        def watch_promotion() -> None:
            if system.service.replicas[1].ft_port.is_primary:
                state["promoted"] = sim.now
            else:
                sim.schedule(0.05, watch_promotion)

        conn.on_established = pump
        conn.on_send_space = pump
        conn.on_closed = lambda reason: client_events.append(f"closed:{reason}")
        conn.on_remote_close = lambda: client_events.append("remote-close")
        sim.schedule(0.05, track_progress)
        FaultPlan(sim).crash_at(system.servers[0], crash_at)
        sim.schedule(crash_at, watch_promotion)
        system.run_until(self.PROBE_HORIZON)

        problems = []
        if state["promoted"] is None:
            problems.append("crash never detected")
        if conn.snd_una < total:
            problems.append(f"transfer incomplete: {conn.snd_una}/{total}")
        if client_events:
            problems.append(f"client saw {client_events}")
        if invset.violations:
            problems.append(f"monitor violations: {invset.violated_monitors()}")
        outcome = {
            "failover_s": (state["promoted"] - crash_at)
            if state["promoted"] is not None
            else None,
            "stall_s": state["stall"],
            "acked": conn.snd_una,
        }
        return build_s, outcome, [f"probe {probe['backend']}: {p}" for p in problems]

    def _join_probe(self, probe: dict) -> tuple[dict, list]:
        """Crash the backup of a 1-backup echo service with a spare in
        the pool: the recovery manager live-joins the spare behind the
        primary while a paced echo stream runs.  (Primary fail-over is
        what the crash probes cover.)"""
        system = testbeds.build_ft_system(
            seed=probe["sim_seed"],
            n_backups=1,
            n_spares=1,
            detector=DetectorParams(threshold=self.DETECTOR_THRESHOLD, cooldown=1.0),
            factory=echo_server_factory,
        )
        manager = RecoveryManager(
            system.service, system.redirector_daemon, SparePool(system.spare_nodes)
        )
        enable_heartbeats(
            system.redirector_daemon, system.nodes, system.service_ip, system.port
        )
        invset = attach_invariants(system)
        sim = system.sim
        conn = system.client_node.connect(system.service_ip, system.port)
        sent, received, client_events = bytearray(), bytearray(), []
        conn.on_data = received.extend
        conn.on_closed = lambda reason: client_events.append(f"closed:{reason}")
        conn.on_remote_close = lambda: client_events.append("remote-close")

        def pace() -> None:
            if sim.now >= self.JOIN_TRAFFIC_UNTIL:
                return
            data = bytes([len(sent) // 400 % 256]) * 400
            sent.extend(data[: conn.send(data)])
            sim.schedule(0.05, pace)

        sim.schedule(0.5, pace)
        FaultPlan(sim).crash_at(system.servers[1], probe["crash_at"])
        system.run_until(self.JOIN_HORIZON)

        problems = []
        if manager.joins_completed < 1:
            problems.append(f"no live join completed ({manager.joins_started} started)")
        if bytes(received) != bytes(sent):
            problems.append(f"echo stream: {len(received)}/{len(sent)} bytes intact")
        if client_events:
            problems.append(f"client saw {client_events}")
        if invset.violations:
            problems.append(f"monitor violations: {invset.violated_monitors()}")
        outcome = {
            "joins": [manager.joins_started, manager.joins_completed],
            "echoed": len(received),
        }
        return outcome, [f"join probe: {p}" for p in problems]

    def run_pass(self, inputs: dict, clock=time.perf_counter) -> PassResult:
        t0 = clock()
        build_s = None
        failed = 0
        problems: list[str] = []
        probes = []
        for probe in inputs["probes"]:
            gc.collect()
            probe_build_s, outcome, probe_problems = self._probe(probe, clock)
            if build_s is None:
                build_s = probe_build_s
            probes.append(outcome)
            if probe_problems:
                failed += 1
                problems.extend(probe_problems)
        gc.collect()
        join, join_problems = self._join_probe(inputs["join"])
        if join_problems:
            failed += 1
            problems.extend(join_problems)
        outcomes = {}
        for backend, gray, seed in inputs["scenarios"]:
            key = f"{backend}/{'gray' if gray else 'fail-stop'}/{seed}"
            gc.collect()
            try:
                result = run_scenario(generate_spec(seed, gray=gray, backend=backend))
            except Exception:  # a crashing scenario is a failed unit
                failed += 1
                problems.append(f"{key}: {traceback.format_exc(limit=3)}")
                outcomes[key] = TaskOutcome(key, "error")
                continue
            if result.violated_monitors:
                failed += 1
                problems.append(f"{key}: violated {result.violated_monitors}")
            outcomes[key] = TaskOutcome(
                key, "ok", [result.fingerprint, result.violated_monitors]
            )
        t1 = clock()
        detected = [p for p in probes if p["failover_s"] is not None]
        sim_metrics = {}
        if detected:
            sim_metrics["sim_failover_s"] = max(p["failover_s"] for p in detected)
        sim_metrics["sim_stall_s"] = max(p["stall_s"] for p in probes)
        return PassResult(
            attempted=len(probes) + 1 + len(outcomes),
            failed=failed,
            build_s=build_s,
            run_s=t1 - t0 - build_s,
            outputs={
                "probes": probes,
                "join": join,
                "batch_fingerprint": batch_fingerprint(outcomes, list(outcomes)),
            },
            sim=sim_metrics,
            problems=problems,
        )


WORKLOADS = {w.name: w for w in (BulkChain(), MeshEcho(), FaultBatch())}
