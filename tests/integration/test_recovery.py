"""End-to-end recovery: crash -> autonomous restore -> crash again,
with continuous client traffic, on the era-calibrated Figure-4 topology.

Acceptance scenario for the recovery subsystem: with target degree 2
and one spare, crashing the primary mid-transfer must leave the backup
promoted, the spare auto-joined as the new last backup, the in-flight
byte stream intact at the client, and the chain back at full degree.
"""

import pytest

from repro.apps.echo import echo_server_factory
from repro.core import DetectorParams, enable_heartbeats
from repro.experiments.testbeds import build_ft_system
from repro.faults.injection import FaultPlan
from repro.invariants.monitors import attach_invariants
from repro.recovery import RecoveryManager, SparePool

PORT = 5001


def echo_factory(host_server):
    def on_accept(conn):
        conn.on_data = conn.send
        conn.on_remote_close = conn.close

    return on_accept


def build(n_spares=1):
    system = build_ft_system(
        seed=0,
        n_backups=1,
        n_spares=n_spares,
        detector=DetectorParams(threshold=3, cooldown=1.0),
        factory=echo_factory,
        port=PORT,
    )
    manager = RecoveryManager(
        system.service,
        system.redirector_daemon,
        SparePool(system.spare_nodes),
        target_degree=2,
    )
    return system, manager


def start_client(system, chunks, size=400, interval=0.05, at=2.5):
    conn = system.client_node.connect(system.service_ip, PORT)
    received = bytearray()
    conn.on_data = received.extend
    sent = bytearray()
    counter = [0]

    def tick():
        if counter[0] >= chunks:
            return
        data = bytes([counter[0] % 256]) * size
        conn.send(data)
        sent.extend(data)
        counter[0] += 1
        system.sim.schedule(interval, tick)

    system.sim.schedule(at, tick)
    return conn, sent, received


def entry_for(system):
    return system.redirector_daemon.redirector.entry_for(system.service_ip, PORT)


def test_crash_mid_transfer_restores_full_degree():
    system, manager = build()
    _conn, sent, received = start_client(system, chunks=200)
    system.sim.schedule(4.0, system.servers[0].crash)
    system.run_until(60.0)

    # Backup promoted to primary, spare auto-joined as last backup.
    assert list(entry_for(system).replicas) == [
        system.nodes[1].ip,
        system.spare_nodes[0].ip,
    ]
    assert manager.joins_completed == 1
    assert manager.joins_aborted == 0

    # In-flight byte stream intact: every sent byte echoed back in order.
    assert len(sent) == 200 * 400
    assert bytes(received) == bytes(sent)

    # MTTR and state-transfer accounting recorded for the incident.
    assert len(manager.incidents) == 1
    incident = manager.incidents[0]
    assert 0 < incident.mttr < 30.0
    assert 0 < incident.catchup_duration <= incident.mttr
    assert incident.connections_transferred == 1
    assert incident.transfer_bytes > 0

    # Degree dipped to 1 during the outage and is back at 2.
    degrees = [d for _t, d in manager.timeline.points]
    assert 1 in degrees
    assert manager.timeline.degree_at(system.sim.now) == 2
    assert 0.5 < manager.timeline.availability(2, until=60.0) < 1.0


def test_crash_restore_crash_again():
    """The recovered node re-enters the spare pool and covers a second,
    later failure of the (promoted) primary."""
    system, manager = build()
    _conn, sent, received = start_client(system, chunks=600)

    system.sim.schedule(4.0, system.servers[0].crash)

    def recycle():
        system.servers[0].recover()
        manager.return_spare(system.nodes[0])

    system.sim.schedule(20.0, recycle)
    system.sim.schedule(25.0, system.servers[1].crash)
    system.run_until(90.0)

    assert manager.joins_completed == 2
    assert len(manager.incidents) == 2
    # Second recovery: the original primary, recycled as a spare, is
    # now the last backup behind the twice-promoted replica.
    assert list(entry_for(system).replicas) == [
        system.spare_nodes[0].ip,
        system.nodes[0].ip,
    ]
    assert bytes(received) == bytes(sent)
    assert manager.timeline.degree_at(system.sim.now) == 2


@pytest.mark.parametrize("crash_at", [4.3, 6.0])
def test_join_after_primary_crash_keeps_atomicity(crash_at):
    """A spare live-joined behind the promoted backup, which ran alone
    (ungated) until the splice.  Its acknowledgement state leads the
    joiner's catch-up cut by the deltas still in flight, so its client
    output is fenced until the joiner's reports cover it — otherwise
    it ACKs client bytes the joiner has not yet deposited."""
    system = build_ft_system(
        seed=0,
        n_backups=1,
        n_spares=1,
        detector=DetectorParams(threshold=3, cooldown=1.0),
        factory=echo_server_factory,
        port=PORT,
    )
    manager = RecoveryManager(
        system.service, system.redirector_daemon, SparePool(system.spare_nodes)
    )
    enable_heartbeats(
        system.redirector_daemon, system.nodes, system.service_ip, PORT
    )
    invset = attach_invariants(system)
    sim = system.sim
    conn = system.client_node.connect(system.service_ip, PORT)
    sent, received = bytearray(), bytearray()
    conn.on_data = received.extend

    def pace():
        if sim.now >= 12.0:
            return
        data = bytes([len(sent) // 400 % 256]) * 400
        sent.extend(data[: conn.send(data)])
        sim.schedule(0.05, pace)

    sim.schedule(0.5, pace)
    FaultPlan(sim).crash_at(system.servers[0], crash_at)
    system.run_until(20.0)

    assert invset.violations == []
    assert len(sent) > 0 and bytes(received) == bytes(sent)
    assert manager.joins_completed == 1
