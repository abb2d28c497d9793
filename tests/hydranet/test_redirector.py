"""Tests for the redirector data path: table matching, tunnelling,
scaling redirection, and FT multicast."""

import pytest

from repro.hydranet import RedirectorError
from repro.netsim import Tracer
from repro.sockets import node_for

from .conftest import HydranetNet

SERVICE = HydranetNet.SERVICE_IP


def sink_on(host_server, ip, port):
    """TCP sink bound under a virtual host on a host server."""
    host_server.v_host(ip)
    state = {"data": bytearray(), "conns": []}
    listener = host_server.node.listen(port, ip=ip)

    def accept(conn):
        state["conns"].append(conn)
        conn.on_data = state["data"].extend
        conn.on_remote_close = conn.close

    listener.on_accept = accept
    return state


class TestTableManagement:
    def test_install_scaling_and_lookup(self, hnet):
        hnet.redirector.install_scaling(SERVICE, 80, hnet.hs_a.ip)
        entry = hnet.redirector.entry_for(SERVICE, 80)
        assert entry is not None
        assert not entry.fault_tolerant
        assert entry.primary == hnet.hs_a.ip

    def test_install_ft_orders_replicas(self, hnet):
        hnet.redirector.install_ft_backup(SERVICE, 80, hnet.hs_b.ip)
        hnet.redirector.install_ft_primary(SERVICE, 80, hnet.hs_a.ip)
        entry = hnet.redirector.entry_for(SERVICE, 80)
        assert entry.primary == hnet.hs_a.ip
        assert entry.backups == [hnet.hs_b.ip]

    def test_scaling_on_ft_entry_rejected(self, hnet):
        hnet.redirector.install_ft_primary(SERVICE, 80, hnet.hs_a.ip)
        with pytest.raises(RedirectorError):
            hnet.redirector.install_scaling(SERVICE, 80, hnet.hs_b.ip)

    def test_remove_last_replica_removes_entry(self, hnet):
        hnet.redirector.install_scaling(SERVICE, 80, hnet.hs_a.ip)
        hnet.redirector.remove_replica(SERVICE, 80, hnet.hs_a.ip)
        assert hnet.redirector.entry_for(SERVICE, 80) is None

    def test_promote_moves_to_front(self, hnet):
        hnet.redirector.install_ft_primary(SERVICE, 80, hnet.hs_a.ip)
        hnet.redirector.install_ft_backup(SERVICE, 80, hnet.hs_b.ip)
        hnet.redirector.install_ft_primary(SERVICE, 80, hnet.hs_b.ip)
        entry = hnet.redirector.entry_for(SERVICE, 80)
        assert entry.replicas == [hnet.hs_b.ip, hnet.hs_a.ip]


class TestScalingRedirection:
    def test_tcp_connection_redirected_to_replica(self, hnet_no_origin):
        hnet = hnet_no_origin
        state = sink_on(hnet.hs_a, SERVICE, 80)
        hnet.redirector.install_scaling(SERVICE, 80, hnet.hs_a.ip)
        conn = hnet.client_node.connect(SERVICE, 80)
        conn.on_established = lambda: (conn.send(b"GET /"), conn.close())
        hnet.run(until=30.0)
        assert bytes(state["data"]) == b"GET /"
        assert hnet.redirector.packets_redirected > 0
        assert hnet.hs_a.tunneled_packets_received > 0

    def test_non_matching_port_forwarded_to_origin(self, hnet):
        """Client B's telnet traffic passes the redirector untouched
        (Figure 2 scenario)."""
        origin_state = {"data": bytearray()}
        origin_node = node_for(hnet.origin)
        listener = origin_node.listen(23, ip=SERVICE)
        listener.on_accept = lambda c: setattr(c, "on_data", origin_state["data"].extend)
        # Redirect only port 80 to hs_a; port 23 has no entry.
        hnet.redirector.install_scaling(SERVICE, 80, hnet.hs_a.ip)
        conn = hnet.client_node.connect(SERVICE, 23)
        conn.on_established = lambda: conn.send(b"telnet!")
        hnet.run(until=30.0)
        assert bytes(origin_state["data"]) == b"telnet!"
        assert hnet.redirector.packets_redirected == 0

    def test_same_ip_different_ports_split(self, hnet):
        """Port 80 goes to the host server while port 23 reaches the
        origin — the redirector table is keyed by (ip, port)."""
        web_state = sink_on(hnet.hs_a, SERVICE, 80)
        origin_node = node_for(hnet.origin)
        telnet_data = bytearray()
        telnet_listener = origin_node.listen(23, ip=SERVICE)
        telnet_listener.on_accept = lambda c: setattr(c, "on_data", telnet_data.extend)
        hnet.redirector.install_scaling(SERVICE, 80, hnet.hs_a.ip)
        web = hnet.client_node.connect(SERVICE, 80)
        web.on_established = lambda: web.send(b"http")
        tel = hnet.client_node.connect(SERVICE, 23)
        tel.on_established = lambda: tel.send(b"telnet")
        hnet.run(until=30.0)
        assert bytes(web_state["data"]) == b"http"
        assert bytes(telnet_data) == b"telnet"

    def test_reply_comes_from_service_address(self, hnet_no_origin):
        """Client-transparency: responses carry the service IP even
        though a replica produced them."""
        hnet = hnet_no_origin
        hnet.hs_a.v_host(SERVICE)
        listener = hnet.hs_a.node.listen(80, ip=SERVICE)
        listener.on_accept = lambda c: c.send(b"hello from replica")
        hnet.redirector.install_scaling(SERVICE, 80, hnet.hs_a.ip)
        got = bytearray()
        conn = hnet.client_node.connect(SERVICE, 80)
        conn.on_data = got.extend
        hnet.run(until=30.0)
        assert bytes(got) == b"hello from replica"
        assert str(conn.remote_ip) == SERVICE


class TestFtMulticast:
    def test_packets_copied_to_all_replicas(self, hnet_no_origin):
        hnet = hnet_no_origin
        state_a = sink_on(hnet.hs_a, SERVICE, 80)
        state_b = sink_on(hnet.hs_b, SERVICE, 80)
        # Make hs_b primary so the client handshake completes (only the
        # primary answers; here both answer, which is fine for this
        # data-path-only test since they use different ISS policies...
        # so instead mark only hs_a as responder by not listening on b).
        hnet.redirector.install_ft_primary(SERVICE, 80, hnet.hs_a.ip)
        hnet.redirector.install_ft_backup(SERVICE, 80, hnet.hs_b.ip)
        conn = hnet.client_node.connect(SERVICE, 80)
        conn.on_established = lambda: conn.send(b"to both")
        hnet.run(until=30.0)
        assert hnet.hs_a.tunneled_packets_received > 0
        assert hnet.hs_b.tunneled_packets_received > 0
        assert hnet.redirector.packets_multicast > 0

    def test_multicast_counts_per_replica(self, hnet_no_origin):
        hnet = hnet_no_origin
        sink_on(hnet.hs_a, SERVICE, 80)
        sink_on(hnet.hs_b, SERVICE, 80)
        hnet.redirector.install_ft_primary(SERVICE, 80, hnet.hs_a.ip)
        hnet.redirector.install_ft_backup(SERVICE, 80, hnet.hs_b.ip)
        hnet.sim.tracer = Tracer(keep_records=False)
        conn = hnet.client_node.connect(SERVICE, 80)
        hnet.run(until=5.0)
        # Every client packet produced one tunnel copy per replica.
        assert hnet.hs_a.tunneled_packets_received == hnet.hs_b.tunneled_packets_received


class TestRedirectorTableMirror:
    """Every mutating dict method must keep the tuple-keyed fast mirror
    in sync with the authoritative ServiceKey-keyed table."""

    @staticmethod
    def _entry(ip="10.0.0.1", port=80):
        from repro.hydranet.redirector import RedirectionEntry, ServiceKey
        from repro.netsim.addressing import as_address

        key = ServiceKey(as_address(ip), port)
        return key, RedirectionEntry(key)

    @staticmethod
    def _assert_synced(table):
        assert len(table.fast) == len(table)
        for key, entry in table.items():
            assert table.fast[(key.ip._value, key.port)] is entry

    def test_setitem_delitem_pop(self):
        from repro.hydranet.redirector import _RedirectorTable

        table = _RedirectorTable()
        k1, e1 = self._entry("10.0.0.1", 80)
        k2, e2 = self._entry("10.0.0.2", 80)
        table[k1] = e1
        table[k2] = e2
        self._assert_synced(table)
        del table[k1]
        assert table.pop(k2) is e2
        assert table.pop(k2, None) is None
        self._assert_synced(table)
        assert table.fast == {}

    def test_clear(self):
        from repro.hydranet.redirector import _RedirectorTable

        table = _RedirectorTable()
        k, e = self._entry()
        table[k] = e
        table.clear()
        assert table.fast == {} and len(table) == 0

    def test_update_and_ior(self):
        from repro.hydranet.redirector import _RedirectorTable

        table = _RedirectorTable()
        k1, e1 = self._entry("10.0.0.1", 80)
        k2, e2 = self._entry("10.0.0.2", 443)
        table.update({k1: e1})
        table |= {k2: e2}
        self._assert_synced(table)

    def test_setdefault(self):
        from repro.hydranet.redirector import _RedirectorTable

        table = _RedirectorTable()
        k, e = self._entry()
        assert table.setdefault(k, e) is e
        _, other = self._entry()
        assert table.setdefault(k, other) is e
        self._assert_synced(table)

    def test_popitem(self):
        from repro.hydranet.redirector import _RedirectorTable

        table = _RedirectorTable()
        k, e = self._entry()
        table[k] = e
        got_key, got_entry = table.popitem()
        assert (got_key, got_entry) == (k, e)
        assert table.fast == {}


class TestDataPath:
    """The one packet hook: the fence and the output observers on the
    source lookup, redirection on the destination lookup."""

    CLIENT_PORT = 40000

    @staticmethod
    def _segment_packet(src, dst, src_port, dst_port, epoch=None):
        from repro.netsim import as_address
        from repro.netsim.packet import IPPacket, Protocol, TCPFlags, TCPSegment

        segment = TCPSegment(
            src_port, dst_port, 1, 1, TCPFlags.ACK, 4096, b"x", epoch=epoch
        )
        return IPPacket(
            src=as_address(src), dst=as_address(dst), protocol=Protocol.TCP,
            payload=segment,
        )

    def _ft_service(self, hnet, epoch=2):
        redirector = hnet.redirector
        redirector.install_ft_primary(SERVICE, 80, hnet.hs_a.ip)
        redirector.install_ft_backup(SERVICE, 80, hnet.hs_b.ip)
        redirector.entry_for(SERVICE, 80).epoch = epoch
        seen = []
        redirector.output_observers.append(
            lambda packet, segment, entry: seen.append((segment.epoch, entry.epoch))
        )
        return redirector, seen

    def _output(self, hnet, epoch):
        """Service output towards the client, stamped ``epoch``."""
        return self._segment_packet(
            SERVICE, hnet.client.ip, 80, self.CLIENT_PORT, epoch
        )

    def test_stale_epoch_is_fenced_and_never_observed(self, hnet_no_origin):
        hnet = hnet_no_origin
        redirector, seen = self._ft_service(hnet, epoch=2)
        fenced = []
        redirector.on_fenced = lambda epoch, entry: fenced.append(epoch)
        packet = self._output(hnet, epoch=1)
        assert redirector._redirect_hook(packet, redirector.interfaces[0])
        assert redirector.segments_fenced == 1
        assert fenced == [1]
        assert seen == []

    @pytest.mark.parametrize("epoch", [None, 2])
    def test_unstamped_or_current_output_is_observed_once(self, hnet_no_origin, epoch):
        hnet = hnet_no_origin
        redirector, seen = self._ft_service(hnet, epoch=2)
        packet = self._output(hnet, epoch)
        # Not consumed: the kernel forwards it on to the client.
        assert not redirector._redirect_hook(packet, redirector.interfaces[0])
        assert seen == [(epoch, 2)]
        assert redirector.segments_fenced == 0

    @pytest.mark.parametrize("source", ["client", "scaling"])
    def test_transit_packet_is_not_observed(self, hnet_no_origin, source):
        hnet = hnet_no_origin
        redirector, seen = self._ft_service(hnet)
        if source == "client":
            packet = self._segment_packet(
                hnet.client.ip, hnet.hs_a.ip, self.CLIENT_PORT, 9, epoch=0
            )
        else:
            redirector.install_scaling(SERVICE, 81, hnet.hs_a.ip)
            packet = self._segment_packet(
                SERVICE, hnet.client.ip, 81, self.CLIENT_PORT, epoch=0
            )
        assert not redirector._redirect_hook(packet, redirector.interfaces[0])
        assert seen == []
        assert redirector.segments_fenced == 0

    @pytest.mark.parametrize("fault_tolerant", [True, False])
    def test_client_segment_multicast_or_sent_to_one_replica(
        self, hnet_no_origin, fault_tolerant
    ):
        hnet = hnet_no_origin
        redirector = hnet.redirector
        if fault_tolerant:
            redirector.install_ft_primary(SERVICE, 80, hnet.hs_a.ip)
            redirector.install_ft_backup(SERVICE, 80, hnet.hs_b.ip)
        else:
            redirector.install_scaling(SERVICE, 80, hnet.hs_a.ip)
            redirector.install_scaling(SERVICE, 80, hnet.hs_b.ip)
        sent = []
        redirector.kernel.send_ip = sent.append
        packet = self._segment_packet(hnet.client.ip, SERVICE, self.CLIENT_PORT, 80)
        assert redirector._redirect_hook(packet, redirector.interfaces[0])
        targets = [outer.dst for outer in sent]
        if fault_tolerant:
            assert targets == [hnet.hs_a.ip, hnet.hs_b.ip]
            assert redirector.packets_multicast == 1
        else:
            assert targets == [hnet.hs_a.ip]
            assert redirector.packets_multicast == 0
        assert redirector.packets_redirected == 1
        assert all(outer.payload.inner.payload is packet.payload for outer in sent)

    def test_hook_appended_later_runs_after_the_redirector(self, hnet_no_origin):
        hnet = hnet_no_origin
        redirector = hnet.redirector
        redirector.install_scaling(SERVICE, 80, hnet.hs_a.ip)
        later = []
        redirector.kernel.packet_hooks.append(lambda p, nic: later.append(p) or True)
        assert redirector.kernel.packet_hooks[0] == redirector._redirect_hook
        nic = redirector.interfaces[0]
        transit = self._segment_packet(hnet.client.ip, hnet.hs_a.ip, self.CLIENT_PORT, 9)
        redirected = self._segment_packet(hnet.client.ip, SERVICE, self.CLIENT_PORT, 80)
        redirector.kernel._process(transit, nic)
        redirector.kernel._process(redirected, nic)
        assert later == [transit]
        assert redirector.packets_redirected == 1

    def test_mesh_observers_use_their_own_table(self):
        from repro.invariants.monitors import attach_mesh_invariants
        from repro.topo import compile_spec, hub_and_spoke

        mesh = compile_spec(
            hub_and_spoke(spokes=2, servers_per_spoke=2, clients_per_spoke=1,
                          services=1, backups=1, seed=0)
        )
        invset = attach_mesh_invariants(mesh.sim, mesh.redirectors.values())
        (service_ip, port), = mesh.service_points
        client_ip = next(iter(mesh.clients.values())).ip
        newer, older = (mesh.redirectors[n] for n in sorted(mesh.redirectors)[:2])
        newer.entry_for(service_ip, port).epoch = 5
        older.entry_for(service_ip, port).epoch = 3
        seen = {}
        for name, redirector in mesh.redirectors.items():
            redirector.output_observers.append(
                lambda packet, segment, entry, name=name: seen.setdefault(
                    name, entry.epoch
                )
            )
        packet = self._segment_packet(service_ip, client_ip, port, self.CLIENT_PORT, 4)
        # Epoch 4 is stale at the redirector whose table says 5 ...
        assert newer._redirect_hook(packet, newer.interfaces[0])
        assert newer.segments_fenced == 1
        # ... and current at the one whose table says 3.
        assert not older._redirect_hook(packet, older.interfaces[0])
        assert seen == {sorted(mesh.redirectors)[1]: 3}
        assert invset.stats["service_output_segments"] == 1
        assert invset.violations == []
        # With the fence off, the first redirector's observer judges the
        # segment by its own table's epoch 5, and reports it.
        newer._fence_hook = lambda packet, segment, entry: False
        newer._redirect_hook(packet, newer.interfaces[0])
        assert invset.violated_monitors() == ["single-primary"]
