"""Node datapath: forwarding, ICMP generation, local delivery, LWT wiring."""

import pytest

from repro.ebpf import Program
from repro.ebpf.jit import handler_cache_stats
from repro.net import (
    BpfLwt,
    End,
    EndBPF,
    EndDT6,
    Icmpv6Message,
    LWT_HELPERS,
    Nexthop,
    Node,
    SEG6LOCAL_HELPERS,
    Seg6Encap,
    echo_request,
    make_icmpv6_packet,
    make_srv6_udp_packet,
    make_udp_packet,
    pton,
)


@pytest.fixture
def router():
    node = Node("R")
    node.add_device("eth0")
    node.add_device("eth1")
    node.add_address("fc00:e::1")
    node.add_route("fc00:1::/64", via="fc00:1::1", dev="eth0")
    node.add_route("fc00:2::/64", via="fc00:2::1", dev="eth1")
    return node


def test_plain_forwarding(router):
    pkt = make_udp_packet("fc00:1::1", "fc00:2::2", 1, 2, b"x", hop_limit=10)
    router.receive(pkt, router.devices["eth0"])
    out = router.devices["eth1"].tx_buffer
    assert len(out) == 1
    assert out[0].hop_limit == 9
    assert router.counters.forwarded == 1


def test_no_route_drops(router):
    pkt = make_udp_packet("fc00:1::1", "fd00::1", 1, 2, b"x")
    router.receive(pkt, router.devices["eth0"])
    assert router.counters.no_route == 1
    assert not router.devices["eth1"].tx_buffer


def test_hop_limit_expiry_generates_time_exceeded(router):
    pkt = make_udp_packet("fc00:1::1", "fc00:2::2", 1, 2, b"x", hop_limit=1)
    router.receive(pkt, router.devices["eth0"])
    assert router.counters.hop_limit_exceeded == 1
    assert not router.devices["eth1"].tx_buffer
    # The ICMPv6 error went back toward the source.
    back = router.devices["eth0"].tx_buffer
    assert len(back) == 1
    assert back[0].l4()[0] == 58
    info = back[0]._l4_offset()
    message = Icmpv6Message.parse(bytes(back[0].data), info[1])
    assert message.msg_type == 3


def test_local_delivery_to_bound_listener(router):
    seen = []
    router.bind(lambda pkt, node: seen.append(pkt), proto=17, port=7777)
    pkt = make_udp_packet("fc00:1::1", "fc00:e::1", 1, 7777, b"hi")
    router.receive(pkt, router.devices["eth0"])
    assert len(seen) == 1
    assert router.counters.delivered_local == 1


def test_local_udp_without_listener_sends_port_unreachable(router):
    pkt = make_udp_packet("fc00:1::1", "fc00:e::1", 1, 9999, b"hi")
    router.receive(pkt, router.devices["eth0"])
    back = router.devices["eth0"].tx_buffer
    assert len(back) == 1
    info = back[0]._l4_offset()
    message = Icmpv6Message.parse(bytes(back[0].data), info[1])
    assert (message.msg_type, message.code) == (1, 4)


def test_wildcard_port_listener(router):
    seen = []
    router.bind(lambda pkt, node: seen.append(pkt), proto=17, port=None)
    router.receive(
        make_udp_packet("fc00:1::1", "fc00:e::1", 1, 1234, b""), router.devices["eth0"]
    )
    router.receive(
        make_udp_packet("fc00:1::1", "fc00:e::1", 1, 5678, b""), router.devices["eth0"]
    )
    assert len(seen) == 2


def test_echo_request_answered(router):
    ping = make_icmpv6_packet("fc00:1::1", "fc00:e::1", echo_request(1, 1, b"abc"))
    router.receive(ping, router.devices["eth0"])
    back = router.devices["eth0"].tx_buffer
    assert len(back) == 1
    info = back[0]._l4_offset()
    message = Icmpv6Message.parse(bytes(back[0].data), info[1])
    assert message.msg_type == 129
    assert message.body[4:] == b"abc"


def test_send_does_not_decrement_hop_limit(router):
    pkt = make_udp_packet("fc00:e::1", "fc00:2::2", 1, 2, b"x", hop_limit=64)
    router.send(pkt)
    assert router.devices["eth1"].tx_buffer[0].hop_limit == 64


def test_seg6_encap_route_recirculates(router):
    router.add_route(
        "fc00:9::/64", encap=Seg6Encap(segments=[pton("fc00:2::e1")], mode="encap")
    )
    router.add_route("fc00:2::e1/128", via="fc00:2::1", dev="eth1")
    pkt = make_udp_packet("fc00:1::1", "fc00:9::9", 1, 2, b"x")
    router.receive(pkt, router.devices["eth0"])
    out = router.devices["eth1"].tx_buffer
    assert len(out) == 1
    assert out[0].dst == pton("fc00:2::e1")
    srh, _ = out[0].srh()
    assert srh is not None


def test_seg6local_end_route(router):
    router.add_route("fc00:e::100/128", encap=End())
    pkt = make_srv6_udp_packet("fc00:1::1", ["fc00:e::100", "fc00:2::2"], 1, 2, b"x")
    router.receive(pkt, router.devices["eth0"])
    out = router.devices["eth1"].tx_buffer
    assert out[0].dst == pton("fc00:2::2")
    assert router.counters.seg6local_processed == 1


def test_end_then_dt6_chain():
    """Two seg6local hops on different nodes: End then End.DT6."""
    n1 = Node("N1")
    n1.add_device("in")
    n1.add_device("out")
    n1.add_address("fc00:a::1")
    n1.add_route("fc00:a::100/128", encap=End())
    n1.add_route("fc00:b::/64", via="fc00:b::1", dev="out")

    n2 = Node("N2")
    n2.add_device("in")
    n2.add_device("out")
    n2.add_address("fc00:b::1")
    n2.add_route("fc00:b::100/128", encap=EndDT6(table_id=254))
    n2.add_route("fc00:2::/64", via="fc00:2::1", dev="out")

    inner = make_udp_packet("fc00:1::1", "fc00:2::2", 5, 6, b"payload")
    from repro.net import make_srh, push_outer_encap

    srh = make_srh(["fc00:a::100", "fc00:b::100"], next_header=41)
    pkt_bytes = push_outer_encap(bytes(inner.data), pton("fc00:1::1"), srh)
    from repro.net import Packet

    n1.receive(Packet(pkt_bytes), n1.devices["in"])
    mid = n1.devices["out"].tx_buffer.pop()
    assert mid.dst == pton("fc00:b::100")
    n2.receive(mid, n2.devices["in"])
    final = n2.devices["out"].tx_buffer.pop()
    assert final.srh() is None
    assert final.udp_payload() == b"payload"


def test_bpf_drop_counted(router):
    prog = Program("mov r0, 2\nexit", allowed_helpers=SEG6LOCAL_HELPERS)
    router.add_route("fc00:e::100/128", encap=EndBPF(prog))
    pkt = make_srv6_udp_packet("fc00:1::1", ["fc00:e::100", "fc00:2::2"], 1, 2, b"x")
    router.receive(pkt, router.devices["eth0"])
    assert router.counters.dropped == 1
    assert router.counters.bpf_dropped == 1
    assert not router.devices["eth1"].tx_buffer


def test_unknown_bpf_return_drops(router):
    prog = Program("mov r0, 99\nexit", allowed_helpers=SEG6LOCAL_HELPERS)
    action = EndBPF(prog)
    router.add_route("fc00:e::100/128", encap=action)
    pkt = make_srv6_udp_packet("fc00:1::1", ["fc00:e::100", "fc00:2::2"], 1, 2, b"x")
    router.receive(pkt, router.devices["eth0"])
    assert router.counters.dropped == 1
    assert action.stats["drop"] == 1
    # A malformed verdict is a datapath policy drop, not the program's own
    # BPF_DROP: the Disposition carries bpf=False, so bpf_dropped ignores it.
    assert router.counters.bpf_dropped == 0


def test_endbpf_srh_validation_drop_is_not_bpf_dropped(router):
    """Pre-program SRH validation failures never count as BPF drops."""
    prog = Program("mov r0, 0\nexit", allowed_helpers=SEG6LOCAL_HELPERS)
    router.add_route("fc00:e::100/128", encap=EndBPF(prog))
    pkt = make_udp_packet("fc00:1::1", "fc00:e::100", 1, 2, b"x")  # no SRH
    router.receive(pkt, router.devices["eth0"])
    assert router.counters.dropped == 1
    assert router.counters.bpf_dropped == 0


def test_bpf_lwt_drop_counted_as_bpf_dropped(router):
    """BPF_DROP from an lwt hook sets Disposition.bpf, counted per verdict."""
    prog = Program("mov r0, 2\nexit", allowed_helpers=LWT_HELPERS)
    router.add_route(
        "fc00:3::/64", via="fc00:2::1", dev="eth1", encap=BpfLwt(prog_in=prog)
    )
    pkt = make_udp_packet("fc00:1::1", "fc00:3::3", 1, 2, b"x")
    router.receive(pkt, router.devices["eth0"])
    assert router.counters.dropped == 1
    assert router.counters.bpf_dropped == 1


# §3.1 return codes: OK, DROP, REDIRECT, and a value outside the set.
VERDICTS = {0: "ok", 2: "drop", 7: "redirect", 99: "drop"}


@pytest.mark.parametrize("path", ["endbpf_single", "endbpf_grouped", "lwt_in"])
@pytest.mark.parametrize("ret", list(VERDICTS))
def test_bpf_verdict_same_on_every_hook_path(router, ret, path):
    """End.BPF (batch of one or grouped) and lwt_in map a return code alike."""
    count = 4 if path == "endbpf_grouped" else 1
    if path == "lwt_in":
        prog = Program(f"mov r0, {ret}\nexit", allowed_helpers=LWT_HELPERS)
        owner = BpfLwt(prog_in=prog)
        router.add_route("fc00:3::/64", via="fc00:2::1", dev="eth1", encap=owner)
        pkts = [make_udp_packet("fc00:1::1", "fc00:3::3", 1, 2, b"x")]
        expected = bytearray(pkts[0].data)
    else:
        prog = Program(f"mov r0, {ret}\nexit", allowed_helpers=SEG6LOCAL_HELPERS)
        owner = EndBPF(prog)
        router.add_route("fc00:e::100/128", encap=owner)
        pkts = [
            make_srv6_udp_packet("fc00:1::1", ["fc00:e::100", "fc00:2::2"], 1, 2, b"x")
            for _ in range(count)
        ]
        expected = bytearray(pkts[0].data)
        expected[24:40] = pton("fc00:2::2")  # advanced to the last segment
        expected[43] -= 1  # segments_left
    expected[7] -= 1  # hop limit
    grouped_before = handler_cache_stats()["bpf_grouped_packets"]

    router.receive_batch(pkts, router.devices["eth0"])

    grouped = handler_cache_stats()["bpf_grouped_packets"] - grouped_before
    assert grouped == (count if path == "endbpf_grouped" else 0)
    forwarded = count if ret in (0, 7) else 0
    c = router.counters
    assert (c.rx, c.forwarded, c.tx, c.dropped, c.bpf_dropped) == (
        count, forwarded, forwarded, count - forwarded, count if ret == 2 else 0
    )
    assert c.seg6local_processed == (0 if path == "lwt_in" else count)
    stats = {"ok": 0, "drop": 0, "redirect": 0, "errors": 0}
    stats[VERDICTS[ret]] = count
    assert owner.stats == stats
    out = [bytes(p.data) for p in router.devices["eth1"].tx_buffer]
    assert out == [bytes(expected)] * forwarded


def test_receive_accounts_ingress_device_stats(router):
    """Node.receive wires ``dev`` through to the ip -s link rx counters."""
    eth0 = router.devices["eth0"]
    pkt = make_udp_packet("fc00:1::1", "fc00:2::2", 1, 2, b"x")
    size = len(pkt)
    router.receive(pkt, eth0)
    assert eth0.stats.rx_packets == 1
    assert eth0.stats.rx_bytes == size
    assert pkt.input_dev == "eth0"
    batch = [make_udp_packet("fc00:1::1", "fc00:2::2", 1, 2, b"x") for _ in range(4)]
    router.receive_batch(batch, eth0)
    assert eth0.stats.rx_packets == 5
    assert eth0.stats.rx_bytes == 5 * size


def test_bpf_lwt_in_can_drop(router):
    prog = Program("mov r0, 2\nexit", allowed_helpers=LWT_HELPERS)
    router.add_route("fc00:3::/64", via="fc00:2::1", dev="eth1", encap=BpfLwt(prog_in=prog))
    pkt = make_udp_packet("fc00:1::1", "fc00:3::3", 1, 2, b"x")
    router.receive(pkt, router.devices["eth0"])
    assert not router.devices["eth1"].tx_buffer


def test_bpf_lwt_out_pass_through(router):
    prog = Program("mov r0, 0\nexit", allowed_helpers=LWT_HELPERS)
    lwt = BpfLwt(prog_out=prog)
    router.add_route("fc00:3::/64", via="fc00:2::1", dev="eth1", encap=lwt)
    pkt = make_udp_packet("fc00:1::1", "fc00:3::3", 1, 2, b"x")
    router.receive(pkt, router.devices["eth0"])
    assert len(router.devices["eth1"].tx_buffer) == 1
    assert lwt.stats["ok"] == 1


def test_ecmp_route_spreads_flows(router):
    router.add_route(
        "fc00:5::/64",
        nexthops=[Nexthop(via="fc00:1::1", dev="eth0"), Nexthop(via="fc00:2::1", dev="eth1")],
    )
    for port in range(60):
        pkt = make_udp_packet("fc00:1::1", "fc00:5::5", 1000 + port, 2, b"")
        router.receive(pkt, router.devices["eth0"])
    a = len(router.devices["eth0"].tx_buffer)
    b = len(router.devices["eth1"].tx_buffer)
    assert a + b == 60
    assert a > 10 and b > 10


def test_recirculation_budget_stops_loops(router):
    # A seg6 encap whose result matches the same route again: endless
    # re-encapsulation must be stopped by the budget.
    router.add_route(
        "fc00:7::/64", encap=Seg6Encap(segments=[pton("fc00:7::1")], mode="encap")
    )
    pkt = make_udp_packet("fc00:1::1", "fc00:7::7", 1, 2, b"x")
    router.receive(pkt, router.devices["eth0"])
    assert router.counters.dropped == 1
    assert any("re-circulation" in msg for msg in router.log_messages)


def test_rx_timestamp_set_on_receive():
    node = Node("N", clock_ns=lambda: 555)
    node.add_device("eth0")
    node.add_address("fc00::1")
    seen = []
    node.bind(lambda pkt, n: seen.append(pkt.rx_tstamp_ns), proto=17, port=1)
    node.receive(make_udp_packet("fc00::2", "fc00::1", 9, 1, b""), node.devices["eth0"])
    assert seen == [555]


def test_duplicate_device_rejected(router):
    with pytest.raises(ValueError):
        router.add_device("eth0")


def test_runt_packet_dropped(router):
    from repro.net import Packet

    router.receive(Packet(b"\x60\x00\x00"), router.devices["eth0"])
    assert router.counters.dropped == 1
