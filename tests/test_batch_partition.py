"""Batch-partition invariance: how a stream is split must not matter.

The datapath is batch-native — ``Node.receive`` is ``receive_batch`` of
one — so the old scalar-vs-burst differential loses its second subject.
What replaces it is a stronger property: for any packet stream, *every*
partition into batches (one at a time, pairs, odd chunks, the whole
stream, random splits) must forward the exact same bytes in the exact
same per-device order, with the same counters, device stats, action
stats, marks and side effects (perf events, map state).  These tests
drive the §3.2 endpoint functions and the §4.1/§4.2 use cases through
several partitions of the same stream and compare everything
observable.
"""

from __future__ import annotations

import random

import pytest

from repro.bench.harness import copy_batch, make_fig2_router, make_router
from repro.ebpf import ArrayMap, PerfEventArrayMap
from repro.net import BpfLwt, EndBPF, Node, Packet
from repro.progs import (
    dm_config_value,
    dm_encap_prog,
    end_dm_prog,
    end_prog,
    wrr_config_value,
    wrr_prog,
    wrr_state_counters,
)
from repro.sim.trafgen import batch_srv6_udp_flows, batch_udp
from repro.trace import Tracer

FIG2_VARIANTS = (
    "baseline_ipv6",
    "end_static",
    "end_bpf",
    "end_t_static",
    "end_t_bpf",
    "tag_increment_bpf",
    "add_tlv_bpf",
    "add_tlv_bpf_nojit",
)


def partitions_of(count: int) -> list[list[int]]:
    """Batch-size sequences covering the interesting splits of ``count``.

    Fixed sizes 1 (the scalar case), 2, 7 (odd, straddles everything),
    the whole stream, plus two seeded random partitions.
    """
    sizes: list[list[int]] = []
    for fixed in (1, 2, 7, count):
        sizes.append([fixed] * (count // fixed) + ([count % fixed] if count % fixed else []))
    rng = random.Random(0xBA7C4)
    for _ in range(2):
        split: list[int] = []
        left = count
        while left > 0:
            take = min(left, rng.randint(1, max(2, count // 3)))
            split.append(take)
            left -= take
        sizes.append(split)
    return sizes


def drive_partition(node: Node, pkts: list[Packet], sizes: list[int]) -> list[Packet]:
    """Feed ``pkts`` to the node split into batches of the given sizes."""
    dev = node.devices["eth0"]
    offset = 0
    for size in sizes:
        node.receive_batch(pkts[offset : offset + size], dev)
        offset += size
    assert offset == len(pkts)
    return node.devices["eth1"].tx_buffer


def observe(node: Node, out: list[Packet]) -> dict:
    """Everything partition invariance promises to hold constant."""
    return {
        "bytes": [bytes(p.data) for p in out],
        "marks": [p.mark for p in out],
        "traces": [list(p.trace) for p in out],
        "delivered_bytes": sum(len(p) for p in out),
        "counters": dict(vars(node.counters)),
        "dev_stats": {name: dict(vars(d.stats)) for name, d in node.devices.items()},
    }


def assert_partition_invariant(build, templates, extra_observe=None, traced=False):
    """Drive every partition of ``templates`` through fresh ``build()`` nodes
    and assert the observations all match the batch-of-one reference.

    With ``traced``, every packet is admitted to a tracer and its span
    list joins the observations.  Returns the reference observations.
    """
    reference = None
    for sizes in partitions_of(len(templates)):
        node = build()
        pkts = copy_batch(templates)
        if traced:
            tracer = Tracer(sample=1)
            for pkt in pkts:
                tracer.admit(pkt, "gen", 0)
        out = drive_partition(node, pkts, sizes)
        seen = observe(node, out)
        if traced:
            seen["spans"] = [list(pkt.tctx) for pkt in pkts]
        if extra_observe is not None:
            seen["extra"] = extra_observe(node)
        if reference is None:
            reference = seen
        else:
            assert seen == reference, f"partition {sizes[:8]}... diverged"
    return reference


@pytest.mark.parametrize("variant", FIG2_VARIANTS)
def test_fig2_variant_partition_invariance(variant):
    """Every §3.2 endpoint function forwards identically for any split."""
    _, templates = make_fig2_router(variant)

    def build():
        node, _ = make_fig2_router(variant)
        return node

    def action_stats(node):
        return [
            dict(route.encap.stats)
            for route in node.main_table().routes()
            if isinstance(route.encap, EndBPF)
        ]

    assert_partition_invariant(build, templates, extra_observe=action_stats)


@pytest.mark.parametrize("variant", [v for v in FIG2_VARIANTS if "bpf" in v])
def test_endbpf_partition_invariance_traced(variant):
    """Grouped and one-at-a-time End.BPF packets emit identical spans."""
    _, templates = make_fig2_router(variant)

    def build():
        node, _ = make_fig2_router(variant)
        return node

    reference = assert_partition_invariant(build, templates, traced=True)
    assert all(
        any(span[2] == "ebpf" for span in spans) for spans in reference["spans"]
    )


def test_malformed_srh_partition_invariance():
    """Drop reasons and counters match for broken SRv6 input, however split."""

    def build():
        node = make_router()
        node.add_route("fc00:e::100/128", encap=EndBPF(end_prog()))
        return node

    batch = batch_srv6_udp_flows("fc00:1::1", "fc00:e::100", "fc00:2", 4, 32)
    # Corrupt a spread of packets: exhausted SRH, bad routing type, truncation.
    for pkt in batch[::5]:
        pkt.data[43] = 0  # segments_left = 0
    for pkt in batch[1::5]:
        pkt.data[42] = 9  # not an SRH routing type
    for pkt in batch[2::5]:
        del pkt.data[48:]  # truncate inside the segment list

    assert_partition_invariant(build, batch)


# --- §4.1 delay monitoring ----------------------------------------------------

DM_SEGMENT = "fc00:3::dd"


def make_dm_head():
    """Head-end router with the §4.1 transit sampler (rng-driven)."""
    node = make_router()
    config = ArrayMap(f"dmpart_cfg_{id(object())}", value_size=40, max_entries=1)
    config.update(b"\x00" * 4, dm_config_value(DM_SEGMENT, "fc00:c::1", 9000, 0, 3))
    node.add_route(DM_SEGMENT + "/128", via="fc00:2::2", dev="eth1")
    node.add_route(
        "fc00:2::/64", via="fc00:2::2", dev="eth1",
        encap=BpfLwt(prog_out=dm_encap_prog(config)),
    )
    return node


def test_delay_monitoring_head_partition_invariance():
    """The probabilistic sampler encapsulates the same packets for any split.

    Sampling draws from the node's seeded rng, so identically named
    nodes see the same random sequence; every partition must consume
    draws in exactly the same per-packet order.
    """
    templates = batch_udp("fc00:1::1", "fc00:2::2", 96, payload_size=64)
    assert_partition_invariant(make_dm_head, templates)

    # Some probes must actually have been created for this to test anything.
    node = make_dm_head()
    out = drive_partition(node, copy_batch(templates), [len(templates)])
    assert any(p.next_header == 43 for p in out)


def test_delay_monitoring_tail_partition_invariance():
    """End.DM pushes identical perf records and decapsulates identically."""
    # Harvest one real probe packet by sampling at ratio 1.
    probe_src = make_router()
    config = ArrayMap(f"dmpart_all_{id(object())}", value_size=40, max_entries=1)
    config.update(b"\x00" * 4, dm_config_value(DM_SEGMENT, "fc00:c::1", 9000, 0, 1))
    probe_src.add_route(DM_SEGMENT + "/128", via="fc00:2::2", dev="eth1")
    probe_src.add_route(
        "fc00:2::/64", via="fc00:2::2", dev="eth1",
        encap=BpfLwt(prog_out=dm_encap_prog(config)),
    )
    probe_src.receive(
        batch_udp("fc00:1::1", "fc00:2::2", 1, payload_size=64)[0],
        probe_src.devices["eth0"],
    )
    probe = probe_src.devices["eth1"].tx_buffer.pop()

    plain = batch_udp("fc00:1::1", "fc00:2::2", 64, payload_size=64)
    mix = [
        Packet(bytes(probe.data)) if i % 8 == 0 else Packet(bytes(pkt.data))
        for i, pkt in enumerate(plain)
    ]

    events_boxes = []

    def build():
        node = make_router()
        events = PerfEventArrayMap(f"dmpart_ev_{id(object())}", max_entries=1)
        node.add_route(DM_SEGMENT + "/128", encap=EndBPF(end_dm_prog(events)))
        events_boxes.append(events)
        return node

    def perf_records(node):
        return events_boxes[-1].ring(0).drain()

    assert_partition_invariant(build, mix, extra_observe=perf_records)

    # One record per probe in the mix (the extra_observe drained them, so
    # re-drive once to count).
    node = build()
    drive_partition(node, copy_batch(mix), [len(mix)])
    assert len(events_boxes[-1].ring(0).drain()) == 8


# --- §4.2 hybrid access (WRR scheduler on the LWT hook) -----------------------


def test_hybrid_wrr_partition_invariance():
    """The WRR encapsulator splits flows identically for any batch split."""
    states = []

    def build():
        node = make_router()
        config = ArrayMap(f"wrrpart_cfg_{id(object())}", value_size=40, max_entries=1)
        state = ArrayMap(f"wrrpart_st_{id(object())}", value_size=16, max_entries=1)
        config.update(b"\x00" * 4, wrr_config_value("fc00:b::d0", "fc00:b::d1", 5, 3))
        node.add_route("fc00:b::d0/128", via="fc00:2::2", dev="eth1")
        node.add_route("fc00:b::d1/128", via="fc00:2::2", dev="eth1")
        node.add_route("fc00:2::/64", encap=BpfLwt(prog_out=wrr_prog(config, state)))
        states.append(state)
        return node

    templates = batch_udp("fc00:1::1", "fc00:2::2", 96, payload_size=200)
    assert_partition_invariant(
        build, templates, extra_observe=lambda node: wrr_state_counters(states[-1])
    )

    # The 5:3 split must really have happened (both links saw traffic).
    c0, c1, p0, p1 = wrr_state_counters(states[-1])
    assert p0 > 0 and p1 > 0


def test_icmp_interleaves_in_arrival_order_within_batch():
    """Locally generated ICMP must not jump ahead of parked batch egress.

    A hop-limit-expired packet mid-batch makes the node emit Time
    Exceeded while earlier forwarded packets are still accumulated in
    the egress batch; the per-device wire order must match arrival
    order for every partition.
    """

    def build():
        node = make_router()
        # Route the error's destination (the packet source) out of the
        # same device as forwarded traffic, so ordering is observable.
        node.add_route("fc00:1::/64", via="fc00:2::2", dev="eth1")
        return node

    pkts = batch_udp("fc00:1::1", "fc00:2::2", 3, payload_size=64)
    pkts[1].data[7] = 1  # expires at this router

    assert_partition_invariant(build, pkts)

    node = build()
    out = drive_partition(node, copy_batch(pkts), [3])
    assert len(out) == 3  # pkt1, ICMP Time Exceeded, pkt3
    assert out[1].next_header == 58


# --- the seg6local process_batch entry point ----------------------------------


def test_seg6local_process_batch_matches_single_process():
    """``action.process_batch`` == N single ``process`` calls, per action kind."""
    from repro.net import End, EndT, EndX

    factories = (
        lambda: End(),
        lambda: EndX(nh6="fc00:9::1"),
        lambda: EndT(table_id=254),
        lambda: EndBPF(end_prog()),
    )
    batch = batch_srv6_udp_flows("fc00:1::1", "fc00:e::100", "fc00:2", 4, 12)
    batch[5].data[43] = 0  # one exhausted SRH in the middle

    for factory in factories:
        single_action, batch_action = factory(), factory()
        node_s, node_b = make_router(), make_router()
        single_pkts = [Packet(bytes(p.data)) for p in batch]
        batch_pkts = [Packet(bytes(p.data)) for p in batch]

        single_disps = [single_action.process(p, node_s) for p in single_pkts]
        batch_disps = batch_action.process_batch(batch_pkts, node_b)

        for s, b in zip(single_disps, batch_disps):
            assert (s.action, s.table_id, s.nh6, s.reason, s.bpf) == (
                b.action, b.table_id, b.nh6, b.reason, b.bpf
            ), type(single_action).__name__
        assert [bytes(p.data) for p in single_pkts] == [
            bytes(p.data) for p in batch_pkts
        ], type(single_action).__name__


# --- flow-table invalidation --------------------------------------------------


def test_flow_table_invalidation_on_route_change():
    """A route change between batches takes effect immediately (generation bump)."""
    node = make_router()
    pkts = batch_udp("fc00:1::1", "fc00:2::2", 8, payload_size=64)
    node.receive_batch(copy_batch(pkts), node.devices["eth0"])
    assert len(node.devices["eth1"].tx_buffer) == 8
    assert node.flow_table.hits > 0

    # Shadow the sink route with a more-specific route out of eth0
    # instead; cached entries must not keep the stale resolution.
    node.add_route("fc00:2::2/128", via="fc00:1::1", dev="eth0")
    node.devices["eth1"].tx_buffer.clear()
    node.receive_batch(copy_batch(pkts), node.devices["eth0"])
    assert len(node.devices["eth1"].tx_buffer) == 0
    assert len(node.devices["eth0"].tx_buffer) == 8


def test_flow_table_lru_eviction():
    """The flow table stays bounded under more flows than its capacity."""
    node = make_router()
    node.flow_table.capacity = 16
    pkts = batch_srv6_udp_flows("fc00:1::1", "fc00:e::100", "fc00:2", 64, 64)
    from repro.net import End

    node.add_route("fc00:e::100/128", encap=End())
    node.receive_batch(pkts, node.devices["eth0"])
    assert len(node.flow_table) <= 16
    assert len(node.devices["eth1"].tx_buffer) == 64


# --- trafgen batch conservation ----------------------------------------------


def test_trafgen_batch_pacing_conserves_throughput():
    """Coarser batch pacing delivers the same load with far fewer events.

    Batch pacing is deliberately coarser (that is the optimisation), so
    this checks conservation — same packets sent, all delivered — not
    per-packet timing equality.
    """
    from repro.sim import Link, Scheduler, UdpFlow
    from repro.sim.scheduler import NS_PER_SEC

    def run(burst):
        scheduler = Scheduler()
        clock = scheduler.now_fn()
        a, b = Node("A", clock_ns=clock), Node("B", clock_ns=clock)
        a.add_device("eth0")
        b.add_device("eth0")
        a.add_address("fc00:1::1")
        b.add_address("fc00:2::1")
        Link(scheduler, a.devices["eth0"], b.devices["eth0"], 1e9, 1000)
        a.add_route("fc00:2::/64", via="fc00:2::1", dev="eth0")
        got = []
        b.bind(lambda pkt, node: got.append(len(pkt)), proto=17, port=5201)
        flow = UdpFlow(
            scheduler, a, "fc00:1::1", "fc00:2::1", rate_bps=8e6,
            payload_size=952, burst=burst,
        )
        flow.start(duration_ns=NS_PER_SEC // 10)
        scheduler.run(until_ns=NS_PER_SEC // 5)
        return flow.stats.sent, got, scheduler.events_run

    sent_packet, got_packet, events_packet = run(burst=1)
    sent_batch, got_batch, events_batch = run(burst=16)
    assert sent_packet == 100
    # Batch pacing quantises the stop check to batch boundaries: the last
    # tick before the deadline emits a whole batch.
    assert abs(sent_batch - sent_packet) <= 16
    assert len(got_packet) == sent_packet  # nothing lost, per-packet pacing
    assert len(got_batch) == sent_batch  # nothing lost, batch pacing
    assert set(got_packet) == set(got_batch)  # same wire sizes
    assert events_batch < events_packet / 4  # the point of batch pacing
