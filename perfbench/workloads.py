"""The benchmark's workloads: seeded experiment builders and output digests.

Each workload is a whole scheduler-driven experiment built through
``repro.lab``: generators feed qdiscs and links, nodes run their staged
pipeline and eBPF programs, and sinks count what arrives.  A build takes
the benchmark seed and nothing else; the seed reaches the program only as
generated inputs (the network seed, flow start phases, source-port draws,
and on regions the flapping link and the traced flows).

Every experiment has a *reference* variant that must produce the same
simulated outputs by an independent route:

* ``chain_endbpf`` and ``hybrid_wrr`` run their eBPF programs in the
  interpreter instead of the JIT;
* ``regions_ctrl`` runs under the sharded engine (``shards=2``), so the
  single-process run is checked against the other engine.

:func:`digest` hashes the simulated outputs (per-sink counts, delay sums
and reservoirs, node/link/qdisc/CPU/TCP counters, and the canonical
telemetry and trace streams where armed).  Host-side numbers such as the
executed-event count stay out of it: a sharded run counts its proxy
events, and the benchmark compares digests across engines.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass, field

from repro.lab import Network
from repro.lab.setups import Setup1, Setup1Topo, Setup2Topo
from repro.net import EndBPF
from repro.progs import add_tlv_prog
from repro.sim.cpu import CostModel
from repro.sim.scheduler import NS_PER_MS
from repro.telemetry.sink import RingSink
from repro.usecases import deploy_hybrid_access

# -- chain_endbpf: Setup 1 (§3.2), S1 -> R (Add-TLV End.BPF) -> S2 ----------
CHAIN_FLOODS = 8
CHAIN_RATE_BPS = 100e6  # per flood: 64 B payload + 48 B headers -> ~111 kpps
CHAIN_BURST = 4  # packets per generator tick, so R sees End.BPF groups
CHAIN_PORT_SPREAD = 16  # per-flood source-port draws (pktgen UDPSRC_RND)
CHAIN_WARMUP_NS = 1 * NS_PER_MS
CHAIN_UNTIL_NS = 11 * NS_PER_MS

# -- hybrid_wrr: Setup 2 (§4.2), WRR on the LWT hook over shaped links ------
HYBRID_UDP_RATE_BPS = 40e6
HYBRID_TCP_WINDOW = 14 * 1400  # window-limited (iperf3 -w), so its load is steady
HYBRID_WARMUP_NS = 50 * NS_PER_MS
HYBRID_UNTIL_NS = 550 * NS_PER_MS

# -- regions_ctrl: four IGP rings with FRR, telemetry and tracing ------------
REGIONS = 4
REGION_SIZE = 4
INTRA_DELAY_NS = 50_000
TRUNK_DELAY_NS = 5 * NS_PER_MS
HELLO_NS = 2 * NS_PER_MS
LOCAL_RATE_BPS = 10e6
CROSS_RATE_BPS = 2e6
FLAP_PERIOD_MS = 100
FLAP_DOWN_MS = 30
REGIONS_UNTIL_NS = 250 * NS_PER_MS


@dataclass
class Experiment:
    """One built workload, ready for its timed run."""

    name: str
    net: Network
    warmup_ns: int  # simulated before the timed region (part of set-up)
    until_ns: int  # horizon of the timed region
    shards: int = 1
    tcp: list = field(default_factory=list)  # (sender, receiver) pairs
    hybrid: object = None  # repro.usecases.HybridAccess

    def delivered(self) -> int:
        """Packets handed to the workload's sinks so far."""
        udp = sum(meter.packets for meter in self.net.meters)
        return udp + sum(rcv.stats.segments_received for _snd, rcv in self.tcp)


def build_chain(seed: int, reference: bool = False) -> Experiment:
    jit = not reference
    net = Setup1Topo(seed=seed).net
    net.attach("R", Setup1.FUNC_SEGMENT, EndBPF(add_tlv_prog(jit=jit)))
    rng = random.Random(seed)
    for flood in range(CHAIN_FLOODS):
        net.sink("S2", port=5201 + flood)
        flow = net.trafgen(
            "S1",
            path=[Setup1.FUNC_SEGMENT, Setup1.S2_ADDR],
            rate_bps=CHAIN_RATE_BPS,
            payload_size=64,
            dst_port=5201 + flood,
            src_port=40000 + flood * CHAIN_PORT_SPREAD,
            src_port_spread=CHAIN_PORT_SPREAD,
            burst=CHAIN_BURST,
        )
        flow.start(at_ns=rng.randrange(flow.interval_ns * CHAIN_BURST))
    return Experiment("chain_endbpf", net, CHAIN_WARMUP_NS, CHAIN_UNTIL_NS)


def build_hybrid(seed: int, reference: bool = False) -> Experiment:
    jit = not reference
    setup = Setup2Topo(seed=seed, cpe_cpu=CostModel(), netem_seed=seed).setup()
    net = setup.net
    hybrid = deploy_hybrid_access(setup, weights=(5, 3), jit=jit, compensation=True)
    net.sink("S2", port=5201)
    rng = random.Random(seed)
    flow = net.trafgen("S1", dst=Setup1.S2_ADDR, rate_bps=HYBRID_UDP_RATE_BPS, payload_size=1400)
    flow.start(at_ns=rng.randrange(flow.interval_ns))
    sender, receiver = net.tcp("S1", "S2", port=5000, cwnd_max_bytes=HYBRID_TCP_WINDOW)
    net.on(rng.randrange(NS_PER_MS), sender.start)
    return Experiment(
        "hybrid_wrr",
        net,
        HYBRID_WARMUP_NS,
        HYBRID_UNTIL_NS,
        tcp=[(sender, receiver)],
        hybrid=hybrid,
    )


def region_node(region: int, i: int) -> str:
    return f"R{region}N{i}"


def region_addr(region: int, i: int) -> str:
    return f"fc00:{region + 1}:{i + 1}::1"


def build_regions(seed: int, shards: int) -> Experiment:
    """Four rings of four nodes joined by 5 ms trunks, IGP with TI-LFA FRR,
    one flapping intra-region link, telemetry and tracing of two flows."""
    rng = random.Random(seed)
    net = Network(seed=seed)
    for region in range(REGIONS):
        for i in range(REGION_SIZE):
            net.add_node(region_node(region, i), addr=region_addr(region, i))
        for i in range(REGION_SIZE):
            net.add_link(
                region_node(region, i),
                region_node(region, (i + 1) % REGION_SIZE),
                rate_bps=1e9,
                delay_ns=INTRA_DELAY_NS,
            )
    for region in range(REGIONS - 1):
        net.add_link(
            region_node(region, 0),
            region_node(region + 1, 0),
            rate_bps=1e9,
            delay_ns=TRUNK_DELAY_NS,
        )
    net.ctrl(hello_interval_ns=HELLO_NS, frr=True)
    net.telemetry(interval_ms=2, sink=RingSink(capacity=None))
    sink_at = REGION_SIZE // 2
    for region in range(REGIONS):
        net.sink(region_node(region, sink_at))
    for region in range(REGIONS):
        local = net.trafgen(
            region_node(region, 0),
            dst=region_addr(region, sink_at),
            rate_bps=LOCAL_RATE_BPS,
            payload_size=600,
        )
        local.start(at_ns=rng.randrange(NS_PER_MS))
        cross = net.trafgen(
            region_node(region, 1),
            dst=region_addr((region + 1) % REGIONS, sink_at),
            rate_bps=CROSS_RATE_BPS,
            payload_size=600,
        )
        cross.start(at_ns=rng.randrange(NS_PER_MS))
    # Trace one local and one cross-region flow, drawn from the seed.  Hash
    # sampling would admit from one to all eight flows depending on the
    # seed, so the trace layer's share of the run would follow the seed.
    local, cross = net.flows[0::2], net.flows[1::2]
    net.trace(sample=0, flows=[rng.choice(local), rng.choice(cross)])
    flap_region = rng.randrange(REGIONS)
    flap_i = rng.randrange(REGION_SIZE)
    a = region_node(flap_region, flap_i)
    b = region_node(flap_region, (flap_i + 1) % REGION_SIZE)
    for start_ms in range(FLAP_PERIOD_MS // 2, REGIONS_UNTIL_NS // NS_PER_MS, FLAP_PERIOD_MS):
        net.fail_link(a, b, at_ns=start_ms * NS_PER_MS)
        net.recover_link(a, b, at_ns=(start_ms + FLAP_DOWN_MS) * NS_PER_MS)
    return Experiment("regions_ctrl", net, 0, REGIONS_UNTIL_NS, shards=shards)


def build(workload: str, seed: int, reference: bool = False) -> Experiment:
    """Build ``workload`` for ``seed``; ``reference`` picks the independent route."""
    if workload == "chain_endbpf":
        return build_chain(seed, reference)
    if workload == "hybrid_wrr":
        return build_hybrid(seed, reference)
    if workload == "regions_ctrl":
        return build_regions(seed, shards=2 if reference else 1)
    raise KeyError(f"unknown workload {workload!r}")


# -- outputs -----------------------------------------------------------------
def observe(exp: Experiment) -> dict:
    """Every simulated output the benchmark checks, as plain data.

    Closes the telemetry session (its final sample is part of the
    stream).  An unsharded telemetry stream is canonicalised through the
    shard merge, which only re-sorts same-tick records, so both engines
    produce comparable streams.
    """
    net = exp.net
    out: dict = {
        "now_ns": net.scheduler.now_ns,
        "meters": [
            [m.name, m.packets, m.payload_bytes, m.first_ns, m.last_ns, m.out_of_order,
             m.delay_count, m.delay_sum_ns, list(m.delays_ns)]
            for m in net.meters
        ],
        "flows": [[f.flow_id, f.stats.sent, f.stats.bytes_sent] for f in net.flows],
        "nodes": {name: asdict(node.counters) for name, node in sorted(net.nodes.items())},
        "links": [
            [asdict(link.a_to_b.stats), asdict(link.b_to_a.stats)] for link in net.links
        ],
        "qdiscs": {
            f"{node}/{dev}": asdict(q.stats) for (node, dev), q in sorted(net.qdiscs.items())
        },
        "cpus": {
            name: asdict(node.cpu.stats)
            for name, node in sorted(net.nodes.items())
            if node.cpu is not None
        },
        "tcp": [[asdict(s.stats), asdict(r.stats)] for s, r in exp.tcp],
    }
    if exp.hybrid is not None:
        out["wrr"] = [list(exp.hybrid.wrr_down.counters()), list(exp.hybrid.wrr_up.counters())]
    if net._ctrl is not None:
        out["bus"] = sorted([list(k), v] for k, v in net._ctrl.bus.counts.items())
    session = net._telemetry
    if session is not None:
        session.close()
        lines = session.sink.lines()
        if exp.shards == 1:
            from repro.shard.merge import classify_samples, merge_telemetry

            lines = merge_telemetry(
                [lines],
                baseline={},
                kinds=classify_samples(net.metrics.collect()),
                owner=lambda _name: 0,
            )
        out["telemetry"] = list(lines)
    if net._tracer is not None:
        out["trace"] = net._tracer.jsonl_lines()
    return out


def digest(observed: dict) -> str:
    blob = json.dumps(observed, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def check(exp: Experiment, observed: dict) -> list[str]:
    """Semantic checks on one run's outputs; returns the failures found.

    These hold for every seed and do not depend on a reference run.
    """
    problems = []
    net = exp.net
    if exp.delivered() <= 0:
        problems.append("no packets delivered")
    for name, node in net.nodes.items():
        for route_table in node.tables.values():
            for route in route_table.routes():
                stats = getattr(route.encap, "stats", None)
                if isinstance(stats, dict) and stats.get("errors"):
                    problems.append(f"{name}: eBPF program faults {stats['errors']}")
    if exp.name == "chain_endbpf":
        for flow, meter in zip(net.flows, net.meters):
            if meter.out_of_order:
                problems.append(f"{meter.name}: {meter.out_of_order} packets reordered")
            if meter.payload_bytes != 64 * meter.packets:
                problems.append(f"{meter.name}: payload is not 64 B per packet")
            # Whatever S1 sent is delivered or still in flight on two links.
            in_flight = flow.stats.sent - meter.packets
            if not 0 <= in_flight <= 4 * CHAIN_BURST:
                problems.append(
                    f"{meter.name}: sent {flow.stats.sent}, delivered {meter.packets}"
                )
        delivered = sum(meter.packets for meter in net.meters)
        if net["R"].counters.seg6local_processed < delivered:
            problems.append("chain delivered packets that skipped End.BPF")
    elif exp.name == "hybrid_wrr":
        _c0, _c1, down0, down1 = exp.hybrid.wrr_down.counters()
        if not down0 or not down1 or abs(down0 / down1 - 5 / 3) > 0.1:
            problems.append(f"WRR split {down0}:{down1} is not 5:3")
        sender, _receiver = exp.tcp[0]
        if sender.stats.acked_bytes <= 0:
            problems.append("TCP made no progress")
    else:
        tracer = net._tracer
        if not tracer.records:
            problems.append("no traces finalised")
        for rec in tracer.records:
            if sum(rec["attribution"].values()) != rec["delay_ns"]:
                problems.append(f"trace {rec['id']} attribution does not sum to its delay")
                break
        if not any(kind == "frr-fired" for kind, _node in net._ctrl.bus.counts):
            problems.append("the flapping link never fired FRR")
    return problems
