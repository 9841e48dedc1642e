"""Node datapath: receive → route → lightweight tunnels → transmit.

A :class:`Node` models one Linux box (host or router): devices, numbered
routing tables, local addresses, and the IPv6 forwarding pipeline with
its lwtunnel attachment points:

* input: a matched route carrying a :class:`~repro.net.seg6local.Seg6LocalAction`
  consumes the packet (this is how local segments — including ``End.BPF``
  ones — are installed, §3); a ``BpfLwt`` runs its ``lwt_in`` program;
* output: a matched route carrying a :class:`~repro.net.seg6.Seg6Encap`
  pushes an SRH; a ``BpfLwt`` runs ``lwt_out``/``lwt_xmit`` (this is
  where the paper's DM sampler and WRR scheduler live, §4.1–4.2);
* hop-limit expiry generates ICMPv6 Time Exceeded (what legacy
  traceroute relies on, §4.3).

The datapath is **batch-native**: the unit of work is a list of packets
(the NAPI-poll analogue), and the scalar entry points are the N=1 case.
Each packet is carried through an explicit staged pipeline —

    lookup → seg6local → lwt-in → local delivery → decrement →
    seg6 encap → lwt-out/xmit → transmit

— by a per-packet :class:`DispatchContext`.  Packets whose headers were
rewritten by a tunnel re-enter the routing decision (re-circulation),
with a budget against misconfiguration loops.  Route lookups are
memoised in a per-node :class:`FlowTable`, SRH advances in a memo keyed
on the raw SRH bytes, and eBPF invocations reuse cached
:class:`~repro.ebpf.jit.CompiledHandler` address spaces — so the cost of
per-packet setup is paid once per flow, not once per packet.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Callable

from ..ebpf.jit import _JIT_V2_STATS
from .addr import as_addr, ntop, parse_prefix
from .fib import MAIN_TABLE, FibTable, Nexthop, Route
from .icmpv6 import Icmpv6Message, dest_unreachable, echo_reply, time_exceeded
from .ipv6 import IPV6_HEADER_LEN, PROTO_ICMPV6, PROTO_TCP, PROTO_UDP
from .lwt_bpf import BpfLwt
from .netdev import NetDev
from .packet import Packet, make_icmpv6_packet
from .seg6 import Seg6Encap
from .seg6local import _FORWARD, Disposition, EndBPF, Seg6LocalAction

_RECIRCULATION_BUDGET = 8

# Stage outcomes.  Each pipeline stage returns one of these: fall through
# to the next stage, re-enter the routing decision (the packet's headers
# or routing state changed), or stop (delivered, dropped, transmitted).
_NEXT = object()
_RECIRC = object()
_CONSUMED = object()


@dataclass
class NodeCounters:
    """Per-node datapath counters (the ``ip -s`` / nstat view)."""
    rx: int = 0
    tx: int = 0
    forwarded: int = 0
    delivered_local: int = 0
    dropped: int = 0
    no_route: int = 0
    hop_limit_exceeded: int = 0
    seg6local_processed: int = 0
    bpf_dropped: int = 0


@dataclass
class Listener:
    """A bound 'socket': called with (packet, node) on local delivery."""

    callback: Callable[[Packet, "Node"], None]
    proto: int
    port: int | None = None


@dataclass(slots=True)
class DispatchContext:
    """Per-packet pipeline state, threaded through the dispatch stages.

    Replaces the positional ``(table_id, nh6, burst)`` threading of the
    old dual-path dispatcher: every stage reads and writes one small
    mutable record, so adding a stage (or a field a stage needs) touches
    one place.  ``dev`` records the ingress
    :class:`~repro.net.netdev.NetDev` (None for locally originated
    packets) for stages that attribute behaviour per device; the
    ``ip -s link`` rx accounting itself happens once at batch entry
    (:meth:`Node.receive_batch`), not per stage.
    """

    pkt: Packet
    decrement: bool
    dev: NetDev | None = None
    table_id: int | None = None
    nh6: bytes | None = None
    route: Route | None = None
    lookup_dst: bytes | None = None
    decremented: bool = False

    def rebind(self, pkt: Packet) -> "DispatchContext":
        """Reset to pristine per-packet state for the next packet.

        Batch loops reuse one context object per batch instead of
        allocating one per packet; a context never outlives its packet's
        trip through the pipeline, so rebinding is safe.
        """
        self.pkt = pkt
        self.table_id = None
        self.nh6 = None
        self.route = None
        self.lookup_dst = None
        self.decremented = False
        return self


class FlowTable:
    """A small bounded memo of per-destination route resolution.

    The datapath's equivalent of a kernel flow cache: the first packet
    of a flow pays the longest-prefix-match walk (and, through the
    route's encap, the seg6local action resolution); subsequent packets
    hit here.  Entries pin the owning :class:`~repro.net.fib.FibTable`
    generation at resolution time, so any route add/remove invalidates
    them on the next access.  Eviction is oldest-insertion-first (FIFO):
    on the hot path that costs one plain-dict probe per lookup, where
    strict LRU would pay a reordering write per hit — and at flow-cache
    capacities (32k) the hit rates are indistinguishable.
    """

    def __init__(self, capacity: int = 32768):
        self.capacity = capacity
        self.entries: "dict[tuple[int, bytes], tuple]" = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self.entries)

    def clear(self) -> None:
        """Drop every memoised resolution."""
        self.entries.clear()


class Node:
    """One simulated Linux host/router."""

    def __init__(
        self,
        name: str,
        clock_ns: Callable[[], int] | None = None,
        seed: int | None = None,
    ):
        self.name = name
        self.clock_ns = clock_ns or (lambda: 0)
        # The default seed derives from the name with crc32, NOT hash():
        # str hashing is salted per process (PYTHONHASHSEED), which would
        # make eBPF get_prandom_u32 streams differ between runs of the
        # same scenario.  repro.lab overrides this with a seed derived
        # from the experiment seed.
        self.rng = random.Random(
            seed if seed is not None else zlib.crc32(name.encode()) & 0xFFFF
        )
        # Salt XOR-ed into the 5-tuple hash before ECMP nexthop selection
        # (the analogue of the kernel's boot-time flow-hash seed).  Zero
        # by default; repro.lab derives it from the experiment seed.
        self.ecmp_seed = 0
        self.devices: dict[str, NetDev] = {}
        self.tables: dict[int, FibTable] = {MAIN_TABLE: FibTable(MAIN_TABLE)}
        self.addresses: list[bytes] = []
        self.listeners: list[Listener] = []
        self.counters = NodeCounters()
        self.cpu = None  # optional repro.sim.cpu.CpuQueue for DES experiments
        self.shard = None  # explicit shard pin honoured by repro.shard.partition
        self.tracer = None  # repro.trace.Tracer; finalises traces at delivery
        self.log_messages: list[str] = []
        self.answer_echo = True
        self.flow_table = FlowTable()  # route-resolution memo
        # Per-device egress accumulator (keyed by device name), active while
        # a batch is being dispatched; flushed through NetDev.transmit_batch
        # at batch end.  Nested dispatches (ICMP errors, echo replies)
        # append to the already-active batch, preserving per-device order.
        self._egress_batch: dict[str, list[Packet]] | None = None
        # The staged pipeline walk, in order.  Stages are mutually
        # exclusive on the route's encap type except decrement, which
        # applies to every forwarded packet exactly once.  The seg6local
        # stage is not walked: _run_pipeline dispatches it directly, since
        # a seg6local route always consumes or recirculates the packet.
        self._stages = (
            self._stage_lwt_in,
            self._stage_local,
            self._stage_decrement,
            self._stage_seg6_encap,
            self._stage_lwt_out,
            self._stage_transmit,
        )

    # -- configuration ------------------------------------------------------
    def add_device(self, name: str) -> NetDev:
        """Create and attach a named device (``ip link add``)."""
        if name in self.devices:
            raise ValueError(f"{self.name}: device {name!r} already exists")
        dev = NetDev(name=name, node=self)
        self.devices[name] = dev
        return dev

    def add_address(self, addr: bytes | str) -> None:
        """Assign a local address and install its /128 local route."""
        addr = as_addr(addr)
        if addr not in self.addresses:
            self.addresses.append(addr)
        self.table().add(Route(prefix=addr, prefixlen=128, local=True))

    def primary_address(self) -> bytes:
        """The first assigned address (used as tunnel/ICMP source)."""
        if not self.addresses:
            return bytes(16)
        return self.addresses[0]

    def table(self, table_id: int = MAIN_TABLE) -> FibTable:
        """The routing table for ``table_id``, created on first use."""
        if table_id not in self.tables:
            self.tables[table_id] = FibTable(table_id)
        return self.tables[table_id]

    def main_table(self) -> FibTable:
        """The main routing table (254, as in Linux)."""
        return self.tables[MAIN_TABLE]

    def add_route(
        self,
        prefix: str,
        nexthops: list[Nexthop] | None = None,
        via: bytes | str | None = None,
        dev: str | None = None,
        encap: object | None = None,
        local: bool = False,
        table_id: int = MAIN_TABLE,
    ) -> Route:
        """Install a route; mirrors ``ip -6 route add``.

        Either pass explicit ``nexthops`` (ECMP) or a single ``via``/``dev``
        pair.  ``encap`` attaches a lightweight tunnel (Seg6Encap,
        Seg6LocalAction subclass, or BpfLwt).
        """
        network, prefixlen = parse_prefix(prefix)
        if nexthops is None:
            nexthops = []
            if via is not None or dev is not None:
                nexthops.append(Nexthop(via=via, dev=dev))
        route = Route(
            prefix=network,
            prefixlen=prefixlen,
            nexthops=nexthops,
            encap=encap,
            local=local,
        )
        return self.table(table_id).add(route)

    def bind(
        self,
        callback: Callable[[Packet, "Node"], None],
        proto: int = PROTO_UDP,
        port: int | None = None,
    ) -> Listener:
        """Attach a 'socket': ``callback(pkt, node)`` on matching local delivery."""
        listener = Listener(callback, proto, port)
        self.listeners.append(listener)
        return listener

    def log(self, message: str) -> None:
        """Append to the node's kernel-log-like message buffer."""
        self.log_messages.append(message)

    # -- datapath entry points ---------------------------------------------------
    def receive(self, pkt: Packet, dev: NetDev | None = None) -> None:
        """A packet arrived from the wire on ``dev`` (batch of one)."""
        self.receive_batch([pkt], dev)

    def send(self, pkt: Packet) -> None:
        """Transmit a locally originated packet (batch of one)."""
        self.send_batch([pkt])

    def receive_batch(self, pkts: list[Packet], dev: NetDev | None = None) -> None:
        """Batch ingress: the NAPI-poll entry point, and the only one.

        Per-packet semantics are those of N arrivals in order; egress is
        accumulated per device and flushed once at batch end, so links
        see whole batches while per-device wire order stays exactly the
        order of the input.  ``dev`` identifies the ingress device: its
        ``ip -s link`` rx counters are bumped and each packet is stamped
        with ``input_dev``.  With a CPU cost model attached, the whole
        batch is submitted to the queue (per-packet costs, one
        completion — the interrupt-coalescing analogue).
        """
        clock = self.clock_ns
        counters = self.counters
        if dev is not None:
            name = dev.name
            rx_bytes = 0
            for pkt in pkts:
                rx_bytes += len(pkt)
                pkt.input_dev = name
                t = clock()
                pkt.rx_tstamp_ns = t
                if pkt.tctx is not None:
                    pkt.tctx.append((t, t, "rx", self.name, name))
            stats = dev.stats
            stats.rx_packets += len(pkts)
            stats.rx_bytes += rx_bytes
        else:
            for pkt in pkts:
                t = clock()
                pkt.rx_tstamp_ns = t
                if pkt.tctx is not None:
                    pkt.tctx.append((t, t, "rx", self.name, ""))
        counters.rx += len(pkts)
        if self.cpu is not None:
            self.cpu.submit_batch(pkts, lambda batch: self._input_batch(batch, dev))
            return
        self._input_batch(pkts, dev)

    def send_batch(self, pkts: list[Packet]) -> None:
        """Batch egress for locally originated packets (generators, daemons)."""
        outer = self._egress_batch
        if outer is None:
            self._egress_batch = {}
        ctx = DispatchContext(None, decrement=False)
        run = self._run_pipeline
        try:
            for pkt in pkts:
                run(ctx.rebind(pkt))
        finally:
            if outer is None:
                self._flush_egress()

    # -- internals --------------------------------------------------------------
    def _input_batch(self, pkts: list[Packet], dev: NetDev | None = None) -> None:
        outer = self._egress_batch
        if outer is None:
            self._egress_batch = {}
        counters = self.counters
        run = self._run_pipeline
        lookup = self._lookup_route
        ctx = DispatchContext(None, decrement=True, dev=dev)
        n = len(pkts)
        i = 0
        try:
            while i < n:
                pkt = pkts[i]
                if len(pkt.data) < IPV6_HEADER_LEN:
                    counters.dropped += 1
                    i += 1
                    continue
                dst = pkt.dst
                route = lookup(MAIN_TABLE, dst)
                if route is None:
                    counters.no_route += 1
                    counters.dropped += 1
                    i += 1
                    continue
                if i + 1 < n and type(route.encap) is EndBPF:
                    # Batch-resident End.BPF: scan the run of consecutive
                    # packets with this same destination — the lookup is
                    # deterministic per (table generation, dst), and no
                    # program runs between the probes, so byte-equal
                    # destinations resolve to this same route.
                    j = i + 1
                    while j < n and pkts[j].data[24:40] == dst:
                        j += 1
                    if j - i >= 2:
                        i = self._run_group(pkts, i, j, route, ctx)
                        continue
                ctx.rebind(pkt)
                ctx.lookup_dst = dst
                run(ctx, route=route)
                i += 1
        finally:
            if outer is None:
                self._flush_egress()

    def _run_group(
        self, pkts: list[Packet], start: int, end: int, route: Route, ctx: DispatchContext
    ) -> int:
        """Run ``pkts[start:end]`` — one End.BPF route — batch-resident.

        The group shares one armed :class:`~repro.ebpf.jit.CompiledHandler`
        (per-packet re-arm is the light resident variant) but keeps exact
        scalar semantics: each packet runs the whole staged pipeline —
        disposition and continuation — *before* the next packet executes,
        so side effects (map state, perf events, locally generated ICMP,
        listener callbacks) interleave in arrival order.

        Because an eBPF program or its continuation may mutate the FIB,
        after each packet the main table's generation is compared to its
        value at group formation; a mismatch flushes the group, and the
        caller re-resolves the remaining packets against the new FIB.
        Returns the index of the first unprocessed packet.
        """
        table = self.tables[MAIN_TABLE]
        generation = table.generation
        handler = route.encap.group_handler()
        run = self._run_pipeline
        _JIT_V2_STATS["bpf_groups"] += 1
        i = start
        while i < end:
            run(ctx.rebind(pkts[i]), route, handler)
            i += 1
            if table.generation != generation:
                _JIT_V2_STATS["bpf_group_flushes"] += 1
                break
        _JIT_V2_STATS["bpf_grouped_packets"] += i - start
        return i

    def _flush_egress(self) -> None:
        """Hand each device its accumulated batch (order preserved per device)."""
        batch = self._egress_batch
        self._egress_batch = None
        if batch:
            for dev_name, out in batch.items():
                self.devices[dev_name].transmit_batch(out)

    def _lookup_route(self, table_id: int, dst: bytes) -> "Route | None":
        """Flow-table-memoised route lookup.

        Misses fall through to the FIB's longest-prefix match; hits are
        revalidated against the table generation so route changes take
        effect immediately.
        """
        table = self.tables.get(table_id)
        if table is None:
            table = self.table(table_id)
        flow_table = self.flow_table
        entries = flow_table.entries
        key = (table_id, dst)
        hit = entries.get(key)
        if hit is not None and hit[1] == table.generation:
            flow_table.hits += 1
            return hit[0]
        flow_table.misses += 1
        route = table.lookup(dst)
        entries[key] = (route, table.generation)
        if len(entries) > flow_table.capacity:
            # FIFO eviction: dicts iterate in insertion order, so the
            # first key is the oldest resolution.
            del entries[next(iter(entries))]
        return route

    # -- the staged pipeline -----------------------------------------------------
    def _run_pipeline(
        self,
        ctx: DispatchContext,
        route: "Route | None" = None,
        handler=None,
    ) -> None:
        """Carry one packet through the stages until it leaves or dies.

        ``route`` pre-resolves the first iteration's lookup (batch entry
        points resolve it while probing for batch-resident groups);
        ``handler`` is the armed handler of a batch-resident group, which
        the seg6local stage of that first iteration runs the End.BPF
        program in.
        """
        lookup = self._lookup_route
        counters = self.counters
        pkt = ctx.pkt
        prefetched = route
        for _ in range(_RECIRCULATION_BUDGET):
            route = prefetched
            prefetched = None
            if route is None:
                nh6 = ctx.nh6
                ctx.lookup_dst = nh6 if nh6 is not None else pkt.dst
                route = lookup(ctx.table_id or MAIN_TABLE, ctx.lookup_dst)
                if route is None:
                    counters.no_route += 1
                    counters.dropped += 1
                    return
            ctx.route = route
            tctx = pkt.tctx
            if tctx is not None:
                t = self.clock_ns()
                tctx.append((t, t, "stage:lookup", self.name, ""))
            if route.encap is None and not route.local:
                # Plain forward — the dominant iteration.  Only the
                # decrement and transmit stages apply, so call them
                # directly instead of polling the encap stages with a
                # None encap.
                if self._stage_decrement(ctx) is _NEXT:
                    self._stage_transmit(ctx)
                return
            if isinstance(route.encap, Seg6LocalAction):
                # seg6local consumes or recirculates, never falls through;
                # the driver dispatches it directly (it is not part of the
                # stage walk below).
                if self._stage_seg6local(ctx, handler) is _CONSUMED:
                    return
                handler = None
                continue
            outcome = _NEXT
            for stage in self._stages:
                outcome = stage(ctx)
                if outcome is not _NEXT:
                    break
            if outcome is _CONSUMED:
                return
            # _RECIRC: a tunnel rewrote headers or routing state; the
            # packet re-enters the routing decision.
        self.log("re-circulation budget exceeded; dropping")
        self.counters.dropped += 1

    def _stage_seg6local(self, ctx: DispatchContext, handler=None):
        """A matched seg6local route consumes the packet with its action (§3).

        With a group ``handler`` the End.BPF action runs batch-resident.
        """
        encap = ctx.route.encap
        pkt = ctx.pkt
        tctx = pkt.tctx
        if tctx is not None:
            t = self.clock_ns()
            tctx.append((t, t, "stage:seg6local", self.name, encap.kind))
        self.counters.seg6local_processed += 1
        encap.processed += 1
        if handler is None:
            disposition = encap.process(pkt, self)
        else:
            disposition = encap.process_resident(pkt, self, handler)
        if disposition is _FORWARD:
            ctx.table_id = ctx.nh6 = None
            return _RECIRC
        outcome = self._apply_disposition(disposition, pkt)
        if outcome is None:
            return _CONSUMED
        ctx.table_id, ctx.nh6 = outcome
        return _RECIRC

    def _stage_lwt_in(self, ctx: DispatchContext):
        """Run a route-attached ``lwt_in`` program on the input side (§2.1)."""
        encap = ctx.route.encap
        if (
            not isinstance(encap, BpfLwt)
            or encap.prog_in is None
            or ctx.decremented
        ):
            return _NEXT
        tctx = ctx.pkt.tctx
        if tctx is not None:
            t = self.clock_ns()
            tctx.append((t, t, "stage:lwt_in", self.name, ""))
        disposition = encap.run_hook("lwt_in", ctx.pkt, self)
        outcome = self._apply_disposition(disposition, ctx.pkt)
        if outcome is None:
            return _CONSUMED
        ctx.table_id, ctx.nh6 = outcome
        if (
            ctx.table_id is not None
            or ctx.nh6 is not None
            or ctx.pkt.dst != ctx.lookup_dst
        ):
            return _RECIRC
        return _NEXT

    def _stage_local(self, ctx: DispatchContext):
        """Deliver packets matching a local route to bound listeners."""
        if not ctx.route.local:
            return _NEXT
        self._deliver_local(ctx.pkt)
        return _CONSUMED

    def _stage_decrement(self, ctx: DispatchContext):
        """Hop-limit decrement, once per forwarded packet; expiry → ICMPv6."""
        if not ctx.decrement or ctx.decremented:
            return _NEXT
        ctx.decremented = True
        if ctx.pkt.decrement_hop_limit() == 0:
            self.counters.hop_limit_exceeded += 1
            self._send_time_exceeded(ctx.pkt)
            return _CONSUMED
        self.counters.forwarded += 1
        return _NEXT

    def _stage_seg6_encap(self, ctx: DispatchContext):
        """A transit seg6 route pushes an SRH / outer header (§2)."""
        encap = ctx.route.encap
        if not isinstance(encap, Seg6Encap):
            return _NEXT
        pkt = ctx.pkt
        tctx = pkt.tctx
        if tctx is not None:
            t = self.clock_ns()
            tctx.append((t, t, "stage:encap", self.name, ""))
        pkt.data = bytearray(encap.apply(bytes(pkt.data), self.primary_address()))
        ctx.table_id = ctx.nh6 = None
        return _RECIRC

    def _stage_lwt_out(self, ctx: DispatchContext):
        """Run route-attached ``lwt_out``/``lwt_xmit`` programs (§2.1)."""
        encap = ctx.route.encap
        if not isinstance(encap, BpfLwt) or not encap.has_output_stage():
            return _NEXT
        pkt = ctx.pkt
        tctx = pkt.tctx
        if tctx is not None:
            t = self.clock_ns()
            tctx.append((t, t, "stage:lwt_out", self.name, ""))
        old_dst = pkt.dst
        for hook in ("lwt_out", "lwt_xmit"):
            disposition = encap.run_hook(hook, pkt, self)
            outcome = self._apply_disposition(disposition, pkt)
            if outcome is None:
                return _CONSUMED
            ctx.table_id, ctx.nh6 = outcome
        if ctx.table_id is not None or ctx.nh6 is not None or pkt.dst != old_dst:
            return _RECIRC
        return _NEXT

    def _stage_transmit(self, ctx: DispatchContext):
        """Select a nexthop and park the packet on its device's egress batch."""
        route, pkt = ctx.route, ctx.pkt
        nexthops = route.nexthops
        if len(nexthops) == 1:
            # ECMP selection is the 5-tuple hash's only consumer, so a
            # single-nexthop route skips the L4 walk entirely.
            nexthop = nexthops[0]
        else:
            nexthop = route.select_nexthop(pkt.flow_hash() ^ self.ecmp_seed)
        if nexthop is None or nexthop.dev not in self.devices:
            self.counters.dropped += 1
            return _CONSUMED
        pkt.trace.append(self.name)
        tctx = pkt.tctx
        if tctx is not None:
            t = self.clock_ns()
            tctx.append((t, t, "stage:transmit", self.name, nexthop.dev))
        self.counters.tx += 1
        batch = self._egress_batch
        out = batch.get(nexthop.dev)
        if out is None:
            batch[nexthop.dev] = out = []
        out.append(pkt)
        return _CONSUMED

    def _apply_disposition(
        self, disposition: Disposition, pkt: Packet
    ) -> tuple[int | None, bytes | None] | None:
        """None = packet consumed; otherwise (table_id, nh6) to re-route."""
        if disposition.action == "drop":
            self.counters.dropped += 1
            self.counters.bpf_dropped += disposition.bpf
            return None
        if disposition.action == "local":
            self._deliver_local(pkt)
            return None
        return disposition.table_id, disposition.nh6

    # -- local delivery -------------------------------------------------------------
    def _deliver_local(self, pkt: Packet) -> None:
        if pkt.tctx is not None and self.tracer is not None:
            self.tracer.finish(pkt, self)
        self.counters.delivered_local += 1
        l4 = pkt.l4()
        if l4 is None:
            return
        proto, _sport, dport = l4
        if proto == PROTO_ICMPV6 and self._handle_icmp(pkt):
            return
        matched = False
        for listener in self.listeners:
            if listener.proto != proto:
                continue
            if listener.port is not None and proto in (PROTO_UDP, PROTO_TCP):
                if listener.port != dport:
                    continue
            matched = True
            listener.callback(pkt, self)
        if not matched and proto == PROTO_UDP and self.addresses:
            # No socket bound: ICMPv6 Destination Unreachable (port), which
            # is how traceroute detects that its probe reached the target.
            error = make_icmpv6_packet(
                src=self.primary_address(),
                dst=pkt.src,
                message=dest_unreachable(bytes(pkt.data), code=4),
            )
            self.send(error)

    def _handle_icmp(self, pkt: Packet) -> bool:
        """Answer Echo Requests; other ICMP goes to listeners."""
        info = pkt._l4_offset()
        if info is None:
            return False
        _proto, offset = info
        try:
            message = Icmpv6Message.parse(bytes(pkt.data), offset)
        except ValueError:
            return False
        if message.msg_type == 128 and self.answer_echo:
            reply = make_icmpv6_packet(
                src=pkt.dst if pkt.dst in self.addresses else self.primary_address(),
                dst=pkt.src,
                message=echo_reply(message),
            )
            self.send(reply)
            return True
        return False

    def _send_time_exceeded(self, pkt: Packet) -> None:
        if not self.addresses:
            self.counters.dropped += 1
            return
        error = make_icmpv6_packet(
            src=self.primary_address(),
            dst=pkt.src,
            message=time_exceeded(bytes(pkt.data)),
        )
        self.send(error)

    # -- convenience ---------------------------------------------------------------
    def __repr__(self) -> str:
        return f"<Node {self.name} devs={list(self.devices)} addrs={[ntop(a) for a in self.addresses]}>"
