"""``seg6local`` lightweight tunnel: SRv6 endpoint behaviours, incl. End.BPF.

This module reproduces the paper's core contribution (§3).  A seg6local
route binds a local segment (an IPv6 prefix) to an action; packets routed
to that segment are consumed by the action instead of being forwarded.

Static actions (already in Linux before the paper): End, End.X, End.T,
End.DX6, End.DT6, End.B6, End.B6.Encaps.

**End.BPF** (the paper's addition, released in Linux 4.18) accepts SRv6
packets whose active segment is local, *advances the SRH to the next
segment*, and then executes the attached eBPF program.  The program's
return value selects the subsequent processing:

* ``BPF_OK`` — regular FIB lookup on the (new) destination;
* ``BPF_DROP`` — drop;
* ``BPF_REDIRECT`` — skip the default lookup and use the destination the
  seg6 action helper already resolved.

If the program altered the SRH through the helpers, the header is
re-validated before the packet continues; an inconsistent SRH is dropped
(§3.1).

Processing is batch-native: every advancing action's ``process`` runs
the shared memoised End prologue (the SRH-advance verdict is keyed on
the raw SRH bytes), and ``End.BPF`` invokes its program through the
cached per-(program, attach point)
:class:`~repro.ebpf.jit.CompiledHandler` — so a batch of packets from
the same flow pays SRH parsing and eBPF context assembly once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ebpf import BPF_DROP, BPF_OK, BPF_REDIRECT, Program
from ..ebpf.errors import BpfError, VmFault
from ..ebpf import jit as _jit
from ..ebpf.jit import _HANDLER_CACHE_STATS, compiled_handler
from .addr import as_addr
from .ipv6 import IPV6_HEADER_LEN, PROTO_ROUTING
from .packet import Packet
from .seg6 import decap_outer, push_outer_encap, push_srh_inline
from .srh import SRH, SRH_FIXED_LEN, make_srh, srh_wire_span, validate_srh_bytes

# Action numbers from include/uapi/linux/seg6_local.h; these are also the
# values bpf_lwt_seg6_action() accepts.
SEG6_LOCAL_ACTION_END = 1
SEG6_LOCAL_ACTION_END_X = 2
SEG6_LOCAL_ACTION_END_T = 3
SEG6_LOCAL_ACTION_END_DX6 = 5
SEG6_LOCAL_ACTION_END_DT6 = 7
SEG6_LOCAL_ACTION_END_B6 = 9
SEG6_LOCAL_ACTION_END_B6_ENCAP = 10


@dataclass
class Disposition:
    """What the node should do with the packet after an action ran.

    ``bpf`` marks drops decided by an attached eBPF program's execution
    (an explicit ``BPF_DROP`` verdict, a program fault, or a
    program-corrupted SRH) — the node's ``bpf_dropped`` counter counts
    exactly these, independent of the human-readable ``reason`` text.
    """

    action: str  # "forward" | "drop" | "local"
    table_id: int | None = None
    nh6: bytes | None = None
    reason: str = ""
    bpf: bool = False

    @classmethod
    def forward(cls, table_id=None, nh6=None) -> "Disposition":
        """Continue routing, optionally in ``table_id`` or toward ``nh6``."""
        return cls("forward", table_id=table_id, nh6=nh6)

    @classmethod
    def drop(cls, reason: str, bpf: bool = False) -> "Disposition":
        """Consume the packet; ``reason`` lands in logs/tests.

        Pass ``bpf=True`` when the drop is a BPF program's doing, so the
        datapath can count it without parsing the reason string.
        """
        return cls("drop", reason=reason, bpf=bpf)


# Shared instance for the overwhelmingly common verdict.  Dispositions are
# read-only to the datapath, so the hot paths return this instead of
# allocating a fresh "plain forward" per packet.
_FORWARD = Disposition("forward")


# --- memoised SRv6 "End" prologue ---------------------------------------------
#
# Every advancing endpoint action starts with the same prologue: parse the
# SRH, check segments_left, decrement it and rewrite the IPv6 destination to
# the new active segment.  Across a batch the SRH bytes repeat per flow, so
# the *verdict* of that prologue — a failure sentinel, or (new
# segments_left, new active segment) — is memoised on the raw SRH slice.
# Keying on the exact bytes makes the memo trivially faithful: two packets
# with identical SRH bytes get identical verdicts from SRH.parse by
# definition.  The sentinels let each action class keep its own drop reason
# ("no SRH" vs "End.BPF: no SRH").

_V_NO_SRH = ("no_srh",)
_V_SL_ZERO = ("sl_zero",)

_ADVANCE_MEMO: dict[bytes, tuple] = {}
_ADVANCE_MEMO_CAP = 32768  # ~72 B/key for a 2-segment SRH: a few MB at worst

_DROP_NO_SRH = "End.BPF: no SRH"
_DROP_SL_ZERO = "End.BPF: segments_left == 0"


def _advance_verdict(data: bytearray) -> tuple:
    """Memoised End prologue: a sentinel or (new_sl, new_active_segment)."""
    if data[6] != PROTO_ROUTING or len(data) < IPV6_HEADER_LEN + SRH_FIXED_LEN:
        return _V_NO_SRH
    total = (data[IPV6_HEADER_LEN + 1] + 1) * 8
    key = bytes(data[IPV6_HEADER_LEN : IPV6_HEADER_LEN + total])
    verdict = _ADVANCE_MEMO.get(key)
    if verdict is None:
        if len(key) < total:
            verdict = _V_NO_SRH  # SRH length exceeds the packet
        else:
            try:
                srh = SRH.parse(key, 0)
            except ValueError:
                verdict = _V_NO_SRH
            else:
                if srh.segments_left == 0:
                    verdict = _V_SL_ZERO
                else:
                    new_sl = srh.segments_left - 1
                    verdict = (new_sl, srh.segments[new_sl])
        if len(_ADVANCE_MEMO) >= _ADVANCE_MEMO_CAP:
            _ADVANCE_MEMO.clear()
        _ADVANCE_MEMO[key] = verdict
    return verdict


_VALIDATE_MEMO: dict[bytes, str | None] = {}
_MISSING = object()


def _validate_verdict(key: bytes) -> str | None:
    """Memoised §3.1 post-run SRH validation: None, or the drop reason.

    Validation is a pure function of the raw SRH bytes, so across a
    batch the (typically per-flow-identical) modified SRH pays the full
    parse-and-TLV-walk once.
    """
    verdict = _VALIDATE_MEMO.get(key, _MISSING)
    if verdict is _MISSING:
        try:
            validate_srh_bytes(key)
        except ValueError as exc:
            verdict = str(exc)
        else:
            verdict = None
        if len(_VALIDATE_MEMO) >= _ADVANCE_MEMO_CAP:
            _VALIDATE_MEMO.clear()
        _VALIDATE_MEMO[key] = verdict
    return verdict


def clear_advance_memo() -> None:
    """Drop the SRH memos (benchmark baselines, memory pressure)."""
    _ADVANCE_MEMO.clear()
    _VALIDATE_MEMO.clear()


class Seg6LocalAction:
    """Base class: validates the SRH and advances to the next segment."""

    kind = "End"
    needs_srh = True
    # Packets handed to this action instance (the per-SID telemetry
    # counter); bumped by the node after dispatch, not on the hot path
    # of process() itself.  Class default keeps dataclass subclasses'
    # generated __init__ signatures unchanged.
    processed = 0

    def process(self, pkt: Packet, node) -> Disposition:
        """Validate the SRH, advance to the next segment, forward (plain End, §2).

        The advance verdict is memoised on the raw SRH bytes (see
        :func:`_advance_verdict`); the destination rewrite happens in
        place on the packet buffer.
        """
        verdict = _advance_verdict(pkt.data)
        if verdict is _V_NO_SRH:
            return Disposition.drop("no SRH")
        if verdict is _V_SL_ZERO:
            return Disposition.drop("segments_left == 0")
        new_sl, new_active = verdict
        pkt.data[IPV6_HEADER_LEN + 3] = new_sl
        pkt.data[24:40] = new_active
        return _FORWARD

    def process_batch(self, pkts: list[Packet], node) -> list[Disposition]:
        """Process a packet batch; one disposition per packet, in order."""
        process = self.process
        return [process(pkt, node) for pkt in pkts]


@dataclass
class End(Seg6LocalAction):
    """Plain endpoint: advance and forward along the next segment."""

    kind = "End"


@dataclass
class EndX(Seg6LocalAction):
    """Advance, then forward to a specific layer-3 nexthop."""

    nh6: bytes
    kind = "End.X"

    def __post_init__(self) -> None:
        self.nh6 = as_addr(self.nh6)

    def process(self, pkt: Packet, node) -> Disposition:
        """Advance, then pin the layer-3 nexthop (End.X, §2)."""
        base = super().process(pkt, node)
        if base.action != "forward":
            return base
        return Disposition.forward(nh6=self.nh6)


@dataclass
class EndT(Seg6LocalAction):
    """Advance, then look up the next segment in a specific table."""

    table_id: int
    kind = "End.T"

    def process(self, pkt: Packet, node) -> Disposition:
        """Advance, then route in the configured table (End.T, §2)."""
        base = super().process(pkt, node)
        if base.action != "forward":
            return base
        return Disposition.forward(table_id=self.table_id)


@dataclass
class EndDT6(Seg6LocalAction):
    """Decapsulate and look the inner packet up in a table (last segment)."""

    table_id: int
    kind = "End.DT6"

    def process(self, pkt: Packet, node) -> Disposition:
        """Decapsulate at the last segment and route the inner packet in a table (§2)."""
        srh_info = pkt.srh()
        if srh_info is not None and srh_info[0].segments_left != 0:
            return Disposition.drop("End.DT6 requires segments_left == 0")
        try:
            pkt.data = bytearray(decap_outer(bytes(pkt.data)))
        except ValueError as exc:
            return Disposition.drop(f"decap failed: {exc}")
        return Disposition.forward(table_id=self.table_id)


@dataclass
class EndDX6(Seg6LocalAction):
    """Decapsulate and forward the inner packet to a fixed nexthop."""

    nh6: bytes
    kind = "End.DX6"

    def __post_init__(self) -> None:
        self.nh6 = as_addr(self.nh6)

    def process(self, pkt: Packet, node) -> Disposition:
        """Decapsulate at the last segment and pin the inner packet's nexthop (§2)."""
        srh_info = pkt.srh()
        if srh_info is not None and srh_info[0].segments_left != 0:
            return Disposition.drop("End.DX6 requires segments_left == 0")
        try:
            pkt.data = bytearray(decap_outer(bytes(pkt.data)))
        except ValueError as exc:
            return Disposition.drop(f"decap failed: {exc}")
        return Disposition.forward(nh6=self.nh6)


@dataclass
class EndB6(Seg6LocalAction):
    """Apply an SRv6 policy: insert an additional SRH (no advance)."""

    segments: list[bytes]
    kind = "End.B6"

    def __post_init__(self) -> None:
        self.segments = [as_addr(seg) for seg in self.segments]

    def process(self, pkt: Packet, node) -> Disposition:
        """Insert an additional SRH carrying the policy's segments (End.B6, §2)."""
        header_dst = pkt.dst
        path = list(self.segments) + [header_dst]
        from .ipv6 import IPv6Header

        inner_nh = IPv6Header.parse(bytes(pkt.data)).next_header
        srh = make_srh(path, next_header=inner_nh)
        pkt.data = bytearray(push_srh_inline(bytes(pkt.data), srh))
        return Disposition.forward()


@dataclass
class EndB6Encaps(Seg6LocalAction):
    """Advance, then encapsulate with an outer header carrying a new SRH."""

    segments: list[bytes]
    source: bytes | None = None
    kind = "End.B6.Encaps"

    def __post_init__(self) -> None:
        self.segments = [as_addr(seg) for seg in self.segments]
        if self.source is not None:
            self.source = as_addr(self.source)

    def process(self, pkt: Packet, node) -> Disposition:
        """Advance, then encapsulate with an outer header and new SRH (§2)."""
        base = super().process(pkt, node)
        if base.action != "forward":
            return base
        outer_src = self.source or node.primary_address()
        from .ipv6 import PROTO_IPV6

        srh = make_srh(list(self.segments), next_header=PROTO_IPV6)
        pkt.data = bytearray(push_outer_encap(bytes(pkt.data), outer_src, srh))
        return Disposition.forward()


@dataclass
class EndBPF(Seg6LocalAction):
    """The paper's End.BPF action: advance, then run an eBPF program."""

    program: Program
    kind = "End.BPF"
    stats: dict = field(default_factory=lambda: {"ok": 0, "drop": 0, "redirect": 0, "errors": 0})

    def __post_init__(self) -> None:
        self._handler = None  # pinned CompiledHandler (invalidated by generation)
        # (fn, mem, helpers, ctx_addr, stack_top) bound by the arming
        # packet of each batch-resident group; see process_resident.
        self._group_call = None

    def process(self, pkt: Packet, node) -> Disposition:
        """Advance the SRH, then run the attached program (§3.1 semantics).

        A single packet is a batch-resident group of one: the first
        packet of a group always does the full handler arm.
        """
        return self.process_resident(pkt, node, self.group_handler())

    # -- batch-resident invocation (Node._run_group) --------------------------
    def group_handler(self):
        """The pinned handler, marked un-armed for a new batch-resident group.

        The handler is pinned on the action instance; the cache
        generation check makes :func:`~repro.ebpf.jit.clear_handler_cache`
        still reach it.  The ``group_armed`` flag makes the first
        *arming* packet of the group do a full
        :meth:`~repro.ebpf.jit.CompiledHandler.arm` (rebinding clock/rng —
        the handler may last have run on another node) while subsequent
        packets take the light
        :meth:`~repro.ebpf.jit.CompiledHandler.arm_resident` path.
        """
        handler = self._handler
        if (
            handler is None
            or handler.program is not self.program
            or handler.cache_generation != _jit._HANDLER_CACHE_GENERATION
        ):
            handler = compiled_handler(self.program, "seg6local")
            self._handler = handler
        else:
            _HANDLER_CACHE_STATS["handler_hits"] += 1  # pinned-handler reuse
        handler.group_armed = False
        return handler

    def process_resident(self, pkt: Packet, node, handler) -> Disposition:
        """Advance the SRH and run the program for one packet of a group.

        The advance verdict is memoised on the SRH bytes.  The group's
        handler stays resident between packets (guest address space,
        clock/rng/node/hook bindings reused, only per-packet state
        reset), and the translated function plus its invariant arguments
        are bound once per group on the arming packet (``_group_call``).
        """
        data = pkt.data
        verdict = _advance_verdict(data)
        if verdict is _V_NO_SRH:
            return Disposition.drop(_DROP_NO_SRH)
        if verdict is _V_SL_ZERO:
            return Disposition.drop(_DROP_SL_ZERO)
        new_sl, new_active = verdict
        data[IPV6_HEADER_LEN + 3] = new_sl
        data[24:40] = new_active
        tctx = pkt.tctx
        if tctx is not None:
            t = node.clock_ns()
            tctx.append((t, t, "ebpf", node.name, f"seg6local/{self.program.name}"))

        program = self.program
        if handler.group_armed:
            _HANDLER_CACHE_STATS["handler_hits"] += 1
            hctx = handler.arm_resident(data, mark=pkt.mark)
            hctx.packet = pkt  # node/hook bindings persist from the arming packet
            fn, mem, helpers, ctx_addr, stack_top = self._group_call
        else:
            handler.group_armed = True
            hctx = handler.arm(
                data, clock_ns=node.clock_ns, rng=node.rng, mark=pkt.mark
            )
            hctx.packet = pkt
            hctx.node = node
            hctx.hook = "seg6local"
            skb = hctx.skb
            jitp = program._jit if program.jit_enabled else None
            fn = jitp._fn if jitp is not None else None
            mem = hctx.mem
            helpers = jitp.helpers if jitp is not None else None
            ctx_addr = skb.ctx_addr
            stack_top = skb.stack_top
            self._group_call = (fn, mem, helpers, ctx_addr, stack_top)

        pstats = program.stats
        try:
            if fn is not None:
                ret = fn(hctx, mem, helpers, ctx_addr, stack_top)
            else:
                ret = program._interp.run(hctx, ctx_addr, stack_top)
        except (VmFault, BpfError) as exc:
            self.stats["errors"] += 1
            node.log(f"End.BPF program fault: {exc}")
            return Disposition.drop(f"program fault: {exc}", bpf=True)
        pstats.invocations += 1
        pstats.last_return = ret
        return bpf_verdict(ret, hctx, pkt, self.stats)


def bpf_verdict(ret: int, hctx, pkt: Packet, stats: dict) -> Disposition:
    """Apply a finished eBPF run to ``pkt`` and map its return code (§3.1).

    The one place a hook program's result decides the packet's fate,
    shared by End.BPF and the BPF LWT hooks.  Helper-made packet bytes
    and the mark are written back first.  An SRH the program modified
    (only the seg6local helpers can, so only End.BPF reaches this) is
    then re-validated; an inconsistent one is a BPF drop.  Finally
    ``BPF_OK`` forwards on the (new) destination, ``BPF_REDIRECT``
    forwards to what ``bpf_lwt_seg6_action`` resolved, ``BPF_DROP``
    drops, and any other value is a datapath policy drop.  ``stats``
    (the hook's ok/drop/redirect counters) counts the verdict.
    """
    # The guest packet region and pkt.data are both bytearrays, so the
    # unchanged-packet check is a straight C-level compare, no copies.
    skb = hctx.skb
    region_data = skb.packet_region.data
    if region_data != pkt.data:
        pkt.data = bytearray(region_data)
    pkt.mark = skb.mark

    if hctx.metadata.get("srh_modified") and ret != BPF_DROP:
        data = pkt.data
        if len(data) >= IPV6_HEADER_LEN and data[6] == PROTO_ROUTING:
            try:
                srh_len, _ = srh_wire_span(data, IPV6_HEADER_LEN)
            except ValueError:
                srh_len = 0  # no parseable SRH; nothing to revalidate
            if srh_len:
                reason = _validate_verdict(
                    bytes(data[IPV6_HEADER_LEN : IPV6_HEADER_LEN + srh_len])
                )
                if reason is not None:
                    stats["drop"] += 1
                    return Disposition.drop(
                        f"invalid SRH after BPF: {reason}", bpf=True
                    )

    if ret == BPF_OK:
        stats["ok"] += 1
        return _FORWARD
    if ret == BPF_REDIRECT:
        stats["redirect"] += 1
        return Disposition.forward(
            table_id=hctx.metadata.get("redirect_table"),
            nh6=hctx.metadata.get("redirect_nh6"),
        )
    stats["drop"] += 1
    if ret == BPF_DROP:
        return Disposition.drop("BPF_DROP", bpf=True)
    # A malformed verdict is a datapath policy drop, not the program
    # explicitly asking for one — it does not count as bpf_dropped.
    return Disposition.drop(f"unknown BPF return {ret}")
