"""CompiledHandler reuse must be observably identical to fresh contexts.

The burst fast path re-arms one guest address space per (program, attach
point).  These tests pin down the reset contract: scratch/map-value
regions from the previous invocation are unmapped, per-invocation state
(trace log, metadata, cb, stack) is cleared, and persistent map state
keeps evolving exactly as it would across fresh ``make_context`` calls.
"""

import pytest

from repro.ebpf import ArrayMap, HashMap, compiled_handler, load_text
from repro.ebpf.jit import CompiledHandler

PACKET = bytes([0x60]) + bytes(39)

COUNTER_ASM = """
    r6 = r1
    r1 = 0
    *(u32 *)(r10 - 4) = r1
    r1 = hits ll
    r2 = r10
    r2 += -4
    call map_lookup_elem
    if r0 == 0 goto out
    r1 = *(u64 *)(r0 + 0)
    r1 += 1
    *(u64 *)(r0 + 0) = r1
out:
    r0 = 0
    exit
"""

MARK_KEYED_ASM = """
    r6 = r1
    r2 = *(u32 *)(r6 + 8)
    *(u32 *)(r10 - 4) = r2
    r1 = m ll
    r2 = r10
    r2 += -4
    call map_lookup_elem
    if r0 == 0 goto out
    r1 = *(u64 *)(r0 + 0)
    r1 += 1
    *(u64 *)(r0 + 0) = r1
out:
    r0 = 0
    exit
"""


def key(n: int) -> bytes:
    return n.to_bytes(4, "little")


def test_handler_cache_keyed_by_program_and_attach_point():
    counter = ArrayMap("ch_hits_a", value_size=8, max_entries=1)
    prog = load_text(COUNTER_ASM, maps={"hits": counter})
    assert compiled_handler(prog, "seg6local") is compiled_handler(prog, "seg6local")
    assert compiled_handler(prog, "seg6local") is not compiled_handler(prog, "lwt_out")
    other = load_text(COUNTER_ASM, maps={"hits": counter})
    assert compiled_handler(prog, "seg6local") is not compiled_handler(other, "seg6local")


def test_reused_context_matches_fresh_contexts():
    """N runs through one handler == N runs through fresh contexts."""
    counter_a = ArrayMap("ch_hits_b", value_size=8, max_entries=1)
    counter_b = ArrayMap("ch_hits_c", value_size=8, max_entries=1)
    prog_handler = load_text(COUNTER_ASM, maps={"hits": counter_a})
    prog_fresh = load_text(COUNTER_ASM, maps={"hits": counter_b})
    handler = CompiledHandler(prog_handler, "test")

    for _ in range(5):
        hctx = handler.arm(PACKET, clock_ns=lambda: 0, rng=None)
        assert prog_handler.run(hctx) == 0
        ret, _ = prog_fresh.run_on_packet(PACKET)
        assert ret == 0

    assert counter_a.lookup(key(0)) == counter_b.lookup(key(0))
    assert int.from_bytes(counter_a.lookup(key(0)), "little") == 5


def test_no_stale_map_value_regions_after_slot_reuse():
    """Deleting a key and reusing its slot must not leave a stale mapping.

    A fresh context maps the *current* storage of a looked-up entry; the
    re-armed context must do the same even when the previous invocation
    mapped different storage at the same guest address.
    """
    m = HashMap("ch_hash", key_size=4, value_size=8, max_entries=2)
    prog = load_text(MARK_KEYED_ASM, maps={"m": m})
    handler = CompiledHandler(prog, "test")

    m.update(key(1), (0).to_bytes(8, "little"))
    hctx = handler.arm(PACKET, clock_ns=lambda: 0, rng=None, mark=1)
    prog.run(hctx)
    assert int.from_bytes(m.lookup(key(1)), "little") == 1

    # Free slot 0 and hand it to a new key with brand-new storage.
    m.delete(key(1))
    m.update(key(2), (10).to_bytes(8, "little"))

    hctx = handler.arm(PACKET, clock_ns=lambda: 0, rng=None, mark=2)
    prog.run(hctx)
    assert int.from_bytes(m.lookup(key(2)), "little") == 11


def test_per_invocation_state_is_reset():
    """trace log, metadata, cb slots and the stack are fresh per arm()."""
    prog = load_text(
        """
        r6 = r1
        r1 = 7
        *(u64 *)(r6 + 0x20) = r1   ; cb[0] = 7
        r7 = *(u64 *)(r6 + 0x20)
        r1 = 1
        *(u64 *)(r10 - 8) = r1     ; dirty the stack
        r0 = r7
        exit
        """
    )
    handler = CompiledHandler(prog, "test")

    hctx = handler.arm(PACKET, clock_ns=lambda: 0, rng=None)
    hctx.metadata["left_over"] = True
    hctx.trace_log.append("stale line")
    assert prog.run(hctx) == 7

    hctx2 = handler.arm(PACKET, clock_ns=lambda: 0, rng=None)
    assert hctx2 is hctx  # same reused context object...
    assert hctx2.metadata == {}  # ...with per-invocation state reset
    assert hctx2.trace_log == []
    assert hctx2.skb.cb(0) == 0
    assert bytes(hctx2.skb.stack_region.data) == bytes(len(hctx2.skb.stack_region.data))


def test_rearm_rebinds_packet_and_mark():
    prog = load_text(
        """
        r0 = *(u32 *)(r1 + 0)      ; skb->len
        exit
        """
    )
    handler = CompiledHandler(prog, "test")
    hctx = handler.arm(PACKET, clock_ns=lambda: 0, rng=None)
    assert prog.run(hctx) == len(PACKET)

    bigger = PACKET + bytes(24)
    hctx = handler.arm(bigger, clock_ns=lambda: 0, rng=None, mark=9)
    assert prog.run(hctx) == len(bigger)
    assert hctx.skb.mark == 9
    assert hctx.skb.packet_bytes() == bigger
