"""Batch-resident eBPF vs concurrent FIB updates — the re-landing guard.

The batch-resident fast path groups consecutive same-destination packets
behind one armed handler and one route resolution.  That resolution can
go stale *mid-group*: an eBPF program (through a helper) or its
continuation may mutate the FIB, and the packets still queued behind the
group's route must then see the new table — exactly as they would had
each been resolved individually.

The datapath defends this with a generation check at every group
boundary: after each packet the main table's generation is compared
against its value at group formation, and a mismatch flushes the group
so the caller re-resolves the remainder.  These tests pin that a
helper-made route replacement takes effect from the very next packet,
matching the scalar datapath.
"""

from __future__ import annotations

from repro.bench.harness import FUNC_SEGMENT, copy_batch, make_router
from repro.ebpf import Program
from repro.ebpf.helpers import HELPERS_BY_ID, register_helper
from repro.ebpf.jit import clear_handler_cache, handler_cache_stats
from repro.net import EndBPF
from repro.sim.trafgen import batch_srv6_udp

SINK_ADDR = "fc00:2::2"
BATCH = 16

# Test-only helper: invokes a host-side callback installed by the test.
# Id 2000 lives outside every hook whitelist, so programs using it must
# load with ``allowed_helpers=None`` — it cannot leak into the datapath
# programs under test elsewhere.
_FLIP: dict = {}

if 2000 not in HELPERS_BY_ID:

    @register_helper(2000, "test_fib_flip", [("ctx",)])
    def _test_fib_flip(hctx, ctx_addr: int) -> int:
        callback = _FLIP.pop("fn", None)
        if callback is not None:
            callback(hctx.node)
        return 0


# Stamps mark=1, then gives the host a chance to mutate the FIB while
# the batch is mid-flight.
MARK1_AND_FLIP_ASM = """
    mov r2, 1
    stxw [r1+8], r2                ; ctx->mark = 1
    call test_fib_flip
    mov r0, 0                      ; BPF_OK
    exit
"""

# The replacement route's program: stamps mark=2.
MARK2_ASM = """
    mov r2, 2
    stxw [r1+8], r2                ; ctx->mark = 2
    mov r0, 0                      ; BPF_OK
    exit
"""


def _build():
    """Router with an End.BPF segment whose program can flip the FIB."""
    clear_handler_cache()
    _FLIP.clear()
    node = make_router()
    prog_a = Program(MARK1_AND_FLIP_ASM, name="mark1_flip", allowed_helpers=None)
    prog_b = Program(MARK2_ASM, name="mark2", allowed_helpers=None)
    node.add_route(f"{FUNC_SEGMENT}/128", encap=EndBPF(prog_a))

    def flip(n):
        # Same-prefix add replaces the route and bumps the generation —
        # the mid-batch route update of the revert's hazard scenario.
        n.add_route(f"{FUNC_SEGMENT}/128", encap=EndBPF(prog_b))

    _FLIP["fn"] = flip
    return node


def _drive(node) -> list[int]:
    templates = batch_srv6_udp(
        "fc00:1::1", [FUNC_SEGMENT, SINK_ADDR], BATCH, payload_size=32
    )
    node.receive_batch(copy_batch(templates), node.devices["eth0"])
    out = node.devices["eth1"].tx_buffer
    assert len(out) == BATCH, "packets were dropped"
    return [p.mark for p in out]


def test_guard_on_flushes_group_and_matches_scalar():
    """A mid-group route replacement takes effect from the next packet."""
    marks = _drive(_build())
    # Packet 1 ran the old program (mark 1) and flipped the route; every
    # later packet must already see the replacement (mark 2) — identical
    # to resolving each packet individually.
    assert marks == [1] + [2] * (BATCH - 1)
    stats = handler_cache_stats()
    assert stats["bpf_groups"] >= 2  # the flushed group plus its retry
    assert stats["bpf_group_flushes"] >= 1


def test_guard_on_matches_batch_of_one():
    """Scalar reference: one-packet batches resolve every route fresh."""
    node = _build()
    templates = batch_srv6_udp(
        "fc00:1::1", [FUNC_SEGMENT, SINK_ADDR], BATCH, payload_size=32
    )
    dev = node.devices["eth0"]
    for pkt in copy_batch(templates):
        node.receive_batch([pkt], dev)
    marks = [p.mark for p in node.devices["eth1"].tx_buffer]
    assert marks == [1] + [2] * (BATCH - 1)

