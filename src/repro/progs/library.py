"""The paper's eBPF programs: kernel-syntax sources, loaders, record codecs.

Every program in the evaluation (§3.2) and the use cases (§4) is written
as genuine eBPF in ``asm/<name>.s`` — assembled, linked, verified and
executed by :mod:`repro.ebpf` — never as shortcut Python:

========================  =======  ===========================================
Program                   Paper §  Purpose
========================  =======  ===========================================
``end_prog``              3.2      BPF counterpart of End (1 SLOC body)
``end_t_prog``            3.2      BPF counterpart of End.T (seg6 action)
``tag_increment_prog``    3.2      "Tag++": read SRH tag, increment, store
``add_tlv_prog``          3.2      grow TLV area, write an 8-byte TLV
``dm_encap_prog``         4.1      transit sampler: encap probes with DM TLV
``end_dm_prog``           4.1      End.DM: timestamps → perf event, decap
``wrr_prog``              4.2      per-packet WRR over two links, push encap
``end_oamp_prog``         4.3      End.OAMP: ECMP nexthops → perf event
========================  =======  ===========================================

Each ``.s`` file names its hook in a ``.hook`` directive, from which the
loader takes the helper set.  Probe packet geometry is fixed (as real
eBPF programs fix their parse offsets — the 2018 verifier had no loops):
the sources spell the offsets out, and the sizes below are shared with
the user-space builders in :mod:`repro.usecases`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

from ..ebpf import ArrayMap, PerfEventArrayMap, Program
from ..ebpf.text import load_text
from ..net.addr import as_addr

ASM_DIR = Path(__file__).parent / "asm"


def asm_text(name: str) -> str:
    """Return the ``.s`` source of a library program (e.g. ``"wrr"``)."""
    path = ASM_DIR / f"{name}.s"
    if not path.exists():
        available = ", ".join(sorted(p.stem for p in ASM_DIR.glob("*.s")))
        raise KeyError(f"no library asm program {name!r} (have: {available})")
    return path.read_text()


def _load(stem: str, name: str, jit: bool, maps=None) -> Program:
    return load_text(asm_text(stem), maps=maps, name=name, jit=jit)


# ---------------------------------------------------------------------------
# §3.2 microbenchmark programs
# ---------------------------------------------------------------------------


def end_prog(jit: bool = True) -> Program:
    """The paper's baseline End.BPF program (§3.2, "End BPF")."""
    return _load("end", "end_bpf", jit)


def end_t_prog(jit: bool = True) -> Program:
    """BPF counterpart of End.T (§3.2), looking up the main table (254)."""
    return _load("end_t", "end_t_bpf", jit)


def tag_increment_prog(jit: bool = True) -> Program:
    """The paper's Tag++ program (§3.2, ~50 SLOC in C)."""
    return _load("tag_increment", "tag_increment", jit)


def add_tlv_prog(jit: bool = True) -> Program:
    """The paper's Add TLV program (§3.2)."""
    return _load("add_tlv", "add_tlv", jit)


# ---------------------------------------------------------------------------
# §4.1 delay measurement: probe geometry shared with user space
# ---------------------------------------------------------------------------

# DM probe packet: outer IPv6 (40) + SRH (72) + inner packet.
#   SRH: fixed 8 | segments 2x16 | DM TLV (11) | controller TLV (20) | Pad1
#   The DM TLV starts at byte 80 (8-byte big-endian TX timestamp at 82,
#   probe kind at 90); the controller TLV at 91 (address 93, port 109).
DM_SRH_LEN = 72
DM_PROBE_MIN_LEN = 40 + DM_SRH_LEN  # 112

# dm_config array-map value layout (40 bytes).
DM_CONFIG_SIZE = 40
DM_EVENT_SIZE = 40


def dm_config_value(
    dm_segment: bytes | str,
    controller: bytes | str,
    port: int,
    kind: int,
    ratio: int,
) -> bytes:
    """Encode the sampler's configuration map value.

    ``ratio`` is the paper's probing ratio denominator (1:ratio packets
    are turned into probes); 0 disables sampling entirely.
    """
    return (
        as_addr(dm_segment)
        + as_addr(controller)
        + struct.pack(">H", port)
        + struct.pack("BB", kind & 0xFF, 0)
        + struct.pack("<I", ratio)
    )


@dataclass
class DmEvent:
    """Decoded End.DM perf-event record (§4.1)."""

    tx_timestamp_ns: int
    rx_timestamp_ns: int
    controller: bytes
    port: int
    kind: int

    SIZE = DM_EVENT_SIZE

    @classmethod
    def parse(cls, raw: bytes) -> "DmEvent":
        if len(raw) != cls.SIZE:
            raise ValueError(f"DM event must be {cls.SIZE} bytes, got {len(raw)}")
        tx, rx = struct.unpack_from("<QQ", raw, 0)
        controller = raw[16:32]
        port = struct.unpack_from(">H", raw, 32)[0]
        kind = raw[34]
        return cls(tx, rx, controller, port, kind)

    @property
    def delay_ns(self) -> int:
        return self.rx_timestamp_ns - self.tx_timestamp_ns


def dm_encap_prog(dm_config: ArrayMap, jit: bool = True) -> Program:
    """The §4.1 transit sampler; attach as a route's ``lwt_out`` program."""
    return _load("dm_encap", "dm_encap", jit, maps={"dm_config": dm_config})


def end_dm_prog(dm_events: PerfEventArrayMap, jit: bool = True) -> Program:
    """The §4.1 End.DM network function; attach via ``EndBPF``."""
    return _load("end_dm", "end_dm", jit, maps={"dm_events": dm_events})


# ---------------------------------------------------------------------------
# §4.2 hybrid access: per-packet weighted round robin
# ---------------------------------------------------------------------------

WRR_CONFIG_SIZE = 40  # seg0 (16) | seg1 (16) | w0 u32 | w1 u32
WRR_STATE_SIZE = 16  # c0 u32 | c1 u32 | pkts0 u32 | pkts1 u32
WRR_SRH_LEN = 24  # fixed 8 + one segment


def wrr_config_value(
    seg_link0: bytes | str, seg_link1: bytes | str, weight0: int, weight1: int
) -> bytes:
    """Encode the WRR configuration (link segments + weights).

    Weights match the uplink capacities as seen by the encapsulating box
    (§4.2): e.g. 50 Mb/s and 30 Mb/s links get weights 5 and 3.
    """
    if weight0 <= 0 or weight1 <= 0:
        raise ValueError("WRR weights must be positive")
    return (
        as_addr(seg_link0)
        + as_addr(seg_link1)
        + struct.pack("<II", weight0, weight1)
    )


def wrr_state_counters(state_map: ArrayMap) -> tuple[int, int, int, int]:
    """Decode (credit0, credit1, pkts0, pkts1) from the state map."""
    raw = state_map.lookup((0).to_bytes(4, "little"))
    return struct.unpack("<IIII", raw)


def wrr_prog(config_map: ArrayMap, state_map: ArrayMap, jit: bool = True) -> Program:
    """The §4.2 WRR link-aggregation scheduler (BPF LWT)."""
    maps = {"wrr_config": config_map, "wrr_state": state_map}
    return _load("wrr", "wrr_scheduler", jit, maps=maps)


# ---------------------------------------------------------------------------
# §4.3 End.OAMP: ECMP nexthop discovery
# ---------------------------------------------------------------------------

# OAMP probe: IPv6 (40) + SRH (64): fixed 8 | 2 segments | ctrl TLV | PadN.
#   The controller TLV starts at byte 80 (address 82, port 98).
OAMP_SRH_LEN = 64
OAMP_MAX_NEXTHOPS = 4
OAMP_EVENT_SIZE = 8 + 16 + 16 + 16 * OAMP_MAX_NEXTHOPS  # 104


@dataclass
class OampEvent:
    """Decoded End.OAMP perf-event record (§4.3)."""

    count: int
    port: int
    prober: bytes
    target: bytes
    nexthops: list[bytes]

    SIZE = OAMP_EVENT_SIZE

    @classmethod
    def parse(cls, raw: bytes) -> "OampEvent":
        if len(raw) != cls.SIZE:
            raise ValueError(f"OAMP event must be {cls.SIZE} bytes, got {len(raw)}")
        count = struct.unpack_from("<I", raw, 0)[0]
        port = struct.unpack_from(">H", raw, 4)[0]
        prober = raw[8:24]
        target = raw[24:40]
        nexthops = [
            raw[40 + 16 * i : 56 + 16 * i] for i in range(min(count, OAMP_MAX_NEXTHOPS))
        ]
        return cls(count, port, prober, target, nexthops)


def end_oamp_prog(oamp_events: PerfEventArrayMap, jit: bool = True) -> Program:
    """The §4.3 End.OAMP network function; attach via ``EndBPF``."""
    return _load("end_oamp", "end_oamp", jit, maps={"oamp_events": oamp_events})
