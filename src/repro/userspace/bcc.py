"""A bcc-like Python front-end (§4.1: *"The implementation uses the bcc
framework, a BPF front-end in Python giving straightforward access to
perf events"*).

The real daemons load C through LLVM; ours load the kernel-syntax eBPF
assembly LLVM would emit for it (:mod:`repro.ebpf.text`), but the
control-plane API mirrors bcc so the paper's 100-SLOC daemon translates
almost line for line:

>>> b = BPF(text=prog_asm, maps={"events": events_map})     # doctest: +SKIP
>>> b.attach_seg6local(router, "fc00::100/128")             # doctest: +SKIP
>>> b["events"].open_perf_buffer(handle_event)              # doctest: +SKIP
>>> while True: b.perf_buffer_poll()                        # doctest: +SKIP
"""

from __future__ import annotations

from typing import Callable

from ..ebpf import Map, PerfEventArrayMap
from ..ebpf.text import load_text
from ..net.lwt_bpf import BpfLwt
from ..net.seg6_helpers import LWT_HELPERS, SEG6LOCAL_HELPERS
from ..net.seg6local import EndBPF


class PerfBufferHandle:
    """bcc-style wrapper over a perf event array."""

    def __init__(self, perf_map: PerfEventArrayMap):
        self._map = perf_map
        self._callbacks: list[Callable[[int, bytes], None]] = []

    def open_perf_buffer(self, callback: Callable[[int, bytes], None]) -> None:
        self._callbacks.append(callback)

    def poll(self, max_records: int | None = None) -> int:
        count = 0
        for cpu in range(self._map.max_entries):
            for record in self._map.ring(cpu).drain(max_records):
                for callback in self._callbacks:
                    callback(cpu, record)
                count += 1
        return count


class BPF:
    """Load a program and manage its maps, bcc style."""

    SEG6LOCAL = "seg6local"
    LWT = "lwt"

    def __init__(
        self,
        text: str,
        maps: dict[str, Map] | None = None,
        prog_type: str = SEG6LOCAL,
        jit: bool = True,
        name: str = "bcc_prog",
    ):
        allowed = SEG6LOCAL_HELPERS if prog_type == self.SEG6LOCAL else LWT_HELPERS
        self.maps = dict(maps or {})
        self.prog_type = prog_type
        self.program = load_text(
            text, maps=self.maps, name=name, jit=jit, allowed_helpers=allowed
        )
        self._perf_handles: dict[str, PerfBufferHandle] = {}

    # -- map access (bcc's b["name"]) -----------------------------------------
    def __getitem__(self, name: str):
        map_obj = self.maps[name]
        if isinstance(map_obj, PerfEventArrayMap):
            handle = self._perf_handles.get(name)
            if handle is None:
                handle = PerfBufferHandle(map_obj)
                self._perf_handles[name] = handle
            return handle
        return map_obj

    # -- attachment ---------------------------------------------------------
    def attach_seg6local(self, node, prefix: str) -> EndBPF:
        """Install the program as an ``End.BPF`` action on ``prefix``."""
        if self.prog_type != self.SEG6LOCAL:
            raise ValueError("program was not loaded for the seg6local hook")
        action = EndBPF(self.program)
        node.add_route(prefix, encap=action)
        return action

    def attach_lwt_out(self, node, prefix: str, via=None, dev=None) -> BpfLwt:
        """Attach as a route's ``lwt_out`` program (transit behaviour)."""
        if self.prog_type != self.LWT:
            raise ValueError("program was not loaded for the LWT hook")
        lwt = BpfLwt(prog_out=self.program)
        node.add_route(prefix, via=via, dev=dev, encap=lwt)
        return lwt

    # -- polling -----------------------------------------------------------------
    def perf_buffer_poll(self, max_records: int | None = None) -> int:
        return sum(h.poll(max_records) for h in self._perf_handles.values())
