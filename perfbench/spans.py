"""Layer spans recorded from outside the program, for the traced run.

:func:`instrument` replaces the public entry points of each simulator
layer (class methods and module functions, named in :data:`ENTRY_POINTS`)
with wrappers that record one span per call: ``(name, start, end,
parent)``, kept in memory in flat arrays.  It must run before the
experiment is built, so that bound methods captured at build time (timer
callbacks, listeners, the JIT's compiled functions) are the wrapped ones.

A layer's *self time* is the sum, over its spans, of the span's duration
minus the part covered by its child spans.  Calls nest on one thread, so
children never overlap and the cover is a plain sum.  Time a span spends
in wrapper bookkeeping for its children lands in its own self time; the
traced/untraced wall ratio reports that overhead as a whole.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array

# layer -> [(module, class or None, attribute), ...]
ENTRY_POINTS: dict[str, list[tuple[str, str | None, str]]] = {
    "trafgen": [
        ("repro.net.packet", None, "make_udp_packet"),
        ("repro.net.packet", None, "make_srv6_udp_packet"),
        ("repro.net.packet", None, "make_tcp_packet"),
        ("repro.net.packet", None, "make_icmpv6_packet"),
        ("repro.sim.trafgen", "UdpFlow", "_tick"),
    ],
    "scheduler": [
        ("repro.sim.scheduler", "Scheduler", "run"),
        ("repro.sim.scheduler", "Scheduler", "run_until_grant"),
        ("repro.sim.scheduler", "Timer", "_fire"),
    ],
    "node": [
        ("repro.net.node", "Node", "receive_batch"),
        ("repro.net.node", "Node", "send_batch"),
        ("repro.net.node", "Node", "_input_batch"),
    ],
    "seg6local": [
        ("repro.net.seg6local", "EndBPF", "process_resident"),
        ("repro.net.seg6local", "EndBPF", "group_handler"),
        # Every action's own process() is added by instrument().
    ],
    "ebpf": [
        ("repro.net.lwt_bpf", "BpfLwt", "run_hook"),
        ("repro.ebpf.vm", "Interpreter", "run"),
        # JIT-compiled functions are wrapped as repro.ebpf.jit compiles them.
    ],
    "link": [
        ("repro.sim.link", "LinkEndpoint", "send_batch"),
        ("repro.sim.link", "LinkEndpoint", "_deliver_batch"),
        ("repro.sim.link", "LinkEndpoint", "_drain_remote"),
        ("repro.sim.link", "LinkEndpoint", "inject_remote"),
        ("repro.sim.link", "LinkEndpoint", "_deliver_remote"),
        ("repro.sim.link", "Link", "set_down"),
        ("repro.sim.link", "Link", "set_up"),
        ("repro.net.netdev", "NetDev", "transmit_batch"),
        ("repro.net.netdev", "NetDev", "_emit_batch"),
        ("repro.net.netdev", "NetDev", "process_batch"),
    ],
    "netem": [
        ("repro.sim.netem", "NetemQdisc", "enqueue"),
        ("repro.sim.netem", "NetemQdisc", "_dequeue"),
    ],
    "cpu": [
        ("repro.sim.cpu", "CpuQueue", "submit_batch"),
        ("repro.sim.cpu", "CpuQueue", "_complete_batch"),
    ],
    "tcp": [
        ("repro.sim.tcp", "TcpSender", "start"),
        ("repro.sim.tcp", "TcpSender", "_on_segment"),
        ("repro.sim.tcp", "TcpSender", "_on_rto"),
        ("repro.sim.tcp", "TcpReceiver", "_on_segment"),
    ],
    "sink": [
        ("repro.sim.stats", "FlowMeter", "on_packet"),
    ],
    "ctrl": [
        ("repro.ctrl.igp", "IgpSpeaker", "_send_hellos"),
        ("repro.ctrl.igp", "IgpSpeaker", "_on_packet"),
        ("repro.ctrl.igp", "IgpSpeaker", "_check_dead"),
        ("repro.ctrl.igp", "IgpSpeaker", "_run_spf"),
        ("repro.ctrl.igp", "ControlPlane", "_on_carrier"),
        ("repro.ctrl.frr", "FrrManager", "recompute"),
        ("repro.ctrl.frr", "FrrManager", "on_carrier_down"),
        ("repro.ctrl.spf", None, "run_spf"),
        ("repro.ctrl.spf", None, "tilfa_repair"),
        ("repro.net.iproute", "IpRoute", "execute"),
    ],
    "telemetry": [
        ("repro.telemetry.sampler", "TelemetrySession", "sample"),
    ],
    "trace": [
        ("repro.trace.tracer", "Tracer", "admit"),
        ("repro.trace.tracer", "Tracer", "finish"),
    ],
    "shard": [
        ("repro.shard.coord", None, "run_sharded"),
    ],
}

LAYERS = tuple(ENTRY_POINTS)
JIT_LABEL = "repro.ebpf.jit:<compiled>"


class SpanRecorder:
    """Flat in-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.labels: list[str] = []  # name id -> "module:qualname"
        self.layer_of: list[str] = []  # name id -> layer
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.heap_depth_max = 0

    def reset(self) -> None:
        """Drop every span (in place: the wrappers hold these containers)."""
        for arr in (self.name_id, self.parent, self.start, self.end):
            del arr[:]
        del self.stack[1:]
        self.heap_depth_max = 0

    def _intern(self, label: str, layer: str) -> int:
        self.labels.append(label)
        self.layer_of.append(layer)
        return len(self.labels) - 1

    def wrap(self, fn, label: str, layer: str):
        nid = self._intern(label, layer)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return span

    # -- analysis -------------------------------------------------------
    def summary(self) -> dict:
        """Per-layer self seconds and span counts, per-label call counts."""
        n = len(self.name_id)
        start, end, parent, name_id = self.start, self.end, self.parent, self.name_id
        covered = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = [0] * len(self.labels)
        root_s = 0.0
        layer_of = self.layer_of
        for i in range(n):
            nid = name_id[i]
            duration = end[i] - start[i]
            self_s[layer_of[nid]] += duration - covered[i]
            calls[nid] += 1
            if parent[i] < 0:
                root_s += duration
        per_label: dict[str, int] = {}
        for label, count in zip(self.labels, calls):
            if count:
                per_label[label] = per_label.get(label, 0) + count
        return {
            "self_s": self_s,
            "calls": per_label,
            "root_s": root_s,
            "spans": n,
            "heap_depth_max": self.heap_depth_max,
        }

    def write(self, path: str) -> None:
        """Write every span as gzip'd TSV: index, name, start, end, parent."""
        labels = self.labels
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("idx\tname\tstart_s\tend_s\tparent\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i, (nid, s, e, p) in enumerate(
                zip(self.name_id, self.start, self.end, self.parent)
            ):
                fh.write(f"{i}\t{labels[nid]}\t{s - t0:.9f}\t{e - t0:.9f}\t{p}\n")


def _replace_everywhere(original, replacement) -> None:
    """Rebind every ``repro`` module global that names ``original``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def instrument(recorder: SpanRecorder) -> SpanRecorder:
    """Wrap every entry point in :data:`ENTRY_POINTS` (call once, pre-build)."""
    import repro.ebpf.jit as jit
    import repro.net.seg6local as seg6local
    import repro.sim.scheduler as scheduler

    entries = {layer: list(points) for layer, points in ENTRY_POINTS.items()}
    for cls in vars(seg6local).values():
        if (
            isinstance(cls, type)
            and issubclass(cls, seg6local.Seg6LocalAction)
            and "process" in vars(cls)
        ):
            entries["seg6local"].append(("repro.net.seg6local", cls.__name__, "process"))

    for layer, points in entries.items():
        for module_name, cls_name, attr in points:
            module = importlib.import_module(module_name)
            if cls_name is None:
                original = getattr(module, attr)
                label = f"{module_name}:{attr}"
                _replace_everywhere(original, recorder.wrap(original, label, layer))
            else:
                cls = getattr(module, cls_name)
                original = vars(cls)[attr]
                label = f"{module_name}:{cls_name}.{attr}"
                setattr(cls, attr, recorder.wrap(original, label, layer))

    compile_jit = jit._compile

    def compile_wrapped(source):
        return recorder.wrap(compile_jit(source), JIT_LABEL, "ebpf")

    jit._compile = compile_wrapped

    push = scheduler.Scheduler._push

    def push_tracking_depth(self, *args):
        event = push(self, *args)
        depth = len(self._heap)
        if depth > recorder.heap_depth_max:
            recorder.heap_depth_max = depth
        return event

    scheduler.Scheduler._push = push_tracking_depth
    return recorder


def instrument_shard_workers(recorder: SpanRecorder, out_prefix: str) -> None:
    """Make each forked shard worker record its own spans and report them.

    A worker inherits the parent's recorder (wrappers included) through
    fork; it starts from an empty store, and when it returns it writes
    its summary to ``<out_prefix>worker-<k>.json`` and its spans next to
    it.  The parent joins every worker before the sharded run returns,
    so the files are complete when :func:`merge_worker_summaries` reads
    them.
    """
    import json

    import repro.shard.coord as coord

    worker_main = coord.worker_main

    def traced_worker_main(conn, net, assignment, shard_id, *args):
        recorder.reset()
        try:
            worker_main(conn, net, assignment, shard_id, *args)
        finally:
            summary = recorder.summary()
            summary["events_coalesced"] = net.scheduler.events_coalesced
            with open(f"{out_prefix}worker-{shard_id}.json", "w") as fh:
                json.dump(summary, fh)
            recorder.write(f"{out_prefix}worker-{shard_id}.spans.tsv.gz")

    coord.worker_main = traced_worker_main


def merge_summaries(parent: dict, workers: list[dict]) -> dict:
    """Fold shard workers' summaries into the parent's (times add up)."""
    merged = {
        "self_s": dict(parent["self_s"]),
        "calls": dict(parent["calls"]),
        "root_s": parent["root_s"],
        "spans": parent["spans"],
        "heap_depth_max": parent["heap_depth_max"],
        "events_coalesced": 0,
    }
    for worker in workers:
        merged["events_coalesced"] += worker["events_coalesced"]
        for layer, seconds in worker["self_s"].items():
            merged["self_s"][layer] += seconds
        for label, count in worker["calls"].items():
            merged["calls"][label] = merged["calls"].get(label, 0) + count
        merged["spans"] += worker["spans"]
        merged["heap_depth_max"] = max(merged["heap_depth_max"], worker["heap_depth_max"])
    return merged
