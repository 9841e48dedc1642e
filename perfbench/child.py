"""One run of one workload, in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N --mode MODE [--out PREFIX]

Modes:

* ``measure``   — set up, time the run with tracing off, digest the outputs;
* ``reference`` — the workload's independent route (see ``workloads``),
  digest only;
* ``setup``     — set up and stop before the first timed event;
* ``trace``     — ``measure`` with the layer spans of ``spans`` armed;
  writes the spans under ``PREFIX`` and adds per-layer numbers;
* ``trace-reference`` — ``reference`` with the spans armed, so a layer
  that only the reference route exercises (the shard engine behind
  ``regions_ctrl``) is measured too.

Prints one JSON object as its last line.  ``run.py`` starts a fresh
process per run because some program state is process-global (flow ids
come from a class-level counter), so a second build in one process would
trace other flows and digest differently.
"""

from __future__ import annotations

import time

T_BOOT = time.perf_counter()  # before any import of the program

import argparse  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402


def metric_sums(net) -> dict:
    """Public counters summed over their labels, plus a few by kind."""
    sums: dict = {}
    for sample in net.metrics.collect():
        name = sample.name
        if name == "ctrl_events":
            name = f"ctrl_events:{dict(sample.labels)['kind']}"
        elif name == "sid_processed":
            name = f"sid_processed:{dict(sample.labels)['action']}"
        sums[name] = sums.get(name, 0) + sample.value
    return sums


def programs(net) -> list:
    from repro.net.lwt_bpf import BpfLwt
    from repro.net.seg6local import EndBPF

    found = {}
    for node in net.nodes.values():
        for table in node.tables.values():
            for route in table.routes():
                encap = route.encap
                if isinstance(encap, EndBPF):
                    found[id(encap.program)] = encap.program
                elif isinstance(encap, BpfLwt):
                    for prog in (encap.prog_in, encap.prog_out, encap.prog_xmit):
                        if prog is not None:
                            found[id(prog)] = prog
    return list(found.values())


def counters(exp) -> dict:
    """Layer counters at one instant (the traced run takes deltas)."""
    net = exp.net
    out = metric_sums(net)
    out["flows_sent"] = sum(f.stats.sent for f in net.flows)
    out["events_run"] = net.scheduler.events_run
    out["bpf_invocations"] = sum(p.stats.invocations for p in programs(net))
    out["netem_lost"] = sum(q.stats.lost for q in net.qdiscs.values())
    out["tcp_segments_sent"] = sum(s.stats.segments_sent for s, _r in exp.tcp)
    out["tcp_retransmits"] = sum(s.stats.retransmits for s, _r in exp.tcp)
    session = net._telemetry
    if session is not None:
        lines = session.sink.lines()
        out["telemetry_samples"] = sum(1 for line in lines if '"type":"sample"' in line)
        out["telemetry_shed"] = session.sink.dropped
    out["trace_records"] = len(net._tracer.records) if net._tracer is not None else 0
    return out


def layer_metrics(summary: dict, before: dict, after: dict, run: dict, shard) -> dict:
    """The per-layer metrics of one traced run."""

    def delta(key):
        return after.get(key, 0) - before.get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    self_s = summary["self_s"]
    calls = summary["calls"]
    built = sum(
        count
        for label, count in calls.items()
        if label.startswith("repro.net.packet:make_")
    )
    events = run["events"]
    hits, misses = delta("flow_table_hits"), delta("flow_table_misses")
    h_hits, h_misses = delta("handler_hits"), delta("handler_misses")
    link_batches = calls.get("repro.sim.link:LinkEndpoint.send_batch", 0)
    m = {
        "trafgen.self_s": self_s["trafgen"],
        "trafgen.packets_built": built,
        "trafgen.us_per_packet": ratio(self_s["trafgen"] * 1e6, built),
        "scheduler.self_s": self_s["scheduler"],
        "scheduler.events": events,
        "scheduler.events_coalesced": run["events_coalesced"],
        "scheduler.events_per_delivered": ratio(events, run["delivered"]),
        "scheduler.heap_depth_max": summary["heap_depth_max"],
        "node.self_s": self_s["node"],
        "node.rx_packets": delta("node_rx"),
        "node.flow_table_hit_ratio": ratio(hits, hits + misses),
        "seg6local.self_s": self_s["seg6local"],
        "ebpf.self_s": self_s["ebpf"],
        "ebpf.invocations": delta("bpf_invocations"),
        "ebpf.resident_share": ratio(
            delta("bpf_grouped_packets"), delta("sid_processed:End.BPF")
        ),
        "ebpf.group_flushes": delta("bpf_group_flushes"),
        "ebpf.handler_hit_ratio": ratio(h_hits, h_hits + h_misses),
        "link.self_s": self_s["link"],
        "link.packets_per_batch": ratio(delta("link_sent"), link_batches),
        "netem.self_s": self_s["netem"],
        "netem.dropped": delta("netem_lost"),
        "cpu.self_s": self_s["cpu"],
        "cpu.dropped": delta("cpu_dropped"),
        "tcp.self_s": self_s["tcp"],
        "tcp.segments_sent": delta("tcp_segments_sent"),
        "tcp.retransmits": delta("tcp_retransmits"),
        "sink.self_s": self_s["sink"],
        "ctrl.self_s": self_s["ctrl"],
        "ctrl.spf_runs": delta("ctrl_events:spf-run"),
        "ctrl.route_commands": calls.get("repro.net.iproute:IpRoute.execute", 0),
        "ctrl.frr_fired": delta("ctrl_events:frr-fired"),
        "telemetry.self_s": self_s["telemetry"],
        "telemetry.samples": delta("telemetry_samples"),
        "telemetry.shed": delta("telemetry_shed"),
        "trace.self_s": self_s["trace"],
        "trace.records": delta("trace_records"),
        "shard.self_s": self_s["shard"],
        "shard.rounds": 0,
        "shard.busy_max_s": 0.0,
        "shard.imbalance": 0.0,
        "shard.sync_s": 0.0,
        "spans.count": summary["spans"],
    }
    if shard is not None:
        busy = shard.busy_s
        m["shard.rounds"] = shard.rounds
        m["shard.busy_max_s"] = max(busy)
        m["shard.imbalance"] = max(busy) / (sum(busy) / len(busy))
        m["shard.sync_s"] = run["wall_s"] - max(busy)
    return m


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--mode",
        choices=("measure", "reference", "setup", "trace", "trace-reference"),
        required=True,
    )
    parser.add_argument("--out", default=None, help="path prefix for span files")
    args = parser.parse_args()

    traced = args.mode.startswith("trace")
    recorder = None
    if traced:
        import spans

        recorder = spans.instrument(spans.SpanRecorder())
        spans.instrument_shard_workers(recorder, args.out)

    import workloads

    reference = args.mode.endswith("reference")
    exp = workloads.build(args.workload, args.seed, reference=reference)
    net = exp.net
    if exp.warmup_ns:
        net.run(until_ns=exp.warmup_ns)
    delivered0 = exp.delivered()
    sim0_ns = net.scheduler.now_ns
    before = counters(exp) if traced else None
    gc.collect()
    if recorder is not None:
        recorder.reset()
    t_ready = time.perf_counter()
    setup_s = t_ready - T_BOOT
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return

    cpu0 = time.process_time()
    result = net.run(until_ns=exp.until_ns, shards=exp.shards)
    wall_s = time.perf_counter() - t_ready
    cpu_s = time.process_time() - cpu0

    sharded = exp.shards > 1
    delivered = exp.delivered() - delivered0
    run = {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "critical_s": max(result.busy_s) if sharded else cpu_s,
        "sim_ms": (net.scheduler.now_ns - sim0_ns) / 1e6,
        "delivered": delivered,
        "events": int(result),
        "events_coalesced": net.scheduler.events_coalesced,
        "setup_s": setup_s,
    }
    if recorder is not None:
        after = counters(exp)
        summary = recorder.summary()
        if sharded:
            paths = sorted(glob.glob(f"{args.out}worker-*.json"))
            workers = []
            for path in paths:
                with open(path) as fh:
                    workers.append(json.load(fh))
                os.remove(path)
            summary = spans.merge_summaries(summary, workers)
            run["events_coalesced"] = summary["events_coalesced"]
        recorder.write(f"{args.out}parent.spans.tsv.gz")
        run["layers"] = layer_metrics(
            summary, before, after, run, result if sharded else None
        )
        run["span_calls"] = summary["calls"]

    observed = workloads.observe(exp)
    run["digest"] = workloads.digest(observed)
    run["problems"] = workloads.check(exp, observed)
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers_peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    run["peak_rss_mb"] = (usage + workers_peak) / 1024.0
    print(json.dumps(run))


if __name__ == "__main__":
    main()
