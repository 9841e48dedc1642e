"""End-to-end simulator benchmark: scheduler-driven workloads, output-checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S   # every workload
    python3 perfbench/run.py --self-test --seed N                  # checker rejects

Run from the root of a checkout.  Every measured run executes in its own
interpreter (``child.py``); this process only orchestrates, so nothing
it imports can colour a measurement.  One invocation:

1. byte-compiles the sources, so import cost is the same on every run;
2. runs the workload's *reference* (an independent route to the same
   simulated outputs, see ``workloads.py``) and keeps its digest;
3. with ``--trace 0``, starts timed runs until ``--seconds`` have passed
   (at least three), then extra set-up-only runs, and reports the median
   of each end-to-end metric; with ``--trace 1``, alternates untraced and
   traced runs and reports the median per-layer metrics, the tracing
   overhead, and whether layer time sits where ``design.json`` predicts.
   The reference is traced too, and the ``shard.*`` metrics of a workload
   whose own runs are unsharded come from its sharded reference route;
4. compares every run's output digest with the reference.  A mismatch,
   or a failed semantic check, is a failed operation.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with provenance and every per-run value, is written to
``.perfbench/result-<workload>-<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
DESIGN_PATH = os.path.join(HERE, "design.json")
SOURCE_DIR = os.path.join(ROOT, "src", "repro")

MIN_TIMED_RUNS = 3
SETUP_ONLY_RUNS = 6
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (missing sources, a crashed run)."""


def child(workload: str, seed: int, mode: str, out: str | None = None) -> dict:
    """Run ``child.py`` in a fresh interpreter; return its JSON result."""
    cmd = [
        sys.executable,
        os.path.join(HERE, "child.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--mode",
        mode,
    ]
    if out is not None:
        cmd += ["--out", out]
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # One string-hash seed for every run, so dict and set layouts (and the
    # time spent in them) do not change from one process to the next.
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise BenchError(
            f"{workload} seed {seed} ({mode}) exited {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def provenance() -> dict:
    """Where and on what these numbers were measured."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SOURCE_DIR):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    commit = None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except OSError:
        pass
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu_model or platform.processor(),
        "platform": platform.platform(),
    }


def end_to_end(runs: list[dict], setup_runs: list[float]) -> dict:
    """Median end-to-end metrics over the timed runs of one invocation."""
    med = statistics.median
    return {
        "sim_ms_per_wall_s": med(r["sim_ms"] / r["wall_s"] for r in runs),
        "delivered_pps": med(r["delivered"] / r["wall_s"] for r in runs),
        "capacity_pps": med(r["delivered"] / r["critical_s"] for r in runs),
        "setup_s": med([r["setup_s"] for r in runs] + setup_runs),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in runs),
    }


def trace_sanity(workload: str, layers: dict, design: dict) -> list[str]:
    """Where ``design.json`` says layer time must (not) appear."""
    problems = []
    for rule in design["trace_sanity"]:
        value = layers[rule["metric"]]
        positive = workload in rule["positive_on"]
        if positive and not value > 0:
            problems.append(f"{rule['metric']} is {value} on {workload}, predicted > 0")
        if not positive and value != 0:
            problems.append(f"{rule['metric']} is {value} on {workload}, predicted 0")
    return problems


def verdict(run: dict, reference: str) -> list[str]:
    problems = list(run["problems"])
    if run["digest"] != reference:
        problems.append(f"digest {run['digest'][:12]} != reference {reference[:12]}")
    return problems


def measure(workload: str, seed: int, seconds: float, trace: bool, spec: dict, design: dict):
    prefix = os.path.join(OUT_DIR, f"{workload}-{seed}-")
    if trace:
        reference = child(workload, seed, "trace-reference", out=f"{prefix}ref-")
    else:
        reference = child(workload, seed, "reference")
    failures: list[str] = [f"reference: {p}" for p in reference["problems"]]
    ref_digest = reference["digest"]
    untraced: list[dict] = []
    traced: list[dict] = []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        runs = [child(workload, seed, "measure")]
        untraced.append(runs[0])
        if trace:
            traced.append(child(workload, seed, "trace", out=prefix))
            runs.append(traced[-1])
        for run in runs:
            attempted += 1
            problems = verdict(run, ref_digest)
            if problems:
                failed += 1
                failures += problems
        elapsed = time.perf_counter() - start
        enough = len(untraced) >= (1 if trace else MIN_TIMED_RUNS)
        if enough and elapsed >= seconds:
            break

    if trace:
        med = statistics.median
        layers = {
            name: med(run["layers"][name] for run in traced)
            for name in traced[0]["layers"]
        }
        layers["spans.overhead_ratio"] = med(r["wall_s"] for r in traced) / med(
            r["wall_s"] for r in untraced
        )
        if not layers["shard.rounds"]:
            # The workload's own runs never enter the shard engine; its
            # reference route may (regions_ctrl checks against shards=2).
            layers.update(
                (name, value)
                for name, value in reference["layers"].items()
                if name.startswith("shard.")
            )
        sanity = trace_sanity(workload, layers, design)
        failures += sanity
        metrics = {m["name"]: (layers[m["name"]], m["unit"]) for m in spec["per_layer"]}
        raw = {"untraced": untraced, "traced": traced}
    else:
        setup_runs = [
            child(workload, seed, "setup")["setup_s"] for _ in range(SETUP_ONLY_RUNS)
        ]
        values = end_to_end(untraced, setup_runs)
        metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in spec["end_to_end"]}
        raw = {"timed": untraced, "setup_only_s": setup_runs}
    raw["reference"] = reference
    return not failures, attempted, failed, metrics, failures, raw


def self_test(workloads: list[str], seed: int) -> int:
    """Show that the output check rejects a perturbed run.

    For each workload, a run with the reference's seed must match it and a
    run with another seed (other inputs) must not.
    """
    ok = True
    for workload in workloads:
        ref = child(workload, seed, "reference")["digest"]
        same = child(workload, seed, "measure")
        other = child(workload, seed + 1, "measure")
        accepted = not verdict(same, ref)
        rejected = bool(verdict(other, ref))
        print(
            f"{workload:16s} seed {seed} vs reference: "
            f"{'accepted' if accepted else 'REJECTED'}; "
            f"seed {seed + 1} vs reference: {'rejected' if rejected else 'ACCEPTED'}"
        )
        ok &= accepted and rejected
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SOURCE_DIR, "__init__.py")):
        raise BenchError(f"no program sources at {os.path.relpath(SOURCE_DIR, ROOT)}")
    with open(SPEC_PATH) as fh:
        spec = json.load(fh)
    with open(DESIGN_PATH) as fh:
        design = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    chosen = names if args.workload == "all" else [args.workload]
    for name in chosen:
        if name not in names:
            raise BenchError(f"unknown workload {name!r}; choose from {names}")

    os.makedirs(OUT_DIR, exist_ok=True)
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", SOURCE_DIR, HERE],
        cwd=ROOT,
        check=True,
        stdout=subprocess.DEVNULL,
    )
    if args.self_test:
        return self_test(chosen, args.seed)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    info = provenance()
    print(f"# commit {info['commit']} source {info['source_sha256'][:16]} "
          f"python {info['python']} nproc {info['nproc']} cpu {info['cpu_model']}")
    total_attempted = total_failed = 0
    all_correct = True
    reported: dict = {}
    for workload in chosen:
        correct, attempted, failed, metrics, failures, raw = measure(
            workload, args.seed, seconds, bool(args.trace), spec, design
        )
        total_attempted += attempted
        total_failed += failed
        all_correct &= correct
        for problem in failures:
            print(f"# {workload}: {problem}")
        print(f"# {workload}: {attempted} runs, {failed} failed "
              f"(mismatch_rate {failed / attempted:.3f})")
        for name, (value, unit) in metrics.items():
            print(f"{workload:16s} {name:32s} {value:14.6g} {unit}")
        result = {
            "workload": workload,
            "seed": args.seed,
            "seconds": seconds,
            "trace": args.trace,
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "mismatch_rate": failed / attempted,
            "failures": failures,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "provenance": info,
            "runs": raw,
        }
        path = os.path.join(OUT_DIR, f"result-{workload}-{args.seed}-trace{args.trace}.json")
        with open(path, "w") as fh:
            json.dump(result, fh, indent=1)
        key = f"{workload}." if len(chosen) > 1 else ""
        reported.update(
            {f"{key}{k}": {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        )
    print(json.dumps({
        "correct": all_correct,
        "attempted": total_attempted,
        "failed": total_failed,
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
