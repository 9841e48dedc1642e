"""§3.2 JIT ablation — "the throughput ... is divided by a factor of 1.8".

Measures each eBPF program's End.BPF datapath throughput on the two
execution engines: the interpreter and the JIT (the v2 translator:
region-specialised memory, threaded dispatch).  The paper reports the
interp-vs-JIT factor for Add TLV and notes "similar factors ... on other
programs with similar complexities" and that the factor grows with
instruction count — both properties asserted here.

The v2 rows are additionally held to the archived first-landing numbers
(``BENCH_pr4.json``): re-landing the batch-resident datapath must
reproduce the throughput that justified it, not merely beat the
interpreter, and the program-level factor must stay within 0.85 of the
archived factor of the v1 translator that v2 replaced.  Results are
written to ``BENCH_jit_ablation.json`` (override with
``REPRO_BENCH_JSON``) for CI to archive.
"""

import json
import os

import pytest

from repro.bench import BATCH_SIZE, copy_batch, drive_batch, make_router
from repro.net import EndBPF
from repro.progs import add_tlv_prog, end_prog, end_t_prog, tag_increment_prog
from repro.sim.trafgen import batch_srv6_udp

PROGRAMS = {
    "end": end_prog,
    "end_t": lambda jit: end_t_prog(254, jit=jit),
    "tag_increment": tag_increment_prog,
    "add_tlv": add_tlv_prog,
}

# jit= argument per engine row.
ENGINES = {"interp": False, "jit_v2": True}

# Archived v2 interp-relative datapath factors from the first landing
# (BENCH_pr4.json, jit_ablation.datapath_factors.*.jit_v2).  The floor
# leaves ~0.7 of headroom for host noise; dropping below it means the
# re-landed fast path lost what the revert was supposed to preserve.
PR4_V2_FACTORS = {"add_tlv": 2.73, "tag_increment": 2.39, "end_t": 1.71}
PR4_TOLERANCE = 0.7

# Archived program-level Add TLV factor of the v1 translator v2 replaced
# (BENCH_pr4.json, jit_ablation.program_level_add_tlv: jit_v1 77851.3 /
# interp 41872.5 pps).  v2 must not fall below 0.85 of it.
PR4_V1_PROGRAM_FACTOR = 1.86

RESULTS: dict[tuple[str, str], float] = {}


def build(name: str, jit):
    node = make_router()
    factory = PROGRAMS[name]
    prog = factory(jit=jit)
    node.add_route("fc00:e::100/128", encap=EndBPF(prog))
    templates = batch_srv6_udp(
        "fc00:1::1", ["fc00:e::100", "fc00:2::2"], BATCH_SIZE, payload_size=64
    )
    return node, templates


@pytest.mark.parametrize("engine", list(ENGINES))
@pytest.mark.parametrize("name", list(PROGRAMS))
def test_jit_ablation(benchmark, name, engine):
    node, templates = build(name, ENGINES[engine])

    def setup():
        return (node, copy_batch(templates)), {}

    benchmark.pedantic(drive_batch, setup=setup, rounds=6, warmup_rounds=1)
    RESULTS[(name, engine)] = benchmark.stats.stats.min
    benchmark.extra_info["kpps"] = round(BATCH_SIZE / benchmark.stats.stats.mean / 1e3, 1)


PROGRAM_LEVEL: dict[str, float] = {}


@pytest.mark.parametrize("engine", list(ENGINES))
def test_program_level_add_tlv(benchmark, engine):
    """Pure program-invocation cost — the quantity the paper's x1.8 JIT
    factor refers to (no datapath around it)."""
    from repro.net import make_srv6_udp_packet

    prog = add_tlv_prog(jit=ENGINES[engine])
    raw = bytes(
        make_srv6_udp_packet(
            "fc00:1::1", ["fc00:e::100", "fc00:2::2"], 1, 2, b"x" * 64
        ).data
    )

    def setup():
        hctx = prog.make_context(raw)
        hctx.hook = "seg6local"
        return (hctx,), {}

    benchmark.pedantic(prog.run, setup=setup, rounds=300, warmup_rounds=20)
    PROGRAM_LEVEL[engine] = benchmark.stats.stats.min


def test_program_level_jit_factor_report(benchmark):
    if len(PROGRAM_LEVEL) < len(ENGINES):
        pytest.skip("program-level benchmarks did not run")
    benchmark.pedantic(lambda: None, rounds=1)
    factor = PROGRAM_LEVEL["interp"] / PROGRAM_LEVEL["jit_v2"]
    print(f"\n=== program-level JIT factor (Add TLV): v2 x{factor:.2f}, "
          f"archived v1 x{PR4_V1_PROGRAM_FACTOR:.2f} (paper: x1.8) ===")
    benchmark.extra_info["program_level_jit_factor"] = round(factor, 2)
    assert factor > 1.2
    # v2 must not regress below the v1 translator it replaced.
    assert factor >= PR4_V1_PROGRAM_FACTOR * 0.85


def test_jit_factors_report(benchmark):
    if len(RESULTS) < len(ENGINES) * len(PROGRAMS):
        pytest.skip("ablation benchmarks did not run")
    benchmark.pedantic(lambda: None, rounds=1)
    print("\n=== JIT ablation (datapath throughput ratio vs interp) ===")
    factors: dict[str, dict[str, float]] = {}
    for name in PROGRAMS:
        interp = RESULTS[(name, "interp")]
        factors[name] = {
            engine: interp / RESULTS[(name, engine)]
            for engine in ENGINES
            if engine != "interp"
        }
        print(f"  {name:<15} v2 x{factors[name]['jit_v2']:.2f}")
    benchmark.extra_info["factors"] = {
        k: {e: round(f, 2) for e, f in v.items()} for k, v in factors.items()
    }

    # Programs that do real work benefit measurably from the JIT.
    assert factors["add_tlv"]["jit_v2"] > 1.1
    assert factors["tag_increment"]["jit_v2"] > 1.1
    # The factor grows with program complexity (paper: "expected to
    # increase when the number of instructions per BPF program increases").
    assert factors["add_tlv"]["jit_v2"] >= factors["end"]["jit_v2"] * 0.95
    # Hold the re-landed v2 datapath to the archived first-landing
    # factors (BENCH_pr4.json) within tolerance.
    for name, target in PR4_V2_FACTORS.items():
        measured = factors[name]["jit_v2"]
        assert measured >= target - PR4_TOLERANCE, (
            f"{name}: v2 datapath factor x{measured:.2f} fell below the "
            f"archived x{target:.2f} (tolerance {PR4_TOLERANCE})"
        )

    out = {
        "jit_ablation": {
            "datapath_factors": {
                k: {e: round(f, 2) for e, f in v.items()}
                for k, v in factors.items()
            },
            "engines_kpps": {
                f"{name}/{engine}": round(BATCH_SIZE / t / 1e3, 1)
                for (name, engine), t in sorted(RESULTS.items())
            },
            "program_level_add_tlv_kpps": {
                engine: round(1 / t / 1e3, 1)
                for engine, t in sorted(PROGRAM_LEVEL.items())
            },
            "pr4_targets": PR4_V2_FACTORS,
        }
    }
    out_path = os.environ.get("REPRO_BENCH_JSON", "BENCH_jit_ablation.json")
    with open(out_path, "w") as fh:
        json.dump(out, fh, indent=2)
    print(f"  written to {out_path}")
