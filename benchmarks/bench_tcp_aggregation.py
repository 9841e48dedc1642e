"""§4.2 TCP results (reported in the paper's text, reproduced as a table).

===============================  ==========  ============
Configuration                    Paper       This repo
===============================  ==========  ============
TCP x1, no compensation          3.8 Mb/s    (measured)
TCP x1, TWD delay compensation   68 Mb/s     (measured)
TCP x4, TWD delay compensation   70 Mb/s     (measured)
===============================  ==========  ============

Shape assertions: the uncompensated bond collapses to a small fraction
of the 80 Mb/s aggregate; compensation recovers most of it; four
parallel connections do at least as well as one.
"""

import pytest

from repro.lab import build_setup2
from repro.sim import mbps
from repro.sim.scheduler import NS_PER_SEC
from repro.usecases import deploy_hybrid_access

WARMUP_NS = 2 * NS_PER_SEC
DURATION_NS = 8 * NS_PER_SEC

RESULTS: dict[str, float] = {}
PAPER = {"disaster": 3.8, "compensated_x1": 68.0, "compensated_x4": 70.0}


def run_tcp(compensation: bool, flows: int) -> float:
    setup = build_setup2()
    deploy_hybrid_access(setup, weights=(5, 3), compensation=compensation)
    connections = [setup.net.tcp("S1", "S2", port=5000 + i) for i in range(flows)]
    setup.net.run(until_ns=WARMUP_NS)
    for sender, _ in connections:
        sender.start()
    setup.net.run(until_ns=WARMUP_NS + DURATION_NS)
    return sum(receiver.goodput_bps() for _s, receiver in connections)


CASES = {
    "disaster": (False, 1),
    "compensated_x1": (True, 1),
    "compensated_x4": (True, 4),
}


@pytest.mark.parametrize("case", list(CASES))
def test_tcp_case(benchmark, case):
    compensation, flows = CASES[case]
    goodput = benchmark.pedantic(run_tcp, args=(compensation, flows), rounds=1)
    RESULTS[case] = mbps(goodput)
    benchmark.extra_info["goodput_mbps"] = round(RESULTS[case], 1)
    benchmark.extra_info["paper_mbps"] = PAPER[case]


def test_tcp_table_shape_and_report(benchmark):
    if len(RESULTS) < len(CASES):
        pytest.skip("TCP cases did not run")
    benchmark.pedantic(lambda: None, rounds=1)
    print("\n=== §4.2 TCP over the 80 Mb/s bond (goodput, Mb/s) ===")
    print(f"  {'configuration':<18} {'paper':>8} {'measured':>10}")
    for case in CASES:
        print(f"  {case:<18} {PAPER[case]:>8.1f} {RESULTS[case]:>10.1f}")

    disaster = RESULTS["disaster"]
    one = RESULTS["compensated_x1"]
    four = RESULTS["compensated_x4"]
    # The collapse: a small fraction of the aggregate (paper: 3.8 of 80).
    assert disaster < 15
    # Compensation recovers most of the bond (paper: 68 of 80).
    assert one > 40
    assert one > 5 * disaster
    # Parallel connections fill the bond at least as well (paper: 70).
    assert four >= one * 0.95
    assert four < 85  # cannot exceed the physical aggregate
