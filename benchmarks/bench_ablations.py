"""Ablations of the paper's design choices (DESIGN.md §6).

Three sweeps beyond the paper's reported points:

* **Probing-ratio sweep** (§4.1): End.DM node throughput across ratios
  1:1 … 1:10000 — the two points of Figure 3, plus the whole curve.
  Expected: monotone non-decreasing with the ratio.
* **WRR weight sensitivity** (§4.2): UDP goodput across weight settings.
  Expected: goodput peaks when weights match the 50:30 capacity ratio —
  the paper's stated configuration rule ("the weights of the WRR match
  the uplink links capacities").
* **Compensation error sweep** (§4.2): TCP goodput as a function of the
  netem delay applied to the fast path.  Expected: a peak near the ideal
  half-gap (12.5 ms), degrading toward the uncompensated disaster at
  0 ms — the reason the TWD daemon measures instead of guessing.
"""

import pytest

from repro.bench import BATCH_SIZE, copy_batch, drive_batch
from repro.lab import build_setup2
from repro.sim import mbps
from repro.sim.scheduler import NS_PER_MS, NS_PER_SEC
from repro.usecases import deploy_hybrid_access

# --- probing-ratio sweep ------------------------------------------------------

RATIOS = (1, 10, 100, 1000, 10000)
RATIO_RESULTS: dict[int, float] = {}


@pytest.mark.parametrize("ratio", RATIOS)
def test_ratio_sweep_point(benchmark, ratio):
    from benchmarks.bench_fig3_delay_monitoring import make_tail

    node, templates, _events = make_tail(ratio)

    def setup():
        return (node, copy_batch(templates)), {}

    benchmark.pedantic(drive_batch, setup=setup, rounds=5, warmup_rounds=1)
    RATIO_RESULTS[ratio] = BATCH_SIZE / benchmark.stats.stats.min
    benchmark.extra_info["kpps"] = round(RATIO_RESULTS[ratio] / 1e3, 1)


def test_ratio_sweep_monotone(benchmark):
    if len(RATIO_RESULTS) < len(RATIOS):
        pytest.skip("sweep points did not run")
    benchmark.pedantic(lambda: None, rounds=1)
    print("\n=== End.DM throughput vs probing ratio ===")
    for ratio in RATIOS:
        print(f"  1:{ratio:<6} {RATIO_RESULTS[ratio] / 1e3:8.1f} kpps")
    # Sparser probing must never be meaningfully slower (generous noise
    # tolerance for adjacent points; the endpoints carry the signal).
    ordered = [RATIO_RESULTS[r] for r in RATIOS]
    for denser, sparser in zip(ordered, ordered[1:]):
        assert sparser > denser * 0.75
    assert RATIO_RESULTS[10000] > 3 * RATIO_RESULTS[1]


# --- WRR weight sensitivity ---------------------------------------------------------

WEIGHTS = ((1, 1), (5, 3), (3, 5), (9, 1))
WEIGHT_RESULTS: dict[tuple[int, int], float] = {}


def run_weights(weights) -> float:
    setup = build_setup2()
    deploy_hybrid_access(setup, weights=weights)
    meter = setup.net.sink("S2")
    flow = setup.net.trafgen("S1", dst="fc00:2::2", rate_bps=150e6, payload_size=1400)
    flow.start(duration_ns=NS_PER_SEC // 2)
    setup.net.run(until_ns=int(0.8 * NS_PER_SEC))
    return meter.goodput_bps()


@pytest.mark.parametrize("weights", WEIGHTS, ids=lambda w: f"{w[0]}-{w[1]}")
def test_wrr_weights_point(benchmark, weights):
    goodput = benchmark.pedantic(run_weights, args=(weights,), rounds=1)
    WEIGHT_RESULTS[weights] = goodput
    benchmark.extra_info["goodput_mbps"] = round(mbps(goodput), 1)


def test_wrr_weights_shape(benchmark):
    if len(WEIGHT_RESULTS) < len(WEIGHTS):
        pytest.skip("weight points did not run")
    benchmark.pedantic(lambda: None, rounds=1)
    print("\n=== UDP goodput vs WRR weights (links 50/30 Mb/s) ===")
    for weights in WEIGHTS:
        print(f"  {weights[0]}:{weights[1]:<3} {mbps(WEIGHT_RESULTS[weights]):6.1f} Mb/s")
    matched = WEIGHT_RESULTS[(5, 3)]
    # Capacity-matched weights beat both the inverted and the extreme split.
    assert matched > WEIGHT_RESULTS[(3, 5)]
    assert matched > WEIGHT_RESULTS[(9, 1)]
    # ... and at least match the naive equal split.
    assert matched >= WEIGHT_RESULTS[(1, 1)] * 0.98


# --- compensation error sweep ----------------------------------------------------------

DELAYS_MS = (0, 6, 12, 19, 30)
DELAY_RESULTS: dict[int, float] = {}


def run_fixed_compensation(delay_ms: int) -> float:
    setup = build_setup2()
    deploy_hybrid_access(setup, weights=(5, 3), compensation=False)
    # Apply a *fixed* delay to the fast (lte) path, standing in for the
    # TWD daemon's adaptive value.
    setup.net.netem("A", "lte", delay_ns=delay_ms * NS_PER_MS, seed=55)
    sender, receiver = setup.net.tcp("S1", "S2", port=5000)
    sender.start()
    setup.net.run(until_ns=6 * NS_PER_SEC)
    return receiver.goodput_bps()


@pytest.mark.parametrize("delay_ms", DELAYS_MS)
def test_compensation_error_point(benchmark, delay_ms):
    goodput = benchmark.pedantic(run_fixed_compensation, args=(delay_ms,), rounds=1)
    DELAY_RESULTS[delay_ms] = goodput
    benchmark.extra_info["goodput_mbps"] = round(mbps(goodput), 1)


def test_compensation_error_shape(benchmark):
    if len(DELAY_RESULTS) < len(DELAYS_MS):
        pytest.skip("compensation points did not run")
    benchmark.pedantic(lambda: None, rounds=1)
    print("\n=== TCP goodput vs fixed fast-path delay (ideal = 12.5 ms) ===")
    for delay_ms in DELAYS_MS:
        print(f"  {delay_ms:>3} ms  {mbps(DELAY_RESULTS[delay_ms]):6.1f} Mb/s")
    best = max(DELAYS_MS, key=lambda d: DELAY_RESULTS[d])
    # The optimum sits at or next to the ideal half-gap...
    assert best in (6, 12, 19)
    # ... and beats no compensation by a wide margin.
    assert DELAY_RESULTS[best] > 3 * DELAY_RESULTS[0]
