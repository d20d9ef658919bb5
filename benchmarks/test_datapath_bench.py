"""Datapath ablation: per-packet interrupts vs NAPI-style polling.

Same workload (netperf-recv from a deterministic traffic generator),
same drivers, two interrupt schemes:

* ``irq_mode="irq"``  -- the seed path: one interrupt per packet (the
  E1000's ITR window is forced to 0), ``netif_rx`` with a fresh ``bytes``
  per packet;
* ``irq_mode="napi"`` -- one interrupt schedules a softirq poll that
  drains the ring under a budget, zero-copy pooled skbs, batched
  protocol-stack charging.

The virtual workload is byte-identical either way (asserted via a
payload digest), so the wall-clock ratio isolates the simulator's own
per-packet datapath cost -- the quantity NAPI exists to amortize.
Results go to ``BENCH_datapath.json``; virtual-time CPU utilization is
reported alongside, Table 3-style.

The gates are absolute: each ablation's fast side (napi, or compiled
loops) must hold a floor of wall-clock packets per second, rescaled to
the reference host speed the way perfbench rescales its timings (a
fixed calibration chunk from ``perfbench/calibrate.py`` runs right
before and right after every timed run).  ``wall_speedup`` is still
reported but not gated: both sides share the kernel, so a kernel
speed-up that helps the baseline more than the fast side would shrink
the ratio while every path got faster.
"""

import gc
import hashlib
import importlib.util
import json
import os
import statistics
import time

from repro.workloads.netperf import netperf_recv
from repro.workloads.rigs import make_8139too_rig, make_e1000_rig

RESULT_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                           "BENCH_datapath.json")

# Virtual seconds of receive per run; CI smoke can shrink it.
DURATION_S = float(os.environ.get("DATAPATH_BENCH_SECONDS", "0.2"))

_CALIBRATE = os.path.join(os.path.dirname(__file__), os.pardir,
                          "perfbench", "calibrate.py")
_spec = importlib.util.spec_from_file_location("perfbench_calibrate",
                                               _CALIBRATE)
calibrate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(calibrate)

# Calibration chunks on each side of a timed run; their mean is the
# host's speed at that moment.
HOST_CHUNKS = 8

# Floors on the fast side's rescaled wall pkts/s (reference host speed,
# see module docstring): 75% of the median of six runs of the commit
# that introduced them, before Kernel.consume's next-due shortcut
# (EXPERIMENTS.md "Compiled loop ablation").
FAST_SIDE_FLOORS = {
    "e1000_recv": ("napi", 82_500),
    "rtl8139_recv": ("napi", 33_000),
    "e1000_compiled": ("compiled", 128_300),
    "rtl8139_compiled": ("compiled", 149_800),
}


def _host_chunk_s():
    """Mean wall time of HOST_CHUNKS calibration chunks."""
    return statistics.fmean(calibrate.measure()[0]
                            for _ in range(HOST_CHUNKS))


def _recv_once(make_rig, msg_bytes=1500, burst=1):
    """One run: fresh rig, insmod, then timed netperf-recv with digest.

    Only the receive is timed (rig build and insmod are not), so the
    pkts/s do not depend on the run length.  Returns ``(result, digest,
    wall s, wall s rescaled to the reference host speed)``.
    """
    rig = make_rig()
    rig.insmod()
    digest = hashlib.sha256()

    update = digest.update

    def sink_extra(_dev, skb):
        # Hash while the (possibly pooled, zero-copy) view is valid;
        # hashlib takes the memoryview directly, no copy.
        update(skb.data)

    before = _host_chunk_s()
    t0 = time.perf_counter()
    result = netperf_recv(rig, duration_s=DURATION_S, msg_bytes=msg_bytes,
                          sink_extra=sink_extra, burst=burst)
    wall_s = time.perf_counter() - t0
    after = _host_chunk_s()
    rescaled_s = wall_s * 2 * calibrate.REF_CHUNK_S / (before + after)
    return result, digest.hexdigest(), wall_s, rescaled_s


def _bench_pair(fn_a, fn_b, repeats=3):
    """Interleaved best-of-N runs of two competing configurations.

    Returns, per side, the warm-up run's ``(result, digest)`` with the
    best wall seconds and the best rescaled seconds over the repeats.
    """
    out_a = fn_a()  # warm-up fills import/codec caches for both
    out_b = fn_b()
    best_a = [float("inf")] * 2
    best_b = [float("inf")] * 2
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            for fn, out, best in ((fn_a, out_a, best_a),
                                  (fn_b, out_b, best_b)):
                run = fn()
                # Determinism: every repeat reproduces the warm-up run.
                assert run[1] == out[1], "run is not deterministic"
                best[0] = min(best[0], run[2])
                best[1] = min(best[1], run[3])
    finally:
        if gc_was_enabled:
            gc.enable()
    return (out_a[:2], *best_a), (out_b[:2], *best_b)


def _section(result, digest, wall_s, rescaled_s):
    return {
        "virtual_s": result.duration_s,
        "wall_s": wall_s,
        "rescaled_wall_s": rescaled_s,
        "packets": result.packets,
        "bytes": result.bytes_moved,
        "throughput_mbps": result.throughput_mbps,
        "cpu_utilization_pct": 100 * result.cpu_utilization,
        "wall_packets_per_sec": result.packets / wall_s,
        "rescaled_packets_per_sec": result.packets / rescaled_s,
        "napi_polls": result.napi_polls,
        "napi_budget_exhaustions": result.napi_budget_exhaustions,
        "napi_pkts_per_poll":
            {str(k): v for k, v in sorted(result.napi_pkts_per_poll.items())},
        "skb_pool_hit_rate": result.skb_pool_hit_rate,
        "payload_sha256": digest,
    }


def _assert_fast_side_floor(name, section):
    """Gate the fast side's rescaled wall pkts/s against its floor."""
    side, floor = FAST_SIDE_FLOORS[name]
    pps = section[side]["rescaled_packets_per_sec"]
    assert pps >= floor, (
        "%s %s: %.0f rescaled wall pkts/s < floor %.0f (wall_speedup %.2f)"
        % (name, side, pps, floor, section["wall_speedup"]))


def _run_ablation(make_rig, table_printer, title, burst=1):
    (irq_out, irq_wall, irq_scaled), (napi_out, napi_wall, napi_scaled) = \
        _bench_pair(
            lambda: _recv_once(lambda: make_rig("irq"), burst=burst),
            lambda: _recv_once(lambda: make_rig("napi"), burst=burst),
        )
    irq_res, irq_digest = irq_out
    napi_res, napi_digest = napi_out

    # The ablation compares cost, never behaviour: both schemes must
    # deliver the identical packet stream to the identical sink.
    assert napi_digest == irq_digest, "payloads differ between modes"
    assert napi_res.packets == irq_res.packets

    irq_pps = irq_res.packets / irq_wall
    napi_pps = napi_res.packets / napi_wall
    speedup = napi_pps / irq_pps
    table_printer(
        title,
        ["Mode", "Pkts", "Wall s", "Pkts/s (wall)", "Pkts/s (rescaled)",
         "CPU% (virt)", "Polls", "Pool hit%"],
        [
            ("per-packet irq", irq_res.packets, "%.3f" % irq_wall,
             "%.0f" % irq_pps, "%.0f" % (irq_res.packets / irq_scaled),
             "%.1f" % (100 * irq_res.cpu_utilization),
             irq_res.napi_polls, "-"),
            ("napi", napi_res.packets, "%.3f" % napi_wall,
             "%.0f" % napi_pps, "%.0f" % (napi_res.packets / napi_scaled),
             "%.1f" % (100 * napi_res.cpu_utilization),
             napi_res.napi_polls,
             "%.1f" % (100 * napi_res.skb_pool_hit_rate)),
        ],
    )
    section = {
        "virtual_duration_s": DURATION_S,
        "irq": _section(irq_res, irq_digest, irq_wall, irq_scaled),
        "napi": _section(napi_res, napi_digest, napi_wall, napi_scaled),
        "wall_speedup": speedup,
        "payloads_identical": True,
    }
    return section, irq_res, napi_res


def test_e1000_recv_ablation(table_printer):
    """NAPI must hold its floor of rescaled wall-clock pkts/s.

    Both schemes run with *interpreted* driver loops (``compiled=False``)
    -- the seed condition -- so this test isolates the interrupt-scheme
    axis.  The loop-compiler axis is gated separately below; with
    compiled loops the per-packet-irq path gets fast enough that the
    NAPI-batching win shrinks, which is the compiler working as
    intended, not NAPI regressing.
    """
    section, irq_res, napi_res = _run_ablation(
        lambda irq_mode: make_e1000_rig(irq_mode=irq_mode, compiled=False),
        table_printer,
        "netperf-recv ablation: e1000 @ 1G (%.2g virtual s)" % DURATION_S)
    _merge_results({"e1000_recv": section})

    # The polled path actually polled, batched, and reused buffers.
    assert napi_res.napi_polls > 0
    assert irq_res.napi_polls == 0
    assert napi_res.skb_pool_hit_rate > 0.99
    assert sum(napi_res.napi_pkts_per_poll.values()) == napi_res.napi_polls
    _assert_fast_side_floor("e1000_recv", section)


def test_rtl8139_recv_ablation(table_printer):
    """100M chip under bursty arrivals (TCP windows / sender GRO).

    Both modes see the identical 8-frame bursts; the NAPI run
    additionally opens the chip's interrupt-coalescing window, so one
    interrupt schedules one poll that drains the whole burst.  At 100M
    the packet rate is ~12x lower than gigabit, so the win is smaller
    than e1000's.
    """
    def make_rig(irq_mode):
        # Interpreted loops on both sides (seed condition); see the
        # e1000 ablation docstring for why the loop-compiler axis is
        # held fixed here.
        return make_8139too_rig(
            irq_mode=irq_mode, compiled=False,
            rx_coalesce_ns=100_000 if irq_mode == "napi" else 0)

    section, _irq_res, napi_res = _run_ablation(
        make_rig, table_printer,
        "netperf-recv ablation: rtl8139 @ 100M (%.2g virtual s)" % DURATION_S,
        burst=8)
    _merge_results({"rtl8139_recv": section})
    assert napi_res.napi_polls > 0
    # The burst actually batched: the median poll drains more than one
    # packet (the 0.67x regression came from 1-packet polls).
    assert max(napi_res.napi_pkts_per_poll) > 1
    _assert_fast_side_floor("rtl8139_recv", section)


def _run_loop_ablation(make_rig, table_printer, title, msg_bytes, burst,
                       repeats=4):
    """Compiled loops vs the interpreted-loop ablation, same rig config.

    Identical interrupt scheme, identical virtual workload -- the only
    variable is whether the rx/tx ring loops run as pre-bound compiled
    closures or as the line-for-line interpreted originals.  The wall
    clock ratio is therefore the loop compiler's own win.
    """
    ((interp_out, interp_wall, interp_scaled),
     (comp_out, comp_wall, comp_scaled)) = _bench_pair(
        lambda: _recv_once(lambda: make_rig(False), msg_bytes, burst),
        lambda: _recv_once(lambda: make_rig(True), msg_bytes, burst),
        repeats=repeats,
    )
    interp_res, interp_digest = interp_out
    comp_res, comp_digest = comp_out

    # The compiled loops must be observably identical, byte for byte.
    assert comp_digest == interp_digest, (
        "payloads differ between loop modes")
    assert comp_res.packets == interp_res.packets

    interp_pps = interp_res.packets / interp_wall
    comp_pps = comp_res.packets / comp_wall
    speedup = comp_pps / interp_pps
    table_printer(
        title,
        ["Loops", "Pkts", "Wall s", "Pkts/s (wall)", "Pkts/s (rescaled)",
         "CPU% (virt)"],
        [
            ("interpreted", interp_res.packets, "%.3f" % interp_wall,
             "%.0f" % interp_pps,
             "%.0f" % (interp_res.packets / interp_scaled),
             "%.1f" % (100 * interp_res.cpu_utilization)),
            ("compiled", comp_res.packets, "%.3f" % comp_wall,
             "%.0f" % comp_pps, "%.0f" % (comp_res.packets / comp_scaled),
             "%.1f" % (100 * comp_res.cpu_utilization)),
        ],
    )
    section = {
        "virtual_duration_s": DURATION_S,
        "msg_bytes": msg_bytes,
        "burst": burst,
        "interpreted": _section(interp_res, interp_digest, interp_wall,
                                interp_scaled),
        "compiled": _section(comp_res, comp_digest, comp_wall, comp_scaled),
        "wall_speedup": speedup,
        "payloads_identical": True,
    }
    return section


def test_e1000_compiled_loop_ablation(table_printer):
    """Compiled rx loops must hold their floor of rescaled pkts/s.

    Measured on the per-packet-interrupt path (``e1000_clean_rx_irq``
    via ``netif_rx``): every packet pays the full ICR-read / stack
    charge / RDT hand-back sequence, which is where the interpreted
    access chain's cost lives.  Bursty gigabit arrivals (256-frame
    bursts of 256-byte frames) keep the event horizon far, so the
    compiled accessors stay on their memoized fast path.
    """
    section = _run_loop_ablation(
        lambda compiled: make_e1000_rig(irq_mode="irq", compiled=compiled),
        table_printer,
        "loop-compiler ablation: e1000 irq mode (%.2g virtual s)"
        % DURATION_S,
        msg_bytes=256, burst=256)
    _merge_results({"e1000_compiled": section})
    _assert_fast_side_floor("e1000_compiled", section)


def test_rtl8139_compiled_loop_ablation(table_printer):
    """Compiled rtl8139 poll must hold its floor of rescaled pkts/s.

    NAPI mode with a wide-open coalescing window: one interrupt drains
    a whole 64-frame burst through ``rtl8139_rx``, so nearly all wall
    time sits in the poll loop the compiler pre-binds (CR reads, ring
    header decode, CAPR hand-back per packet).
    """
    section = _run_loop_ablation(
        lambda compiled: make_8139too_rig(
            irq_mode="napi", rx_coalesce_ns=400_000, compiled=compiled),
        table_printer,
        "loop-compiler ablation: rtl8139 napi mode (%.2g virtual s)"
        % DURATION_S,
        msg_bytes=256, burst=64)
    _merge_results({"rtl8139_compiled": section})
    _assert_fast_side_floor("rtl8139_compiled", section)


def _merge_results(update):
    """Accumulate sections into BENCH_datapath.json across tests."""
    path = os.path.abspath(RESULT_PATH)
    results = {}
    if os.path.exists(path):
        try:
            with open(path) as fh:
                results = json.load(fh)
        except ValueError:
            results = {}
    results.update(update)
    with open(path, "w") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")
