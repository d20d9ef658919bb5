#!/usr/bin/env python3
"""Host-time benchmark of the Decaf simulator.

Run from the repository root:

    python3 perfbench/run.py --workload nic-tx --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics (host time and memory; see
README.md).  ``--trace 1`` runs the same workload under cProfile and
reports the per-layer metrics instead.  Either way the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print
every metric with its unit, the sample counts and the provenance.  The
full result (and, when traced, the per-layer table with each layer's
hottest functions) is also written to ``.perfbench_out/`` under the
repository root.

The program is imported from ``src/`` next to this directory; without
it the benchmark exits with status 2 and prints no result.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import calibrate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

# Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_SAMPLES = 5
# Calibration chunks before and after each set-up sample: a set-up takes
# half a second or more, so one chunk each side would add its own noise.
SETUP_CHUNKS = 8
# Untraced units run for this long (at least one) before the traced
# ones in a --trace 1 run; their median wall per op is the denominator
# of trace.overhead_ratio.
UNTRACED_S = 3.0
SETUP_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "step_p50_ms": "ms",
    "step_p90_ms": "ms",
    "cpu_us_per_op": "us",
    "peak_rss_mb": "MB",
}


def import_program():
    """Put ``src/`` on the path and import the workloads, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write("perfbench: no program source at src/repro\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    try:
        import workloads  # noqa: F401  (the benchmark's own module)
    except ImportError as exc:
        sys.stderr.write("perfbench: cannot import the program: %s\n" % exc)
        sys.exit(2)
    return sys.modules["workloads"]


class Meter:
    """Accumulates the timed phase's wall and CPU time and its steps;
    with a profiler it also profiles exactly that phase.

    Calibration chunks (see calibrate.py) run right before and right
    after each timed body and, between two of its steps, every
    ``calibrate.INTERVAL_S``; their time is not counted.  The body's
    wall time, CPU time and steps are rescaled to the reference host
    speed by the chunks' mean.  ``raw_wall`` and ``raw_cpu`` keep the
    times as the clock read them.  Under a profiler only the chunks
    before and after the body run, outside the profile.
    """

    def __init__(self, profiler=None):
        self.profiler = profiler
        self.wall = 0.0
        self.cpu = 0.0
        self.raw_wall = 0.0
        self.raw_cpu = 0.0
        self.steps = []
        self.speeds = []
        self._chunks = []
        self._body_steps = []
        self._paused_wall = self._paused_cpu = 0.0
        self._next_chunk = None

    def run(self, body):
        """Time ``body()`` and return its result.

        The profiler is switched on before ``body`` is called, so every
        frame of the timed phase has a profiled caller.
        """
        profiler = self.profiler
        self._chunks = [calibrate.measure()]
        self._body_steps = []
        self._paused_wall = self._paused_cpu = 0.0
        if profiler is not None:
            profiler.enable()
        c0 = time.process_time()
        t0 = self._last = time.perf_counter()
        if profiler is None:
            self._next_chunk = t0 + calibrate.INTERVAL_S
        try:
            return body()
        finally:
            t = time.perf_counter()
            c = time.process_time()
            if profiler is not None:
                profiler.disable()
            self._next_chunk = None
            self._chunks.append(calibrate.measure())
            ref = calibrate.REF_CHUNK_S * len(self._chunks)
            wall_scale = ref / sum(w for w, _c in self._chunks)
            cpu_scale = ref / sum(c for _w, c in self._chunks)
            wall = t - t0 - self._paused_wall
            cpu = c - c0 - self._paused_cpu
            self.raw_wall += wall
            self.raw_cpu += cpu
            self.wall += wall * wall_scale
            self.cpu += cpu * cpu_scale
            self.steps.extend(s * wall_scale for s in self._body_steps)
            self.speeds.append(wall_scale)

    def step(self):
        now = time.perf_counter()
        self._body_steps.append(now - self._last)
        self._last = now
        if self._next_chunk is not None and now >= self._next_chunk:
            c0 = time.process_time()
            self._chunks.append(calibrate.measure())
            self._paused_cpu += time.process_time() - c0
            self._last = time.perf_counter()
            self._paused_wall += self._last - now
            self._next_chunk = self._last + calibrate.INTERVAL_S


def run_unit(wl, meter):
    """One unit; an exception fails the unit's planned ops.

    The previous unit's rigs are collected first, outside the timed
    phase, so every unit starts from the same heap.
    """
    gc.collect()
    wall0, cpu0 = meter.wall, meter.cpu
    try:
        unit = wl.unit(meter)
    except Exception:  # the simulated system raised: count, keep going
        unit = wl.failed_unit(traceback.format_exc())
    unit.wall = meter.wall - wall0
    unit.cpu = meter.cpu - cpu0
    return unit


def check_repeats(units):
    """Units of identical work must report identical simulated counts."""
    ref = units[0].counts
    for unit in units[1:]:
        if unit.counts != ref and not unit.failed:
            unit.failed = unit.ops
            unit.failures.append("counts %r != first unit %r"
                                 % (unit.counts, ref))


def _chunks_wall():
    """Mean wall time of SETUP_CHUNKS calibration chunks."""
    return statistics.fmean(calibrate.measure()[0]
                            for _ in range(SETUP_CHUNKS))


def measure_setup(args):
    """Median wall time from spawning a fresh interpreter to the
    workload being ready (imports, build, first insmod), each sample
    rescaled to the reference host speed like the timed phase; also
    returns the samples as measured."""
    samples = []
    raw = []
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_SAMPLES):
        before = _chunks_wall()
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            proc.wait(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != b"READY" or proc.returncode != 0:
            raise RuntimeError("setup probe failed (exit %s)"
                               % proc.returncode)
        after = _chunks_wall()
        raw.append(elapsed)
        samples.append(elapsed * 2 * calibrate.REF_CHUNK_S
                       / (before + after))
    return statistics.median(samples), samples, raw


def provenance(args):
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(SRC, "repro")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "host": platform.node(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measured_units(wl, meter, seconds, minimum=1):
    """Units until ``seconds`` have passed (at least ``minimum``)."""
    units = []
    deadline = time.perf_counter() + seconds
    while len(units) < minimum or time.perf_counter() < deadline:
        units.append(run_unit(wl, meter))
    return units


def finish(units):
    failures = [f for unit in units for f in unit.failures]
    ops = sum(unit.ops for unit in units)
    failed = sum(unit.failed for unit in units)
    return ops, failed, failures


def percentile(values, q):
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def end_to_end(args, wl):
    setup_s, setup_samples, setup_raw = measure_setup(args)
    wl.setup()
    wl.compute_reference()
    meter = Meter()
    units = measured_units(wl, meter, args.seconds)
    check_repeats(units)
    ops, failed, failures = finish(units)
    steps = meter.steps
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": ops / meter.wall,
        "step_p50_ms": statistics.median(steps) * 1e3,
        "step_p90_ms": percentile(steps, 90) * 1e3,
        "cpu_us_per_op": meter.cpu / ops * 1e6,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "setup_samples_s": setup_samples,
        "setup_raw_s": setup_raw,
        "units": len(units),
        "ops_per_unit": units[0].ops,
        "steps": len(steps),
        "step_percentiles_ms": {
            q: percentile(steps, q) * 1e3 for q in (50, 75, 90, 95, 99)},
        "unit_wall_s": [unit.wall for unit in units],
        "unit_cpu_s": [unit.cpu for unit in units],
        "error_frac": failed / ops,
        "timed_wall_s": meter.wall,
        "timed_cpu_s": meter.cpu,
        "raw_wall_s": meter.raw_wall,
        "raw_cpu_s": meter.raw_cpu,
        "raw_ops_per_s": ops / meter.raw_wall,
        "speed_scale_min_median_max": [
            min(meter.speeds), statistics.median(meter.speeds),
            max(meter.speeds)],
        "unit_counts": units[0].counts,
    }
    return ops, failed, failures, {
        name: {"value": value, "unit": END_TO_END_UNITS[name]}
        for name, value in metrics.items()}, detail


def _wall_per_op(units):
    return statistics.median(unit.wall / unit.ops for unit in units)


def traced(args, wl):
    import cProfile

    from layers import LAYERS, Attribution

    wl.setup()
    wl.compute_reference()
    plain = Meter()
    untraced = measured_units(wl, plain, UNTRACED_S)
    profiler = cProfile.Profile()
    meter = Meter(profiler)
    units = measured_units(wl, meter, args.seconds)
    check_repeats(units)
    ops, failed, failures = finish(units)
    attribution = Attribution(profiler, os.path.join(SRC, "repro"))
    table = attribution.layer_table()
    total_self = sum(row["self_s"] for row in table.values()) or 1.0

    first = units[0]
    totals = {}
    for unit in units:
        for key, value in unit.counts.items():
            totals[key] = totals.get(key, 0) + value

    def per_op(key):
        return first.counts.get(key, 0) / first.ops

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    metrics = {}
    for name in LAYERS:
        metrics[name + ".self_s"] = (table[name]["self_s"] / ops, "s/op")
        metrics[name + ".share"] = (table[name]["self_s"] / total_self,
                                    "frac")
        metrics[name + ".calls"] = (table[name]["calls"] / ops, "count/op")
    hits, misses = totals.get("skb_hits", 0), totals.get("skb_misses", 0)
    metrics.update({
        "kernel.events": (per_op("events"), "count/op"),
        "kernel.irqs": (per_op("irqs"), "count/op"),
        "kernel.host_ns_per_event": (ratio(
            table["kernel"]["self_s"], totals.get("events", 0), 1e9), "ns"),
        "kernel.ioports.accesses": (per_op("io_accesses"), "count/op"),
        "kernel.netdev.pkts": (per_op("pkts"), "count/op"),
        "kernel.netdev.napi_polls": (per_op("napi_polls"), "count/op"),
        "kernel.netdev.skb_pool_hit_rate": (ratio(hits, hits + misses),
                                            "frac"),
        "kernel.netdev.host_ns_per_pkt": (ratio(
            table["kernel.netdev"]["self_s"], totals.get("pkts", 0), 1e9),
            "ns"),
        "devices.host_ns_per_access": (ratio(
            table["devices"]["self_s"], totals.get("io_accesses", 0), 1e9),
            "ns"),
        "core.crossings": (per_op("crossings"), "count/op"),
        "core.bytes_marshaled": (per_op("bytes_marshaled"), "B/op"),
        "core.deferred_coalesce_ratio": (ratio(
            totals.get("deferred_coalesced", 0),
            totals.get("deferred_calls", 0)), "frac"),
        "core.host_us_per_crossing": (ratio(
            table["core"]["self_s"], totals.get("crossings", 0), 1e6), "us"),
        "recovery.faults": (per_op("faults"), "count/op"),
        "recovery.recoveries": (per_op("recoveries"), "count/op"),
        "trace.overhead_ratio": (
            _wall_per_op(units) / _wall_per_op(untraced),
            "ratio"),
    })
    detail = {
        "units": len(units),
        "ops_per_unit": first.ops,
        "traced_wall_s": meter.wall,
        "untraced_units": len(untraced),
        "first_unit_counts": first.counts,
        "total_counts": totals,
        "layers": {name: dict(table[name], top=attribution.top(name))
                   for name in LAYERS},
        "spans": [{"unit": i, "ops": unit.ops, "wall_s": unit.wall}
                  for i, unit in enumerate(units)],
    }
    return ops, failed, failures, {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in metrics.items()}, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    module = import_program()
    if args.workload not in module.WORKLOADS:
        parser.error("unknown workload %r (choose from %s)"
                     % (args.workload, ", ".join(module.WORKLOADS)))
    wl = module.WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        wl.setup()
        sys.stdout.write("READY\n")
        sys.stdout.flush()
        return 0

    prov = provenance(args)
    run = traced if args.trace else end_to_end
    ops, failed, failures, metrics, detail = run(args, wl)
    for failure in failures[:20]:
        print("FAILED: %s" % failure)
    for name, metric in metrics.items():
        print("%-34s %16.6g %s" % (name, metric["value"], metric["unit"]))
    print("error_frac %r (%d of %d ops failed); %d units, first of %d ops"
          % (failed / ops, failed, ops, detail["units"],
             detail["ops_per_unit"]))
    if "steps" in detail:
        print("steps: %d samples; setup samples: %d" % (
            detail["steps"], len(detail["setup_samples_s"])))
    print("provenance %s" % json.dumps(prov, sort_keys=True))
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, "%s-seed%d-trace%d.json"
                       % (args.workload, args.seed, args.trace))
    with open(out, "w") as fh:
        json.dump({"provenance": prov, "metrics": metrics, "detail": detail,
                   "failures": failures, "attempted": ops, "failed": failed},
                  fh, indent=1, sort_keys=True, default=str)
    print(json.dumps({"correct": failed == 0 and not failures,
                      "attempted": ops, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
