#!/usr/bin/env python3
"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

For every workload it checks that

* a perturbed reference fingerprint makes the affected operations fail;
* a unit whose simulated counts differ from the first unit's fails;
* the simulated counts of the first unit repeat exactly in two fresh
  processes with the same seed;

and, for fleet-churn, that a teardown which does not restore the
pre-build gauges fails that fleet's ops.  Exits non-zero on the first failed
check.
"""

import json
import os
import subprocess
import sys

from run import Meter, check_repeats, import_program

SEED = 7


def _first_unit_counts(name):
    module = import_program()
    wl = module.WORKLOADS[name](SEED)
    wl.setup()
    wl.compute_reference()
    unit = wl.unit(Meter())
    print(json.dumps(unit.counts, sort_keys=True))


def _check(cond, message):
    if not cond:
        sys.stderr.write("selftest FAILED: %s\n" % message)
        sys.exit(1)
    print("ok  %s" % message)


def _perturbed_reference(module, name):
    wl = module.WORKLOADS[name](SEED)
    wl.setup()
    wl.compute_reference()
    clean = wl.unit(Meter())
    _check(clean.failed == 0, "%s: clean unit passes" % name)
    if name == "driver-lifecycle":
        key = wl.cycles[0]
        fp = wl.reference[key]
        wl.reference[key] = (fp[0] + 1,) + fp[1:]
        unit = wl.unit(Meter())
        expected = wl.cycles.count(key)
    elif name == "fleet-churn":
        first = wl.reference[0]
        wl.reference[0] = dict(first, irqs=first["irqs"] + 1)
        unit = wl.unit(Meter())
        expected = wl.ROUNDS
    else:
        for leg, fp in wl.reference.items():
            wl.reference[leg] = fp[:2] + ("0" * 64,) + fp[3:]
        unit = wl.unit(Meter())
        expected = unit.ops
    _check(unit.failed == expected,
           "%s: perturbed fingerprint fails %d of %d ops"
           % (name, unit.failed, unit.ops))

    again = wl.unit(Meter())
    again.failed = 0
    again.counts = dict(again.counts, events=again.counts["events"] + 1)
    check_repeats([clean, again])
    _check(again.failed == again.ops,
           "%s: a unit with different counts fails" % name)


def _fleet_teardown(module):
    wl = module.WORKLOADS["fleet-churn"](SEED)
    wl.setup()
    wl.compute_reference()
    gauges = module._fleet_gauges
    calls = []

    def leaky(kernel):
        # The second reading is the post-teardown one: one IRQ line
        # still held.
        calls.append(kernel)
        found = gauges(kernel)
        if len(calls) == 2:
            found["irq_lines"] += 1
        return found

    module._fleet_gauges = leaky
    try:
        unit = wl.unit(Meter())
    finally:
        module._fleet_gauges = gauges
    _check(unit.failed == wl.ROUNDS
           and any("teardown" in f for f in unit.failures),
           "fleet-churn: a teardown that misses its gauges fails")


def _repeats_across_processes(name):
    cmd = [sys.executable, os.path.abspath(__file__), "--counts", name]
    outs = [subprocess.run(cmd, capture_output=True, text=True, timeout=300,
                           check=True).stdout.strip().splitlines()[-1]
            for _ in range(2)]
    _check(outs[0] == outs[1],
           "%s: first-unit counts repeat across processes" % name)


def main():
    if len(sys.argv) == 3 and sys.argv[1] == "--counts":
        _first_unit_counts(sys.argv[2])
        return 0
    module = import_program()
    for name in module.WORKLOADS:
        _perturbed_reference(module, name)
    _fleet_teardown(module)
    for name in module.WORKLOADS:
        _repeats_across_processes(name)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
