"""Compiled/interpreted loop equivalence: same schedule, same bytes.

The loop compiler (``compiled=True``, the default) replaces the NIC
drivers' rx/tx ring loops with per-ring pre-bound closures.  The
contract is *observational identity*: for the same seeded workload
schedule, both loop modes must produce byte-identical payload streams
(per queue), identical device and stack counters, identical virtual
time and CPU accounting (aggregate and per vCPU), an identical dmesg,
and the identical register-access sequence: every access's (op,
region, offset, size, value, virtual clock) through the io trace tap.

Every config runs the deterministic netperf-recv generator through both
modes and diffs a deep snapshot.  Configs cover both NICs, both
interrupt schemes, the legacy and decaf drivers, and single-queue vs
4-CPU/4-queue SMP (where steering and per-vector affinity are live).
"""

import hashlib

import pytest

from repro.workloads.netperf import netperf_recv
from repro.workloads.rigs import make_8139too_rig, make_e1000_rig

# Virtual seconds per run: enough for thousands of frames through every
# ring wrap / coalescing / pending-queue edge, small enough for CI.
DURATION_S = 0.02
MSG_BYTES = 256
BURST = 32

CONFIGS = [
    # (id, factory kwargs minus `compiled`)
    ("e1000-irq-uni",
     lambda compiled: make_e1000_rig(irq_mode="irq", compiled=compiled)),
    ("e1000-irq-smp4",
     lambda compiled: make_e1000_rig(irq_mode="irq", nr_cpus=4,
                                     num_queues=4, compiled=compiled)),
    ("e1000-napi-uni",
     lambda compiled: make_e1000_rig(irq_mode="napi", compiled=compiled)),
    ("e1000-napi-smp4",
     lambda compiled: make_e1000_rig(irq_mode="napi", nr_cpus=4,
                                     num_queues=4, compiled=compiled)),
    ("e1000-napi-decaf",
     lambda compiled: make_e1000_rig(decaf=True, irq_mode="napi",
                                     compiled=compiled)),
    ("rtl8139-napi-uni",
     lambda compiled: make_8139too_rig(irq_mode="napi",
                                       rx_coalesce_ns=100_000,
                                       compiled=compiled)),
    ("rtl8139-napi-smp4",
     lambda compiled: make_8139too_rig(irq_mode="napi", nr_cpus=4,
                                       rx_coalesce_ns=100_000,
                                       compiled=compiled)),
    ("rtl8139-irq-uni",
     lambda compiled: make_8139too_rig(irq_mode="irq", compiled=compiled)),
    ("rtl8139-napi-decaf",
     lambda compiled: make_8139too_rig(decaf=True, irq_mode="napi",
                                       rx_coalesce_ns=100_000,
                                       compiled=compiled)),
]


def _snapshot(make_rig, compiled):
    rig = make_rig(compiled)
    kernel = rig.kernel
    clock = kernel.clock
    accesses = hashlib.sha256()

    def tap(op, region, offset, size, value):
        accesses.update(repr((op, region, offset, size, value,
                              clock.now_ns)).encode())

    kernel.io.trace_tap = tap
    rig.insmod()
    digests = {}

    def sink_extra(_dev, skb):
        q = getattr(skb, "queue", 0)
        d = digests.get(q)
        if d is None:
            d = digests[q] = hashlib.sha256()
        d.update(skb.data)

    result = netperf_recv(rig, duration_s=DURATION_S, msg_bytes=MSG_BYTES,
                          sink_extra=sink_extra, burst=BURST)
    dev = rig.netdev()
    return {
        "digests": {q: d.hexdigest() for q, d in sorted(digests.items())},
        "packets": result.packets,
        "bytes": result.bytes_moved,
        "napi_polls": result.napi_polls,
        "napi_pkts_per_poll": dict(result.napi_pkts_per_poll),
        "dev_stats": dev.stats.snapshot(),
        "nic_frames": rig.device.frames_received,
        "irq_delivered": kernel.irq.delivered,
        "irq_spurious": kernel.irq.spurious,
        "clock_ns": kernel.clock.now_ns,
        "busy_ns": kernel.cpu.busy_ns,
        "by_category": dict(kernel.cpu._by_category),
        "cpu_by_category": [dict(vcpu.acct._by_category)
                            for vcpu in kernel.cpus],
        "mmio_accesses": kernel.io.mmio_accesses,
        "port_accesses": kernel.io.port_accesses,
        "events_dispatched": kernel.events_dispatched,
        "register_accesses": accesses.hexdigest(),
        "dmesg": list(kernel.dmesg()),
    }


@pytest.mark.parametrize("cfg_id,make_rig", CONFIGS,
                         ids=[c[0] for c in CONFIGS])
def test_compiled_loops_are_equivalent(cfg_id, make_rig):
    interpreted = _snapshot(make_rig, compiled=False)
    compiled = _snapshot(make_rig, compiled=True)
    assert interpreted["packets"] > 0
    # Key-by-key so a failure names the diverging observable.
    for key in interpreted:
        assert compiled[key] == interpreted[key], (
            "%s diverges between loop modes in %s" % (key, cfg_id))
