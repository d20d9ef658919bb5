"""The four benchmark workloads, driven through the public ``repro`` API.

Each workload builds its inputs from the benchmark seed, sets itself up
(imports, rig or fleet build, first ``insmod``), computes its reference
outside the timed phase, and then runs *units* of work on request:

* nic-tx / nic-rx: one round = one fresh decaf e1000 leg and one fresh
  decaf rtl8139 leg over the seeded frame sequence;
* driver-lifecycle: one round = 15 warm cycles (each of the five decaf
  drivers three times, one of the three with a supervised fault);
* fleet-churn: six fresh fleets, each run for 200 tick rounds by the
  fleet harness's own loop, then torn down.

The runner times only the body a unit hands to ``meter.run``; rig
construction between legs is outside the timed phase.  Every simulated
count is read after the datapath has flushed (after ``dev_close`` /
``rmmod`` / the fleet loop's final settle).
"""

import hashlib
import random

from repro.faults import FaultPlan, FaultSpec
from repro.kernel import NETDEV_TX_OK, SkBuff
from repro.devices import TrafficGenerator
from repro.kernel.sound import SNDRV_PCM_TRIGGER_START, SNDRV_PCM_TRIGGER_STOP
from repro.workloads import (
    make_8139too_rig,
    make_e1000_rig,
    make_ens1371_rig,
    make_psmouse_rig,
    make_uhci_rig,
)

MS = 1_000_000
SIZES = (64, 512, 1500)
NICS = (("e1000", make_e1000_rig), ("rtl8139", make_8139too_rig))


class WorkloadError(RuntimeError):
    """The simulated system raised or wedged during a unit."""


class Unit:
    """What one unit of work did: ops, failures, and its simulated counts."""

    def __init__(self, ops, failed=0, counts=None, failures=()):
        self.ops = ops
        self.failed = failed
        self.counts = counts or {}
        self.failures = list(failures)


# -- simulated counters ----------------------------------------------------------

COUNT_KEYS = ("events", "irqs", "io_accesses", "pkts", "napi_polls",
              "skb_hits", "skb_misses", "crossings", "bytes_marshaled",
              "deferred_calls", "deferred_coalesced", "faults",
              "recoveries")


def kernel_counts(kernel):
    """Kernel-side counters from kstat and the io space (read flushed)."""
    snap = kernel.kstat.snapshot()
    pkts = sum(v for k, v in snap.items()
               if k.startswith("net.") and (k.endswith(".tx_packets")
                                            or k.endswith(".rx_packets")))
    hits = misses = 0
    for stats in kernel.net.skb_pool_stats().values():
        hits += stats["hits"]
        misses += stats["misses"]
    io = kernel.io
    return {
        "events": kernel.events_dispatched,
        "irqs": snap.get("irq.delivered", 0),
        "io_accesses": io.mmio_accesses + io.port_accesses,
        "pkts": pkts,
        "napi_polls": snap.get("napi.polls", 0),
        "skb_hits": hits,
        "skb_misses": misses,
    }


def xpc_counts(xpcs):
    out = {"crossings": 0, "bytes_marshaled": 0, "deferred_calls": 0,
           "deferred_coalesced": 0}
    for xpc in xpcs:
        out["crossings"] += xpc.kernel_user_crossings
        out["bytes_marshaled"] += xpc.bytes_marshaled
        out["deferred_calls"] += xpc.deferred_calls
        out["deferred_coalesced"] += xpc.deferred_coalesced
    return out


def leg_counts(kernel, xpcs):
    return {**kernel_counts(kernel), **xpc_counts(xpcs)}


def diff_counts(after, before):
    return {k: after.get(k, 0) - before.get(k, 0) for k in COUNT_KEYS}


def add_counts(total, delta):
    for k in COUNT_KEYS:
        total[k] = total.get(k, 0) + delta.get(k, 0)
    return total


# -- network legs ---------------------------------------------------------------


def _payloads(rng):
    return {size: bytes(rng.getrandbits(8) for _ in range(size))
            for size in SIZES}


def _open(rig):
    kernel = rig.kernel
    rig.insmod()
    dev = rig.netdev()
    if dev is None or kernel.net.dev_open(dev) != 0:
        raise WorkloadError("%s: dev_open failed" % rig.name)
    kernel.run_for_ms(50)
    return dev


def _wait(kernel):
    t = kernel.events.peek_time()
    if t is None:
        raise WorkloadError("device wedged: queue stopped, no events pending")
    kernel.run_until(t)


def tx_leg(make_rig, decaf, sizes, payloads, meter):
    """Closed-loop saturating send of ``sizes`` frames; returns
    (fingerprint, counts, frames).  One step per virtual ms."""
    rig = make_rig(decaf=decaf)
    kernel = rig.kernel
    digest = hashlib.sha256()
    wire = [0, 0]

    def peer(frame):
        wire[0] += 1
        wire[1] += len(frame)
        digest.update(frame)

    rig.link.peer_rx = peer
    dev = _open(rig)
    xpcs = [rig.xpc] if decaf else []
    before = leg_counts(kernel, xpcs)
    clock = kernel.clock
    xmit = kernel.net.dev_queue_xmit
    stopped = dev.netif_queue_stopped
    frames = [payloads[size] for size in sizes]
    step = meter.step

    def send():
        start = clock.now_ns
        next_step = start + MS
        for payload in frames:
            while stopped() or xmit(dev, SkBuff(payload)) != NETDEV_TX_OK:
                _wait(kernel)
            if clock.now_ns >= next_step:
                step()
                while next_step <= clock.now_ns:
                    next_step += MS
        accepted_ns = clock.now_ns - start
        kernel.run_for_ms(2)
        return accepted_ns

    accepted_ns = meter.run(send)
    kernel.net.dev_close(dev)
    # dev_close flushed the compiled datapath's batched counters; read
    # before rmmod unregisters the netdev (and its kstat provider).
    counts = diff_counts(leg_counts(kernel, xpcs), before)
    rig.rmmod()
    return ((wire[0], wire[1], digest.hexdigest(), accepted_ns), counts,
            len(frames))


class _SeededGenerator(TrafficGenerator):
    """The link's TrafficGenerator, injecting a seeded payload."""

    def __init__(self, kernel, link, payload, utilization):
        super().__init__(kernel, link, frame_bytes=len(payload),
                         utilization=utilization)
        self._seeded = payload

    def start(self, stop_at_ns=None):
        super().start(stop_at_ns)
        self._payload = self._seeded


def rx_leg(make_rig, decaf, segments, payloads, meter, utilization=0.95):
    """Open-loop receive of ``segments`` [(size, ms)] at ``utilization``
    of line rate; returns (fingerprint, counts, packets delivered)."""
    rig = make_rig(decaf=decaf)
    kernel = rig.kernel
    digest = hashlib.sha256()
    got = [0, 0]

    def sink(_dev, skb):
        data = skb.data
        got[0] += 1
        got[1] += len(data)
        digest.update(data)

    dev = _open(rig)
    kernel.net.rx_sink = sink
    xpcs = [rig.xpc] if decaf else []
    before = leg_counts(kernel, xpcs)
    clock = kernel.clock
    run_until = kernel.run_until
    start = clock.now_ns
    step = meter.step

    def receive():
        for size, ms in segments:
            seg_start = clock.now_ns
            gen = _SeededGenerator(kernel, rig.link, payloads[size],
                                   utilization)
            gen.start(stop_at_ns=seg_start + ms * MS)
            for i in range(1, ms + 1):
                run_until(seg_start + i * MS)
                step()
            gen.stop()
        kernel.run_for_ms(2)

    meter.run(receive)
    elapsed_ns = clock.now_ns - start
    kernel.net.rx_sink = None
    kernel.net.dev_close(dev)
    counts = diff_counts(leg_counts(kernel, xpcs), before)
    rig.rmmod()
    return (got[0], got[1], digest.hexdigest(), elapsed_ns), counts, got[0]


def cold_insmod(makers):
    """The first decaf insmod of each driver: runs DriverSlicer and
    generates the codecs that every later (warm) insmod reuses."""
    for _name, make_rig in makers:
        rig = make_rig(decaf=True)
        rig.insmod()
        rig.rmmod()


class _NullMeter:
    """Runs a body untimed (reference runs)."""

    def run(self, body):
        return body()

    def step(self):
        pass


NULL_METER = _NullMeter()


class _NicWorkload:
    """Shared shape of nic-tx and nic-rx: two legs per round, both
    compared against the legacy driver's fingerprint on the same input."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.payloads = _payloads(self.rng)
        self.reference = {}

    def setup(self):
        cold_insmod(NICS)

    def compute_reference(self):
        for name, make_rig in NICS:
            fp, _counts, _n = self.leg(make_rig, False, self.inputs[name],
                                       self.payloads, NULL_METER)
            self.reference[name] = fp

    def failed_unit(self, reason):
        planned = sum(self.planned.values())
        return Unit(planned, planned, failures=[reason])

    def unit(self, meter):
        ops = failed = 0
        counts = {}
        failures = []
        for name, make_rig in NICS:
            planned = self.planned[name]
            try:
                fp, delta, done = self.leg(make_rig, True, self.inputs[name],
                                           self.payloads, meter)
            except WorkloadError as exc:
                ops += planned
                failed += planned
                failures.append("%s: %s" % (name, exc))
                continue
            ops += done
            if fp != self.reference[name]:
                failed += done
                failures.append("%s: fingerprint %r != legacy %r"
                                % (name, fp, self.reference[name]))
            add_counts(counts, delta)
        return Unit(ops, failed, counts, failures)


class NicTx(_NicWorkload):
    """Saturating closed-loop send; an op is one frame put on the link."""

    # e1000 steps carry ~10x the frames of rtl8139 steps; these counts
    # make them about a quarter of all steps, so p50 falls inside the
    # rtl8139 steps and p90 inside the e1000 steps, away from the
    # boundary between the two.
    FRAMES = {"e1000": 3600, "rtl8139": 1200}

    def __init__(self, seed):
        super().__init__(seed)
        self.inputs = {}
        self.planned = {}
        for name, _make in NICS:
            n = self.FRAMES[name] // len(SIZES)
            sizes = [size for size in SIZES for _ in range(n)]
            self.rng.shuffle(sizes)
            self.inputs[name] = sizes
            self.planned[name] = len(sizes)

    leg = staticmethod(tx_leg)


class NicRx(_NicWorkload):
    """Open-loop receive at 95% line rate; an op is one packet delivered."""

    # Virtual ms per (NIC, size) segment, sized so each segment carries
    # roughly the same number of frames; each size appears twice per
    # leg, in seed order.
    SEGMENT_MS = {"e1000": {64: 1, 512: 5, 1500: 13},
                  "rtl8139": {64: 7, 512: 45, 1500: 125}}

    def __init__(self, seed):
        super().__init__(seed)
        self.inputs = {}
        for name, _make in NICS:
            order = list(SIZES) * 2
            self.rng.shuffle(order)
            self.inputs[name] = [(size, self.SEGMENT_MS[name][size])
                                 for size in order]
        self.planned = dict.fromkeys(self.inputs, 0)

    leg = staticmethod(rx_leg)

    def compute_reference(self):
        super().compute_reference()
        for name, fp in self.reference.items():
            self.planned[name] = fp[0]


# -- driver lifecycle ---------------------------------------------------------------

DRIVERS = (
    ("e1000", make_e1000_rig),
    ("rtl8139", make_8139too_rig),
    ("ens1371", make_ens1371_rig),
    ("uhci", make_uhci_rig),
    ("psmouse", make_psmouse_rig),
)
_MAKERS = dict(DRIVERS)


def _use(rig, name):
    """The cycle's use phase: 50 virtual ms of the device being open."""
    kernel = rig.kernel
    if name in ("e1000", "rtl8139"):
        dev = rig.netdev()
        if kernel.net.dev_open(dev) != 0:
            raise WorkloadError("%s: dev_open failed" % name)
        kernel.run_for_ms(50)
        kernel.net.dev_close(dev)
    elif name == "ens1371":
        sound = kernel.sound
        substream = sound.cards[0].pcms[0].playback
        if (sound.pcm_open(substream) != 0
                or sound.pcm_hw_params(substream, 44_100, 2, 2, 4096, 4) != 0
                or sound.pcm_prepare(substream) != 0
                or sound.pcm_trigger(substream, SNDRV_PCM_TRIGGER_START) != 0):
            raise WorkloadError("ens1371: pcm start failed")
        kernel.run_for_ms(50)
        sound.pcm_trigger(substream, SNDRV_PCM_TRIGGER_STOP)
        sound.pcm_close(substream)
    else:
        kernel.run_for_ms(50)


def lifecycle_cycle(name, fault):
    """build rig -> insmod -> use -> rmmod; returns (fingerprint, counts).

    With ``fault`` the loaded driver is supervised and an ``xpc_raise``
    fault is armed on its next crossing; the cycle waits (in virtual
    time) for the fault to fire and the supervisor to recover.
    """
    rig = _MAKERS[name](decaf=True)
    kernel = rig.kernel
    rig.insmod()
    xpc = rig.xpc
    if fault:
        rig.supervise()
        rig.inject_faults(FaultPlan([FaultSpec("xpc_raise")],
                                    name="bench-%s" % name))
    _use(rig, name)
    for _ in range(40):
        if not fault or rig.injector.plan.fired:
            break
        kernel.run_for_ms(50)
    for _ in range(200):
        if not rig.recovery_pending():
            break
        kernel.run_for_ms(5)
    fired, recovered, _lost = rig.fault_stats()
    healthy = not rig.channel.failed
    rig.rmmod()
    counts = leg_counts(kernel, [xpc])
    counts["faults"] = fired
    counts["recoveries"] = recovered
    fp = (counts["crossings"], counts["bytes_marshaled"], fired, recovered,
          healthy, kernel.clock.now_ns)
    return fp, counts


class DriverLifecycle:
    """Warm load/use/unload cycles over all five decaf drivers."""

    def __init__(self, seed):
        rng = random.Random(seed)
        cycles = []
        for name, _make in DRIVERS:
            cycles += [(name, False), (name, False), (name, True)]
        rng.shuffle(cycles)
        self.cycles = cycles
        self.reference = {}

    def setup(self):
        cold_insmod(DRIVERS)

    def compute_reference(self):
        for key in sorted(set(self.cycles)):
            fp, _counts = lifecycle_cycle(*key)
            self.reference[key] = fp

    def unit(self, meter):
        counts = {}
        failures = []
        step = meter.step

        def cycles():
            for key in self.cycles:
                try:
                    fp, delta = lifecycle_cycle(*key)
                except Exception as exc:  # a raising cycle is a failed op
                    failures.append("%s: %r" % (key, exc))
                    step()
                    continue
                step()
                add_counts(counts, delta)
                # Exactly the armed fault fired and recovered; channel
                # healthy.
                faults = 1 if key[1] else 0
                if (fp != self.reference[key]
                        or not (fp[4] and fp[2] == fp[3] == faults)):
                    failures.append("%s: fingerprint %r != reference %r"
                                    % (key, fp, self.reference[key]))

        meter.run(cycles)
        return Unit(len(self.cycles), len(failures), counts, failures)

    def failed_unit(self, reason):
        return Unit(len(self.cycles), len(self.cycles), failures=[reason])


# -- fleet churn ---------------------------------------------------------------


def _fleet_gauges(kernel):
    """Kernel occupancy that a full fleet teardown must restore."""
    io = kernel.io
    return {
        "irq_lines": sum(1 for line in kernel.irq._lines
                         if line.handler is not None),
        "io_regions": len(io._sorted[0]) + len(io._sorted[1]),
        "net_devices": len(kernel.net.devices),
        "usb_devices": len(kernel.usb.devices),
        "sound_cards": len(kernel.sound.cards),
        "input_devices": len(kernel.input.devices),
        # The kernel's own skb-pool arenas outlive any driver.
        "dma_allocations": sum(
            1 for region in kernel.memory.live_allocations()
            if not region.owner.startswith("skb-pool")),
        "kstat_providers": len(kernel.kstat._providers),
        "modules": len(kernel.modules.loaded),
    }


class _RoundClock:
    """Stands in for the fleet's kernel while the harness's loop runs.

    The loop ends every tick round with one ``run_for_ns(tick period)``
    on the harness's kernel, so each such call marks one step.  Every
    other attribute is the kernel's own; slots hold the kernel itself.
    """

    def __init__(self, kernel, step):
        self._kernel = kernel
        self._step = step

    def __getattr__(self, name):
        return getattr(self._kernel, name)

    def run_for_ns(self, delta_ns):
        self._kernel.run_for_ns(delta_ns)
        self._step()


class FleetChurn:
    """64-device fleets of the five legacy drivers under churn; an op
    and a step are one 1 ms tick round, a unit six fresh fleets run for
    200 rounds each."""

    N_DEVICES = 64
    # The harness's default run length: ten churn periods, and 200
    # rounds of 8 ticks rotate through the 64 slots 25 times.
    ROUNDS = 200
    # Fleets per unit, each with its own seed drawn from the benchmark
    # seed.  Which slots a churn event re-probes sets a fleet's host
    # work, so one fleet's work swings with its seed; six average it.
    FLEETS = 6

    def __init__(self, seed):
        rng = random.Random(seed)
        self.seeds = [rng.randrange(1 << 31) for _ in range(self.FLEETS)]
        self.reference = None

    def setup(self):
        from repro.fleet import FleetSpec

        # Legacy drivers and no faults: a decaf re-probe or a fault
        # restart stalls the whole fleet for hundreds of virtual ms,
        # and which slot the seed picks sets the stall, so the host
        # work would swing with the seed.  XPC and recovery are
        # measured on driver-lifecycle.
        self.specs = [FleetSpec(n_devices=self.N_DEVICES, seed=seed,
                                decaf_fraction=0.0, fault_period_ms=0)
                      for seed in self.seeds]
        self._build(self.specs[0])[0].teardown()

    @staticmethod
    def _build(spec):
        from repro.fleet import FleetHarness

        harness = FleetHarness(spec)
        gauges = _fleet_gauges(harness.kernel)
        harness.build()
        return harness, gauges

    def compute_reference(self):
        self.reference = [self._fleet(spec, NULL_METER, None)[0]
                          for spec in self.specs]

    def _fleet(self, spec, meter, reference):
        """Build, run and tear down one fleet; returns (counts,
        failures)."""
        harness, gauges = self._build(spec)
        kernel = harness.kernel
        before = kernel_counts(kernel)
        harness.kernel = _RoundClock(kernel, meter.step)
        try:
            meter.run(lambda: harness.run(self.ROUNDS))
        finally:
            harness.kernel = kernel
        counts = diff_counts(kernel_counts(kernel), before)
        harness.teardown()
        failures = []
        if reference is not None and counts != reference:
            failures.append("fleet seed %d: counts %r != reference %r"
                            % (spec.seed, counts, reference))
        after = _fleet_gauges(kernel)
        if after != gauges:
            failures.append("fleet seed %d: teardown left %r, expected %r"
                            % (spec.seed, after, gauges))
        return counts, failures

    def unit(self, meter):
        counts = {}
        failures = []
        failed = 0
        for spec, reference in zip(self.specs, self.reference):
            delta, problems = self._fleet(spec, meter, reference)
            add_counts(counts, delta)
            if problems:
                failed += self.ROUNDS
                failures += problems
        return Unit(self.ROUNDS * self.FLEETS, failed, counts, failures)

    def failed_unit(self, reason):
        ops = self.ROUNDS * self.FLEETS
        return Unit(ops, ops, failures=[reason])


WORKLOADS = {
    "nic-tx": NicTx,
    "nic-rx": NicRx,
    "driver-lifecycle": DriverLifecycle,
    "fleet-churn": FleetChurn,
}
