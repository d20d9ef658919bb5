"""Differential property test: ``FastIo`` primitives against the slow path.

A compiled loop is built from ``FastIo`` readers, writers and batched
steps; each must be observably identical to ``IoSpace.read`` /
``IoSpace.write`` / ``Kernel.consume(ns, True, category)``, which
serve as the oracle.  Hypothesis generates random programs of those
operations, mixed with ``schedule_after``, ``schedule_timer_at``,
cancels, plain advances and preemption-off sections (scheduler work
coming due there parks), at top level and inside event callbacks
(some CPU-targeted, where the primitives take consume's deferral
branch).  Each program runs on two kernels -- one through the
primitives, one through the oracle -- with one register wedged in
each space, a doorbell register whose writes schedule events, and a
trace tap installed.

After every top-level op the clock, the order and time of fired events,
the values read and the tap stream must match.  Accounting is batched
by design, so it is compared where the compiled side settles it: after
each ``flush()`` (the aggregate and per-CPU category totals, and the io
counters).  As in the drivers' compiled loops, the compiled side
flushes before any call that may dispatch outside the primitives and
at the end of each event callback.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.kernel import make_kernel
from repro.kernel.context import HARDIRQ, PROCESS, SOFTIRQ
from repro.kernel.fastpath import FastIo

CONTEXTS = (PROCESS, SOFTIRQ, HARDIRQ)
STEP_CATEGORIES = ("netstack", "irq")

MMIO_BASE = 0xFEB0_0000
PORT_BASE = 0xC000
# Register offsets: a status register, a wedged one, a doorbell.
STATUS, WEDGED, DOORBELL = 0x0, 0x4, 0x8
REGS = (STATUS, WEDGED, DOORBELL)
WEDGED_VALUE = 0xDEAD_BEEF


class _Device:
    """Reads reflect earlier writes; doorbell writes schedule an event."""

    def __init__(self, run, name):
        self._run = run
        self._name = name
        self._writes = 0
        self._last = 0

    def read(self, offset, size):
        return (self._writes << 20) | (self._last & 0xFFFF) << 4 | offset

    def write(self, offset, value, size):
        self._writes += 1
        self._last = value
        if offset == DOORBELL:
            self._run.schedule_named(
                "%s.bell%d" % (self._name, self._writes), value % 700,
                HARDIRQ, None, ())


# Multiples of the access costs (250 ns MMIO, 1000 ns port) make ties
# common -- an event due at exactly the end of an access or step, or at
# exactly the memo; the range lets advances overtake several events.
_ns = st.one_of(st.sampled_from([0, 1, 250, 500, 750, 1000, 1250, 2000]),
                st.integers(0, 3000))

# Register ops address the loop's own space (MMIO or port).
_prim = st.one_of(
    st.tuples(st.just("read"), st.sampled_from(REGS)),
    st.tuples(st.just("write"), st.sampled_from(REGS),
              st.integers(0, 0xFFFF)),
    st.tuples(st.just("step"), _ns, st.sampled_from(STEP_CATEGORIES)),
)

_leaf = st.one_of(
    _prim,
    st.tuples(st.just("flush")),
    st.tuples(st.just("consume"), _ns),
)

# Event and timer callbacks are loops of their own; the boolean picks
# their space.
_body_op = st.one_of(
    _leaf,
    st.tuples(st.just("event"), _ns, st.sampled_from(CONTEXTS),
              st.one_of(st.none(), st.integers(0, 3)), st.booleans(),
              st.booleans(), st.lists(_prim, max_size=4)),
    st.tuples(st.just("timer"), _ns, st.booleans(),
              st.lists(_prim, max_size=3)),
    st.tuples(st.just("cancel"), st.integers(0, 50)),
)

_top_op = st.one_of(
    _body_op,
    st.tuples(st.just("event"), _ns, st.sampled_from(CONTEXTS),
              st.one_of(st.none(), st.integers(0, 3)), st.booleans(),
              st.booleans(), st.lists(_body_op, max_size=4)),
    st.tuples(st.just("timer"), _ns, st.booleans(),
              st.lists(_body_op, max_size=3)),
    # Preemption off: scheduler work coming due parks.
    st.tuples(st.just("atomic"), st.lists(_leaf, max_size=4)),
)


def _totals(acct):
    """Category totals; a zero-ns charge leaves no batched trace, and
    ``category_ns`` reads an absent category as 0 anyway."""
    return {category: ns for category, ns in acct._by_category.items()
            if ns}


class _CompiledLoop:
    """One compiled loop's primitives: a ``FastIo`` over one space."""

    def __init__(self, kernel, is_mmio):
        fio = FastIo(kernel, is_mmio=is_mmio)
        base, size = (MMIO_BASE, 4) if is_mmio else (PORT_BASE, 2)
        self._readers = {reg: fio.reader(base + reg, size) for reg in REGS}
        self._writers = {reg: fio.writer(base + reg, size) for reg in REGS}
        self._steps = {category: fio.stepper(category)
                       for category in STEP_CATEGORIES}
        self.flush = fio.flush

    def read(self, reg):
        return self._readers[reg]()

    def write(self, reg, value):
        self._writers[reg](value)

    def step(self, ns, category):
        self._steps[category](ns)


class _OracleLoop:
    """The same operations through ``IoSpace`` and ``Kernel.consume``."""

    def __init__(self, kernel, is_mmio):
        self._kernel = kernel
        self._is_mmio = is_mmio
        self._base, self._size = \
            (MMIO_BASE, 4) if is_mmio else (PORT_BASE, 2)

    def read(self, reg):
        return self._kernel.io.read(self._base + reg, self._size,
                                    self._is_mmio)

    def write(self, reg, value):
        self._kernel.io.write(self._base + reg, value, self._size,
                              self._is_mmio)

    def step(self, ns, category):
        self._kernel.consume(ns, True, category)

    def flush(self):
        pass


class _Run:
    """Interprets one generated program on one kernel.

    The top level (MMIO) and each event callback are separate loops,
    each with its own primitives, as each compiled closure in a driver
    has its own ``FastIo``.
    """

    def __init__(self, nr_cpus, compiled):
        kernel = self.kernel = make_kernel(nr_cpus=nr_cpus)
        io = kernel.io
        self.make_loop = _CompiledLoop if compiled else _OracleLoop
        self.log = []
        self.created = []
        io.register(MMIO_BASE, 0x100, _Device(self, "mmio"), "mmio",
                    is_mmio=True)
        io.register(PORT_BASE, 0x20, _Device(self, "port"), "port",
                    is_mmio=False)
        io.wedge(MMIO_BASE + WEDGED, WEDGED_VALUE)
        io.wedge(PORT_BASE + WEDGED, WEDGED_VALUE)
        io.trace_tap = self._tap
        self.loop = self.make_loop(kernel, True)

    def _tap(self, op, region, offset, size, value):
        self.log.append(("tap", op, region, offset, size, value,
                         self.kernel.now_ns()))

    def schedule_named(self, name, delay, context, cpu, body,
                       needs_sched=False, is_mmio=True):
        self.created.append(self.kernel.events.schedule_after(
            delay, self._callback(name, is_mmio, body), context=context,
            name=name,
            needs_sched=needs_sched and context == PROCESS, cpu=cpu))

    def _callback(self, name, is_mmio, body):
        def fire():
            self.log.append(("fire", name, self.kernel.now_ns()))
            outer = self.loop
            self.loop = self.make_loop(self.kernel, is_mmio)
            try:
                for op in body:
                    self.do(op)
                # A compiled loop settles its batch before it returns.
                self.loop.flush()
            finally:
                self.loop = outer
        return fire

    def do(self, op):
        kernel = self.kernel
        kind = op[0]
        if kind == "read":
            self.log.append(("read", self.loop.read(op[1])))
        elif kind == "write":
            self.loop.write(op[1], op[2])
        elif kind == "step":
            self.loop.step(op[1], op[2])
        elif kind == "flush":
            self.loop.flush()
            self.log.append(("flushed",) + self.accounting())
        elif kind == "consume":
            # Outside the primitives: settle the batch first.
            self.loop.flush()
            kernel.consume(op[1], True, "kernel")
        elif kind == "event":
            _, delay, context, cpu, needs_sched, is_mmio, body = op
            self.schedule_named("e%d" % len(self.created), delay, context,
                                cpu, body, needs_sched, is_mmio)
        elif kind == "timer":
            _, delay, is_mmio, body = op
            name = "t%d" % len(self.created)
            self.created.append(kernel.events.schedule_timer_at(
                kernel.now_ns() + delay, self._callback(name, is_mmio, body),
                name=name))
        elif kind == "cancel":
            if self.created:
                self.created[op[1] % len(self.created)].cancel()
        elif kind == "atomic":
            kernel.context.preempt_disable()
            try:
                for inner in op[1]:
                    self.do(inner)
            finally:
                kernel.context.preempt_enable()

    def accounting(self):
        kernel = self.kernel
        return (_totals(kernel.cpu), kernel.cpu.busy_ns,
                [(_totals(vcpu.acct), vcpu.acct.busy_ns)
                 for vcpu in kernel.cpus],
                kernel.io.mmio_accesses, kernel.io.port_accesses)

    def run(self, program):
        try:
            for op in program:
                self.do(op)
                self.log.append(("after", self.kernel.now_ns(),
                                 self.kernel.events_dispatched))
            self.loop.flush()
            self.kernel.consume(10_000)
            self.kernel.run_for_ns(100_000)
        except Exception as exc:  # both kernels must fail alike
            self.log.append(("raised", type(exc).__name__, str(exc)))
        kernel = self.kernel
        return {
            "log": self.log,
            "now_ns": kernel.now_ns(),
            "accounting": self.accounting(),
            "busy_until_ns": [vcpu.busy_until_ns for vcpu in kernel.cpus],
            "events_dispatched": kernel.events_dispatched,
            "parked": len(kernel._parked_process_events),
        }


@pytest.mark.parametrize("nr_cpus", [1, 4])
@given(program=st.lists(_top_op, max_size=20))
# Edges the random search reaches only rarely.  A step ending exactly
# on the memo (the first read derives it: next event at 1000 ns) must
# fire the event inside the step.
@example(program=[("event", 1000, PROCESS, None, False, True, []),
                  ("read", STATUS), ("step", 750, "netstack")])
# Work parked by an atomic advance runs on the next access.
@example(program=[("event", 0, PROCESS, None, True, True, []),
                  ("atomic", [("consume", 10)]), ("read", STATUS)])
# A step that dispatches flushes its batch first: the callback's
# snapshot sees the earlier step's charge.
@example(program=[("event", 1000, SOFTIRQ, None, False, True, [("flush",)]),
                  ("read", STATUS), ("step", 500, "netstack"),
                  ("step", 500, "netstack")])
@settings(max_examples=250, deadline=None)
def test_fastio_matches_ioport_and_consume(nr_cpus, program):
    compiled = _Run(nr_cpus, compiled=True).run(program)
    oracle = _Run(nr_cpus, compiled=False).run(program)
    assert compiled == oracle
