"""Differential property test: ``Kernel.consume`` against its old body.

The shipped ``consume`` advances the clock directly when nothing can
come due by ``now + ns``.  The oracle below is the body it replaced:
charge through ``CpuAccounting.charge``, then always ``run_until``.
Hypothesis generates random programs -- events in every context (some
CPU-targeted, some scheduler work that parks under atomic advances),
timers, cancels and requeues, interleaved with ``consume``, ``udelay``
and ``msleep`` at top level and inside event callbacks -- and runs each
on two kernels, one per ``consume``.  Dispatch logs, final clocks and
every CPU account must be identical, at 1 and 4 CPUs.
"""

import types

import pytest
from hypothesis import given, settings, strategies as st

from repro.kernel import make_kernel
from repro.kernel.context import HARDIRQ, PROCESS, SOFTIRQ
from repro.kernel.errors import SimulationError

CONTEXTS = (PROCESS, SOFTIRQ, HARDIRQ)
CATEGORIES = ("kernel", "io", "irq")


def _oracle_consume(self, ns, busy=True, category="kernel"):
    """``Kernel.consume`` as it was before the next-due shortcut."""
    if ns < 0:
        raise SimulationError("negative time consumption")
    cur = self.current_cpu
    if busy:
        self.cpu.charge(ns, category)
        cur.acct.charge(ns, category)
    if cur._defer_depth:
        cur._pending_charge_ns += ns
        return
    self.run_until(self.clock.now_ns + ns)


# A few round values make ties (an event due at exactly now + ns, or
# at exactly the memo) common; the range lets advances overtake
# several events at once.
_ns = st.one_of(st.sampled_from([0, 1, 10, 50, 100, 1000]),
                st.integers(0, 3000))

_leaf = st.one_of(
    st.tuples(st.just("consume"), _ns, st.booleans(),
              st.sampled_from(CATEGORIES)),
    st.tuples(st.just("udelay"), st.integers(0, 3)),
)

_body_op = st.one_of(
    _leaf,
    st.tuples(st.just("event"), _ns, st.sampled_from(CONTEXTS),
              st.one_of(st.none(), st.integers(0, 3)), st.booleans(),
              st.lists(_leaf, max_size=2)),
    st.tuples(st.just("timer"), _ns, st.lists(_leaf, max_size=2)),
    st.tuples(st.just("cancel"), st.integers(0, 50)),
)

_top_op = st.one_of(
    _body_op,
    st.tuples(st.just("event"), _ns, st.sampled_from(CONTEXTS),
              st.one_of(st.none(), st.integers(0, 3)), st.booleans(),
              st.lists(_body_op, max_size=3)),
    st.tuples(st.just("timer"), _ns, st.lists(_body_op, max_size=3)),
    st.tuples(st.just("requeue"), _ns, _ns),
    st.tuples(st.just("msleep"), st.integers(0, 1)),
    # Run ops with preemption off: scheduler work coming due parks.
    st.tuples(st.just("atomic"), st.lists(_body_op, max_size=3)),
)


class _Run:
    """Interprets one generated program on one kernel."""

    def __init__(self, nr_cpus, oracle):
        kernel = self.kernel = make_kernel(nr_cpus=nr_cpus)
        if oracle:
            kernel.consume = types.MethodType(_oracle_consume, kernel)
        self.log = []
        self.created = []

    def _callback(self, name, body):
        def fire():
            self.log.append((self.kernel.now_ns(), name))
            for op in body:
                self.do(op)
        return fire

    def do(self, op):
        kernel = self.kernel
        events = kernel.events
        kind = op[0]
        if kind == "consume":
            kernel.consume(op[1], busy=op[2], category=op[3])
        elif kind == "udelay":
            kernel.udelay(op[1])
        elif kind == "msleep":
            kernel.msleep(op[1])
        elif kind == "event":
            _, delay, context, cpu, needs_sched, body = op
            name = "e%d" % len(self.created)
            self.created.append(events.schedule_after(
                delay, self._callback(name, body), context=context,
                name=name, needs_sched=needs_sched and context == PROCESS,
                cpu=cpu))
        elif kind == "timer":
            _, delay, body = op
            name = "t%d" % len(self.created)
            self.created.append(events.schedule_timer_after(
                delay, self._callback(name, body), name=name))
        elif kind == "cancel":
            if self.created:
                self.created[op[1] % len(self.created)].cancel()
        elif kind == "requeue":
            # Pop the next event due within the window and re-time it,
            # the way SMP dispatch defers an event past a busy window.
            _, window, delay = op
            ev = events.pop_due(kernel.now_ns() + window)
            if ev is not None:
                events.requeue(ev, kernel.now_ns() + delay)
        elif kind == "atomic":
            kernel.context.preempt_disable()
            try:
                for inner in op[1]:
                    self.do(inner)
            finally:
                kernel.context.preempt_enable()

    def run(self, program):
        try:
            for op in program:
                self.do(op)
                # Where each op left the clock: an event that should
                # have fired inside an advance but fired later shows.
                self.log.append(("after", self.kernel.now_ns(),
                                 self.kernel.events_dispatched))
            self.kernel.consume(10_000)
            self.kernel.run_for_ns(100_000)
        except Exception as exc:  # both kernels must fail alike
            self.log.append(("raised", type(exc).__name__, str(exc)))
        return self.observed()

    def observed(self):
        kernel = self.kernel
        accounts = [kernel.cpu] + [vcpu.acct for vcpu in kernel.cpus]
        return {
            "log": self.log,
            "now_ns": kernel.now_ns(),
            "accounts": [(a.busy_ns, list(a._by_category.items()),
                          a.last_category) for a in accounts],
            "busy_until_ns": [vcpu.busy_until_ns for vcpu in kernel.cpus],
            "events_dispatched": kernel.events_dispatched,
            "softirq_dispatches": kernel.softirq_dispatches,
            "parked": len(kernel._parked_process_events),
            "queued": len(kernel.events),
        }


@pytest.mark.parametrize("nr_cpus", [1, 4])
@given(program=st.lists(_top_op, max_size=25))
@settings(max_examples=300, deadline=None)
def test_consume_matches_pre_shortcut_body(nr_cpus, program):
    shipped = _Run(nr_cpus, oracle=False).run(program)
    oracle = _Run(nr_cpus, oracle=True).run(program)
    assert shipped == oracle
