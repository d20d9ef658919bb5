"""The compiled accessors' next-due bound and its one derivation.

A ``FastIo`` accessor advances the clock directly while ``now + cost``
lies before the event queue's ``next_due_memo``; on a miss it flushes
its batch and calls ``Kernel.consume``, which re-derives the bound
through ``EventQueue.next_due_time`` (heap head past cancelled entries,
against the timer wheel's front) and dispatches only when an event is
due.  These cases pin the edges of that shortcut.  ``consume`` makes
the same check on every advance; its own edges are pinned in
``test_consume_shortcut.py``.
"""

from repro.kernel import make_kernel
from repro.kernel.context import HARDIRQ
from repro.kernel.events import NEVER_NS
from repro.kernel.fastpath import FastIo

REG_BASE = 0xFEB0_0000


class _Reg:
    """A one-register MMIO device: reads return a constant."""

    def read(self, offset, size):
        return 0x1234

    def write(self, offset, value, size):
        pass


def _kernel_and_reader():
    kernel = make_kernel()
    kernel.io.register(REG_BASE, 0x100, _Reg(), "reg", is_mmio=True)
    fio = FastIo(kernel, is_mmio=True)
    return kernel, fio, fio.reader(REG_BASE, 4), kernel.costs.mmio_ns


def test_next_due_time_of_empty_queue_is_never():
    kernel = make_kernel()
    assert kernel.events.next_due_time() == NEVER_NS
    assert kernel.events.peek_time() is None


def test_next_due_time_skips_cancelled_heap_head():
    kernel = make_kernel()
    kernel.events.schedule_at(10, lambda: None).cancel()
    kernel.events.schedule_at(500, lambda: None)
    assert kernel.events.next_due_time() == 500
    assert kernel.events.peek_time() == 500


def test_next_due_time_takes_wheel_front_when_earlier():
    kernel = make_kernel()
    kernel.events.schedule_at(900, lambda: None)
    kernel.events.schedule_timer_at(300, lambda: None)
    assert kernel.events.next_due_time() == 300


def test_accessor_advances_clock_without_dispatch():
    kernel, fio, read, cost = _kernel_and_reader()
    kernel.events.schedule_at(100 * cost, lambda: None)
    before = kernel.events_dispatched
    for _ in range(9):
        assert read() == 0x1234
    assert kernel.now_ns() == 9 * cost
    assert kernel.events_dispatched == before
    assert kernel.events.next_due_memo[0] == 100 * cost
    fio.flush()
    assert kernel.io.mmio_accesses == 9


def test_event_at_exactly_target_fires_inside_access():
    kernel, _fio, read, cost = _kernel_and_reader()
    fired = []
    kernel.events.schedule_at(2 * cost,
                              lambda: fired.append(kernel.now_ns()))
    read()                          # derives the memo: next due at 2*cost
    assert kernel.events.next_due_memo[0] == 2 * cost
    read()                          # target == 2*cost: must dispatch
    assert fired == [2 * cost]
    assert kernel.now_ns() == 2 * cost


def test_schedule_after_memo_invalidates_it():
    kernel, _fio, read, cost = _kernel_and_reader()
    fired = []
    kernel.events.schedule_at(100 * cost, lambda: fired.append("far"))
    read()
    assert kernel.events.next_due_memo[0] == 100 * cost
    kernel.events.schedule_after(cost // 2, lambda: fired.append("near"))
    assert kernel.events.next_due_memo[0] == -1
    read()
    assert fired == ["near"]


def test_timer_arm_after_memo_invalidates_it():
    kernel, _fio, read, cost = _kernel_and_reader()
    fired = []
    kernel.events.schedule_timer_at(100 * cost, lambda: fired.append("far"))
    read()
    kernel.events.schedule_timer_after(cost // 2,
                                       lambda: fired.append("near"))
    assert kernel.events.next_due_memo[0] == -1
    read()
    assert fired == ["near"]


def test_requeue_after_memo_invalidates_it():
    kernel, _fio, read, cost = _kernel_and_reader()
    fired = []
    ev = kernel.events.schedule_at(cost // 2,
                                   lambda: fired.append(kernel.now_ns()))
    kernel.events.schedule_at(100 * cost, lambda: None)
    # Pop the near event the way SMP dispatch does, then re-time it.
    assert kernel.events.pop_due(cost // 2) is ev
    read()
    assert kernel.events.next_due_memo[0] == 100 * cost
    kernel.events.requeue(ev, cost + 1)
    assert kernel.events.next_due_memo[0] == -1
    read()
    assert fired == [cost + 1]


def test_cancelled_heap_head_does_not_block_fast_path():
    kernel, _fio, read, cost = _kernel_and_reader()
    fired = []
    head = kernel.events.schedule_at(1, lambda: fired.append("cancelled"))
    kernel.events.schedule_at(3 * cost, lambda: fired.append("live"))
    head.cancel()
    before = kernel.events_dispatched
    read()
    assert fired == []
    assert kernel.events_dispatched == before
    assert kernel.events.next_due_memo[0] == 3 * cost
    read()
    read()
    assert fired == ["live"]


def test_wheel_front_bounds_the_fast_path():
    kernel, _fio, read, cost = _kernel_and_reader()
    fired = []
    kernel.events.schedule_at(100 * cost, lambda: fired.append("heap"))
    kernel.events.schedule_timer_at(2 * cost, lambda: fired.append("wheel"))
    read()
    assert fired == []
    assert kernel.events.next_due_memo[0] == 2 * cost
    read()
    assert fired == ["wheel"]


def test_parked_process_event_runs_on_next_non_atomic_consume():
    kernel = make_kernel()
    ran = []
    # A workqueue-style item that must not run in atomic context.
    kernel.events.schedule_after(50, lambda: ran.append(kernel.now_ns()),
                                 needs_sched=True)
    # An interrupt handler burns past the item's due time: the nested
    # advance inside hardirq context parks it.
    kernel.events.schedule_at(
        20, lambda: kernel.consume(100, category="irq"), context=HARDIRQ)
    kernel.context.preempt_disable()
    kernel.consume(30)              # atomic: the irq runs, item parks
    assert ran == []
    assert len(kernel._parked_process_events) == 1
    kernel.context.preempt_enable()
    # Nothing else is queued; the parked item still runs on the next
    # non-atomic advance.
    assert kernel.events.next_due_time() == NEVER_NS
    kernel.consume(1)
    assert len(ran) == 1
    assert not kernel._parked_process_events
