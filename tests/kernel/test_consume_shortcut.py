"""``Kernel.consume``'s next-due shortcut and its edges.

When nothing is parked and no live event is due by ``now + ns``,
``consume`` sets the clock directly instead of entering ``run_until``:
first against the event queue's ``next_due_memo``, then against a fresh
``EventQueue.next_due_time()`` (which refreshes the memo).  Both tests
are strict, so an event due at exactly ``now + ns`` still fires inside
the call.  These cases pin that shortcut to the ``run_until`` path it
replaces.
"""

import pytest

from repro.kernel import make_kernel
from repro.kernel.context import HARDIRQ
from repro.kernel.errors import SimulationError
from repro.kernel.events import NEVER_NS


def _counting_run_until(kernel):
    """Count ``run_until`` entries made through ``consume``."""
    calls = []
    real = kernel.run_until

    def run_until(target_ns):
        calls.append(target_ns)
        real(target_ns)

    kernel.run_until = run_until
    return calls


def test_shortcut_skips_run_until_and_refreshes_memo():
    kernel = make_kernel()
    calls = _counting_run_until(kernel)
    kernel.events.schedule_at(1000, lambda: None)
    kernel.consume(10)              # memo unknown: derives it
    assert kernel.events.next_due_memo[0] == 1000
    kernel.consume(10)              # memo hit
    assert kernel.now_ns() == 20
    assert calls == []
    assert kernel.events_dispatched == 0


def test_empty_queue_takes_the_shortcut():
    kernel = make_kernel()
    calls = _counting_run_until(kernel)
    kernel.consume(5)
    assert kernel.now_ns() == 5
    assert kernel.events.next_due_memo[0] == NEVER_NS
    assert calls == []


def test_event_at_exactly_target_fires_inside_consume():
    kernel = make_kernel()
    fired = []
    kernel.events.schedule_at(200, lambda: fired.append(kernel.now_ns()))
    kernel.consume(100)             # memo := 200
    assert kernel.events.next_due_memo[0] == 200
    kernel.consume(100)             # target == 200: must dispatch
    assert fired == [200]
    assert kernel.now_ns() == 200


def test_event_at_exactly_target_fires_with_stale_memo():
    kernel = make_kernel()
    fired = []
    kernel.events.schedule_at(100, lambda: fired.append(kernel.now_ns()))
    assert kernel.events.next_due_memo[0] == -1
    kernel.consume(100)             # fresh next_due_time() == target
    assert fired == [100]


def test_zero_ns_fires_an_event_due_now():
    kernel = make_kernel()
    kernel.consume(50)
    fired = []
    kernel.events.schedule_after(0, lambda: fired.append(kernel.now_ns()))
    kernel.consume(0)
    assert fired == [50]


@pytest.mark.parametrize("insert", ["schedule_after", "schedule_timer_at"])
def test_insert_after_shortcut_invalidates_memo(insert):
    kernel = make_kernel()
    fired = []
    kernel.events.schedule_at(1000, lambda: fired.append("far"))
    kernel.consume(10)
    assert kernel.events.next_due_memo[0] == 1000
    if insert == "schedule_after":
        kernel.events.schedule_after(5, lambda: fired.append("near"))
    else:
        kernel.events.schedule_timer_at(15, lambda: fired.append("near"))
    assert kernel.events.next_due_memo[0] == -1
    kernel.consume(10)
    assert fired == ["near"]
    assert kernel.now_ns() == 20


def test_requeue_after_shortcut_invalidates_memo():
    kernel = make_kernel()
    fired = []
    ev = kernel.events.schedule_at(5, lambda: fired.append(kernel.now_ns()))
    kernel.events.schedule_at(1000, lambda: None)
    # Pop the near event the way SMP dispatch does, then re-time it.
    assert kernel.events.pop_due(5) is ev
    kernel.consume(10)
    assert kernel.events.next_due_memo[0] == 1000
    kernel.events.requeue(ev, 15)
    assert kernel.events.next_due_memo[0] == -1
    kernel.consume(10)
    assert fired == [15]


def test_cancelled_heap_head_does_not_block_shortcut():
    kernel = make_kernel()
    calls = _counting_run_until(kernel)
    fired = []
    head = kernel.events.schedule_at(1, lambda: fired.append("cancelled"))
    kernel.events.schedule_at(300, lambda: fired.append("live"))
    head.cancel()
    kernel.consume(100)
    assert calls == []
    assert kernel.events.next_due_memo[0] == 300
    kernel.consume(200)
    assert fired == ["live"]
    assert calls == [300]


def test_wheel_front_bounds_shortcut():
    kernel = make_kernel()
    fired = []
    kernel.events.schedule_at(1000, lambda: fired.append("heap"))
    kernel.events.schedule_timer_at(200, lambda: fired.append("wheel"))
    kernel.consume(100)
    assert fired == []
    assert kernel.events.next_due_memo[0] == 200
    kernel.consume(100)
    assert fired == ["wheel"]
    kernel.consume(800)
    assert fired == ["wheel", "heap"]


def test_parked_process_event_blocks_memo_hit():
    kernel = make_kernel()
    ran = []
    # A far event keeps the memo high after the parking advance.
    kernel.events.schedule_at(10_000, lambda: None)
    kernel.events.schedule_after(50, lambda: ran.append(kernel.now_ns()),
                                 needs_sched=True)
    kernel.events.schedule_at(
        20, lambda: kernel.consume(100, category="irq"), context=HARDIRQ)
    kernel.context.preempt_disable()
    kernel.consume(30)              # atomic: the irq runs, the item parks
    assert ran == []
    assert len(kernel._parked_process_events) == 1
    kernel.consume(1)               # still atomic: stays parked
    assert ran == []
    kernel.context.preempt_enable()
    # Derive the memo by hand: the next advance would be a memo hit,
    # were nothing parked.
    kernel.events.next_due_memo[0] = kernel.events.next_due_time()
    assert kernel.now_ns() + 1 < kernel.events.next_due_memo[0]
    kernel.consume(1)
    assert len(ran) == 1
    assert not kernel._parked_process_events


def test_targeted_event_defers_time_into_busy_window():
    kernel = make_kernel(nr_cpus=2)
    seen = []

    def work():
        before = kernel.now_ns()
        kernel.consume(500, category="work")
        seen.append((before, kernel.now_ns(),
                     kernel.cpus[1]._pending_charge_ns))

    kernel.events.schedule_at(100, work, cpu=1)
    kernel.consume(200)
    # The clock did not move inside the event; the time went to CPU 1.
    assert seen == [(100, 100, 500)]
    assert kernel.cpus[1].busy_until_ns == 600
    assert kernel.cpus[1]._pending_charge_ns == 0
    assert kernel.cpus[1].acct.category_ns("work") == 500
    assert kernel.cpus[0].acct.category_ns("work") == 0
    assert kernel.cpu.category_ns("work") == 500
    assert kernel.now_ns() == 200


def test_busy_charges_aggregate_and_current_cpu():
    kernel = make_kernel()
    kernel.consume(40, category="io")
    kernel.consume(2, category="io")
    for acct in (kernel.cpu, kernel.current_cpu.acct):
        assert acct.busy_ns == 42
        assert acct.category_ns("io") == 42
        assert acct.last_category == "io"


def test_not_busy_charges_nothing():
    kernel = make_kernel()
    kernel.consume(1000, busy=False, category="sleep")
    assert kernel.now_ns() == 1000
    for acct in (kernel.cpu, kernel.current_cpu.acct):
        assert acct.busy_ns == 0
        assert acct.category_ns("sleep") == 0
        assert acct.last_category is None


def test_negative_ns_raises_and_changes_nothing():
    kernel = make_kernel()
    kernel.consume(10)
    with pytest.raises(SimulationError):
        kernel.consume(-1)
    assert kernel.now_ns() == 10
    assert kernel.cpu.busy_ns == 10
