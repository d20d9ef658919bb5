"""Datapath loop compiler: pre-bound primitives for the NIC hot loops.

``core/marshal.py`` compiled per-struct codecs: resolve the field
layout once, then run a flat closure per crossing.  This module applies
the same technique to the NIC receive loops.  At ring setup a driver
builds each hot loop as *one* closure -- the same closure on 1 and N
CPUs -- out of three primitives, with the whole call chain behind each
one resolved once:

- :meth:`FastIo.reader` / :meth:`FastIo.writer`: a compiled
  ``IoSpace.read``/``write`` for one fixed register.  The I/O region
  (one ``IoSpace._find`` per ring setup instead of one per access), the
  device handler's register hook or bound ``read``/``write``, and the
  access cost are pre-bound.
- :meth:`FastIo.stepper`: a compiled ``Kernel.consume(ns, True,
  category)`` for a per-packet CPU cost, e.g. the ``netif_rx`` stack
  charge of e1000's per-packet-interrupt path.
- ``FastIo.flush()``: writes the batched bookkeeping back.

Each primitive is observably identical to the interpreted call it
replaces: it advances the virtual clock exactly where the interpreted
path would *and fires any event that comes due* (consume is a sequence
point -- link ticks and IRQs land between register accesses), honours
wedged-register fault injection, and emits conformance trace taps in
the same order (reads tap after the device, writes before).  Two
bookkeeping streams are batched and written back by ``flush()``
instead of paid per access, both read only at reporting time: CPU
accounting (busy-ns + per-category totals, aggregate and current CPU,
unrolled as in ``Kernel.consume``) and the io access counters.

The clock itself is never batched.  Each advance is ``Kernel.consume``'s
next-due shortcut, inlined: while ``now + ns`` lies below the event
queue's ``next_due_memo`` (a lower bound on the next live event's time
that every insert resets) the primitive sets the clock with a single
comparison.  On a miss it flushes, then calls ``Kernel.consume``, which
re-derives the memo through ``EventQueue.next_due_time`` and either
sets the clock or dispatches through ``run_until`` (parked work
included) -- so a loop's batch is written back before any event its
primitives let run, and the queue's layout is read in
``kernel/events.py`` only.

Device models may expose ``reg_reader(off, size)`` /
``reg_writer(off, size)`` hooks returning a specialized closure for one
register (or None to decline); the compiler then bypasses the model's
generic ``read``/``write`` dispatch for that register.  The hook's
closure must be behaviourally identical to the generic path and must
stay valid across device resets (models keep their register files
identity-stable for this reason).

On an SMP kernel a primitive can run inside a CPU-targeted event, where
``consume`` defers the advance into the CPU's busy window
(``_pending_charge_ns``) instead of moving the global clock; the
primitives mirror that branch exactly, so per-queue drains overlap
across CPUs the same way interpreted ones do.

The ablation flag (``compiled=False`` on the rigs / ``make_module``)
skips closure construction entirely, keeping the interpreted loops as
the measured baseline.
"""


class FastIo:
    """Primitive factory + batched bookkeeping for one compiled loop.

    One instance per compiled closure (per ring / per vector); all
    primitives built from it share its pending cells, so a single
    ``flush()`` at drain exit settles the whole run's accounting.  A
    closure flushes before it calls code that may dispatch outside its
    primitives.  ``flush`` is built per instance, with the accounting
    objects pre-bound.
    """

    def __init__(self, kernel, is_mmio, category="io"):
        self._kernel = kernel
        self._is_mmio = is_mmio
        self._category = category
        costs = kernel.costs
        self._cost = costs.mmio_ns if is_mmio else costs.port_io_ns
        # Batched io access count, and one (category, [busy-ns]) cell
        # per charge stream: the accessors' first, then each stepper's.
        self._count = [0]
        self._cells = [(category, [0])]
        self.flush = self._compile_flush()

    def _compile_flush(self):
        kernel = self._kernel
        io = kernel.io
        is_mmio = self._is_mmio
        count_cell = self._count
        cells = self._cells
        agg = kernel.cpu
        agg_cat = agg._by_category

        def flush():
            """Write batched CPU accounting and io counters back."""
            count = count_cell[0]
            if count:
                count_cell[0] = 0
                if is_mmio:
                    io.mmio_accesses += count
                else:
                    io.port_accesses += count
            acct = None
            for category, cell in cells:
                ns = cell[0]
                if ns:
                    cell[0] = 0
                    # Kernel.consume's accounting, unrolled for the
                    # aggregate and the current CPU.
                    agg._busy_ns += ns
                    agg_cat[category] = agg_cat.get(category, 0) + ns
                    agg.last_category = category
                    if acct is None:
                        acct = kernel.current_cpu.acct
                        acct_cat = acct._by_category
                    acct._busy_ns += ns
                    acct_cat[category] = acct_cat.get(category, 0) + ns
                    acct.last_category = category

        return flush

    def _bind(self, addr, size):
        """Resolve the region once; return the pieces accessors share."""
        io = self._kernel.io
        region = io._find(addr, size, self._is_mmio)
        return (io, region.handler, addr - region.base, region.name,
                (1 << (8 * size)) - 1)

    def reader(self, addr, size):
        """Compiled ``IoSpace.read(addr, size)`` for one fixed register."""
        io, handler, off, rname, mask = self._bind(addr, size)
        mk = getattr(handler, "reg_reader", None)
        hread = mk(off, size) if mk is not None else None
        if hread is None:
            generic = handler.read
            hread = lambda: generic(off, size)  # noqa: E731
        cost = self._cost
        category = self._category
        count = self._count
        pending = self._cells[0][1]
        kernel = self._kernel
        clock = kernel.clock
        memo = kernel.events.next_due_memo
        consume = kernel.consume
        wedged = io._wedged
        flush = self.flush
        smp = kernel.nr_cpus > 1

        def read():
            # Inlined IoSpace.read + consume; see module docstring.
            count[0] += 1
            if smp and kernel.current_cpu._defer_depth:
                pending[0] += cost
                kernel.current_cpu._pending_charge_ns += cost
            else:
                target = clock._now_ns + cost
                if target < memo[0]:
                    clock._now_ns = target
                    pending[0] += cost
                else:
                    flush()
                    consume(cost, True, category)
            if wedged:
                forced = wedged.get(addr)
                if forced is not None:
                    return forced & mask
            value = hread() & mask
            tap = io.trace_tap
            if tap is not None:
                tap("r", rname, off, size, value)
            return value

        return read

    def writer(self, addr, size):
        """Compiled ``IoSpace.write(addr, v, size)`` for one register."""
        io, handler, off, rname, mask = self._bind(addr, size)
        mk = getattr(handler, "reg_writer", None)
        hwrite = mk(off, size) if mk is not None else None
        if hwrite is None:
            generic = handler.write
            hwrite = lambda v: generic(off, v, size)  # noqa: E731
        cost = self._cost
        category = self._category
        count = self._count
        pending = self._cells[0][1]
        kernel = self._kernel
        clock = kernel.clock
        memo = kernel.events.next_due_memo
        consume = kernel.consume
        wedged = io._wedged
        flush = self.flush
        smp = kernel.nr_cpus > 1

        def write(value):
            count[0] += 1
            if smp and kernel.current_cpu._defer_depth:
                pending[0] += cost
                kernel.current_cpu._pending_charge_ns += cost
            else:
                target = clock._now_ns + cost
                if target < memo[0]:
                    clock._now_ns = target
                    pending[0] += cost
                else:
                    flush()
                    consume(cost, True, category)
            if wedged and addr in wedged:
                return
            value &= mask
            tap = io.trace_tap
            if tap is not None:
                tap("w", rname, off, size, value)
            hwrite(value)

        return write

    def stepper(self, category):
        """Compiled ``Kernel.consume(ns, True, category)``, batched.

        Returns ``step(ns)``: the same clock advance and sequence point
        as ``consume``, with the CPU charge batched into this
        instance's ``flush()`` like the accessors'.
        """
        cell = [0]
        self._cells.append((category, cell))
        kernel = self._kernel
        clock = kernel.clock
        memo = kernel.events.next_due_memo
        consume = kernel.consume
        flush = self.flush
        smp = kernel.nr_cpus > 1

        def step(ns):
            if smp and kernel.current_cpu._defer_depth:
                cell[0] += ns
                kernel.current_cpu._pending_charge_ns += ns
            else:
                target = clock._now_ns + ns
                if target < memo[0]:
                    clock._now_ns = target
                    cell[0] += ns
                else:
                    flush()
                    consume(ns, True, category)

        return step
