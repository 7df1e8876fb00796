"""The conventional sense-reversal barrier (paper Figure 2).

Also home to :class:`BarrierBase`, the machinery every barrier variant
shares: the check-in critical section, the last thread's
publish-and-release, the flag monitor, the coherence-driven flag spin,
the sleep on the flag (through the node's hybrid wake-up), the
spin-then-Halt wait, and trace instrumentation.
"""

from repro.errors import SimulationError
from repro.sim.events import AnyOf
from repro.sync.trace import BarrierTrace
from repro.telemetry.events import (
    BarrierCheckIn,
    BarrierDepart,
    BarrierRelease,
    SleepRecord,
    WakeUp,
)


def _increment(value):
    """The check-in's count update: one function, not a lambda a call."""
    return value + 1


class BarrierBase:
    """Shared structure of all barrier variants.

    Parameters
    ----------
    system:
        The :class:`~repro.machine.System` hosting the threads.
    domain:
        The application's :class:`~repro.predict.TimingDomain` (BRTS and
        shared-BIT bookkeeping). Required; the Baseline configuration
        simply leaves its predictor unused.
    n_threads:
        Number of participating threads.
    pc:
        Static identity of this barrier — the "program counter" used to
        index the predictor in SPMD codes (Section 3.2).
    trace:
        Optional shared :class:`~repro.sync.trace.BarrierTrace`.
    """

    #: Set by over-threaded variants (more threads than CPUs,
    #: Section 3.4.1); the dedicated-mode variants keep one per node.
    allow_overthreading = False

    def __init__(self, system, domain, n_threads, pc, trace=None):
        if n_threads < 1 or (
            n_threads > system.n_nodes and not self.allow_overthreading
        ):
            raise SimulationError(
                "n_threads={} invalid for {} nodes".format(
                    n_threads, system.n_nodes
                )
            )
        self.system = system
        self.sim = system.sim
        self.memsys = system.memsys
        self.domain = domain
        self.n_threads = n_threads
        self.pc = pc
        self.trace = trace if trace is not None else BarrierTrace()
        self.telemetry = system.telemetry
        self.count_addr = system.alloc_shared()
        self.flag_addr = system.alloc_shared()
        self._flag_line = self.memsys.line_of(self.flag_addr)
        self._local_sense = [0] * max(system.n_nodes, n_threads)
        #: Arrival count that releases the barrier: the full participant
        #: count. A seam the intentionally broken variants in
        #: :mod:`repro.sync.mutants` set differently.
        self._arrival_target = n_threads

    # -- pieces used by every variant ---------------------------------------

    def _flip_sense(self, thread_id):
        sense = 1 - self._local_sense[thread_id]
        self._local_sense[thread_id] = sense
        return sense

    def _check_in(self, node, thread_id=None):
        """Check in: ``count++`` (S1 in Figure 2).

        Figure 2 guards the increment with ``lock(c)``; barrier
        libraries implement the same critical section as a single atomic
        fetch-and-increment, which is what the memory system's RMW
        transaction provides (the directory serializes contenders on the
        count line exactly as the lock would, at one transaction instead
        of three). Returns ``(is_last, record)``; the instance record is
        opened by the first arriver. ``thread_id`` defaults to the
        node id (dedicated mode, one thread per CPU).
        """
        if thread_id is None:
            thread_id = node.node_id
        record = self.trace.current(self.pc)
        if record is None:
            record = self.trace.open_instance(self.pc)
        record.arrivals.setdefault(thread_id, self.sim._now)
        cpu = node.cpu
        started = self.sim._now
        count = yield from self._count_transaction(node)
        cpu.charge_spin(self.sim._now - started)
        is_last = (count + 1) == self._arrival_target
        if is_last:
            started = self.sim._now
            yield from self.memsys.store(node.node_id, self.count_addr, 0)
            cpu.charge_spin(self.sim._now - started)
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.emit(BarrierCheckIn(
                ts=record.arrivals[thread_id], thread=thread_id,
                pc=self.pc, sequence=record.sequence, is_last=is_last,
            ))
        return is_last, record

    def _count_transaction(self, node):
        """The check-in's ``count++``: one atomic fetch-and-increment
        transaction, whose value is the count it read. A seam for
        :class:`~repro.sync.mutants.RacyCheckInBarrier`."""
        return self.memsys.rmw(node.node_id, self.count_addr, _increment)

    def _publish_and_release(self, node, sense, record, bit, thread_id=None):
        """Last thread: publish the measured ``bit`` in the shared BIT
        variable, then release the barrier.

        A write fence orders the BIT before the flag flip under release
        consistency (footnote 1 of the paper); the simulator's in-order
        per-thread execution provides it.
        """
        record.measured_bit = bit
        started = self.sim._now
        yield from self.memsys.store(node.node_id, self.domain.bit_addr, bit)
        node.cpu.charge_spin(self.sim._now - started)
        yield from self._release(node, sense, record, thread_id)

    def _release(self, node, sense, record, thread_id=None):
        """Last thread: flip the flag, waking spinners/monitors.

        The flag write's invalidations are the external wake-up signal
        of Section 3.3.1.
        """
        record.release_ts = self.sim._now
        record.last_thread = node.node_id if thread_id is None else thread_id
        self.domain.instances_released += 1
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.emit(BarrierRelease(
                ts=record.release_ts, thread=record.last_thread,
                pc=self.pc, sequence=record.sequence,
                bit_ns=record.measured_bit,
            ))
        started = self.sim._now
        yield from self.memsys.store(node.node_id, self.flag_addr, sense)
        node.cpu.charge_spin(self.sim._now - started)
        self.trace.close_instance(self.pc)

    def _watch_flag(self, node, sense, fired):
        """Arm ``node``'s flag monitor: the flag line's invalidation (the
        external wake-up of Section 3.3.1) succeeds ``fired``. Returns
        the monitor, the key :meth:`_unwatch_flag` takes.

        The controller reads the flag in when armed. If the monitor
        raced (:meth:`_monitor_raced`), it is disarmed and None
        returned: the caller re-reads the flag instead of waiting, and
        the re-read serializes behind the in-flight flag write at the
        directory.
        """
        def on_invalidation(_line):
            if not fired.triggered:
                fired.succeed()

        node.controller.arm_flag_monitor(self.flag_addr, on_invalidation)
        if self._monitor_raced(node, sense):
            self._unwatch_flag(node, on_invalidation)
            return None
        return on_invalidation

    def _unwatch_flag(self, node, monitor):
        """Disarm a monitor of :meth:`_watch_flag`; safe once fired."""
        node.controller.disarm_flag_monitor(self._flag_line, monitor)

    def _monitor_raced(self, node, sense):
        """True when an armed monitor cannot be trusted: the flag has
        already flipped, or the flag line is gone from this node's
        caches (the invalidation that took it fired before the monitor
        was armed, so its wake-up is lost). In fast (non-detailed)
        memory mode there are no cached lines and notifications are
        synthesized from the functional store, so only the value check
        applies. Both reads go straight to the functional store and the
        L2's set array: this runs at every monitor arming."""
        memsys = self.memsys
        if memsys._values.get(self.flag_addr, 0) == sense:
            return True
        if not memsys._detailed:
            return False
        line = self._flag_line
        l2 = memsys.hierarchies[node.node_id].l2
        cache_set = l2._sets[line % l2._n_sets]
        return not cache_set or line not in cache_set

    def _spin_on_flag(self, node, sense):
        """Spin-wait until the flag reads ``sense`` (S2 in Figure 2).

        The first read caches a shared copy; the thread then blocks on
        the controller's invalidation of that line and re-reads a fresh
        copy — exactly the coherence behaviour the paper describes. The
        loop also absorbs false wake-ups (re-check, re-arm). Returns the
        time spent, all charged as Spin.
        """
        cpu = node.cpu
        started = self.sim._now
        while True:
            load_started = self.sim._now
            value = yield from self.memsys.load(node.node_id, self.flag_addr)
            cpu.charge_spin(self.sim._now - load_started)
            if value == sense:
                break
            fired = self.sim.event()
            if self._watch_flag(node, sense, fired) is None:
                continue
            wait_started = self.sim._now
            yield fired
            cpu.charge_spin(self.sim._now - wait_started)
        return self.sim._now - started

    def _spin_then_halt(self, node, sense, record, state, threshold_ns):
        """Spin on the flag for up to ``threshold_ns``, then Halt in
        ``state`` until the flag line's invalidation wakes the CPU: the
        conventional spin-then-sleep policy of Section 5.1, with no
        prediction and so no internal timer. Without a ``state`` the
        wait ends spinning.

        Returns how the Halt ended, ``"invalidation"`` or
        ``"spurious"`` (a fault-injected wake, whose monitor is
        disarmed), or None when there was no Halt. The caller's
        residual spin re-checks the flag either way.
        """
        cpu = node.cpu
        started = self.sim._now
        value = yield from self.memsys.load(node.node_id, self.flag_addr)
        cpu.charge_spin(self.sim._now - started)
        if value == sense:
            return None
        fired = self.sim.event()
        monitor = self._watch_flag(node, sense, fired)
        if monitor is None:
            return None
        budget = self.sim.timeout(threshold_ns)
        race = AnyOf(self.sim, [fired, budget])
        yield from cpu.spin_until(race)
        if race.value is fired:
            budget.cancel()
            return None  # released during the bounded spin
        if state is None:
            yield from cpu.spin_until(fired)
            return None
        return (yield from self._sleep_on_flag(
            node, record, state, fired, monitor,
        ))

    def _sleep_on_flag(
        self, node, record, state, fired, monitor, wake_at=None,
        dirty_lines=0,
    ):
        """Sleep in ``state`` until the flag monitor's ``fired`` event
        or the countdown to ``wake_at`` wakes the CPU
        (:meth:`~repro.machine.Node.sleep_until`), disarm the monitor
        unless it fired, and trace the wake. Returns how the sleep
        ended: ``"invalidation"``, ``"timer"`` or ``"spurious"``.
        ``fired`` and ``monitor`` are None when no monitor is armed.
        """
        outcome, woke_by = yield from node.sleep_until(
            state, fired, wake_at, dirty_lines,
        )
        if woke_by == "external":
            woke_by = "invalidation"
        elif monitor is not None:
            self._unwatch_flag(node, monitor)
        name = outcome.state.name
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.emit(WakeUp(
                ts=self.sim._now, thread=node.node_id, pc=self.pc,
                source=woke_by, state=name,
            ))
        record.sleeps[node.node_id] = SleepRecord(
            state_name=name,
            resident_ns=outcome.resident_ns,
            flushed_lines=outcome.flushed_lines,
            woke_by=woke_by,
        )
        return woke_by

    def _depart(self, node, record, thread_id=None):
        thread_id = node.node_id if thread_id is None else thread_id
        record.departures[thread_id] = self.sim._now
        telemetry = self.telemetry
        if telemetry.enabled:
            arrived = record.arrivals.get(thread_id, self.sim._now)
            telemetry.emit(BarrierDepart(
                ts=self.sim._now, thread=thread_id, pc=self.pc,
                sequence=record.sequence, arrived_ts=arrived,
                stall_ns=record.stall_ns(thread_id) or 0,
            ))

    def wait(self, node, dirty_lines=0):
        """Pass the barrier; must be overridden by each variant."""
        raise NotImplementedError


class ConventionalBarrier(BarrierBase):
    """The sense-reversal spin barrier of Figure 2 (the Baseline).

    Early threads spin at ~85% of compute power until the last arriver
    flips the flag. Spinning threads record their local release
    timestamps directly (the warm-up rule of Section 3.2.1), so a
    conventional barrier keeps the timing domain consistent and can
    co-exist with thrifty barriers in the same program.
    """

    def wait(self, node, dirty_lines=0):
        thread_id = node.node_id
        sense = self._flip_sense(thread_id)
        is_last, record = yield from self._check_in(node)
        if is_last:
            # Publish the BIT for the benefit of any thrifty barrier
            # sharing the domain.
            yield from self._publish_and_release(
                node, sense, record, self.domain.measure_bit(thread_id)
            )
        else:
            yield from self._spin_on_flag(node, sense)
        self.domain.record_observed_release(thread_id)
        self._depart(node, record)
        return record
