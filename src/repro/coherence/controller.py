"""The on-chip cache controller, with the thrifty-barrier extensions.

The paper (Sections 3.3.1-3.3.2) adds two small pieces of logic to the
cache controller, which is *never* disabled even when the CPU and caches
sleep:

* a programmable **flag monitor**: given the barrier-flag address, it
  fires a wake-up signal when an invalidation for that line arrives
  (external wake-up);
* a **countdown timer** armed with the predicted stall time (internal
  wake-up).

Both feed the same wake-up signal; the first to trigger cancels the
other (:meth:`repro.machine.Node.sleep_until` races them in an
:class:`AnyOf` and cancels a losing timer; the caller disarms a losing
monitor). The controller also performs the dirty-data
flush required before entering a non-snooping sleep state, and it keeps
acknowledging invalidations while the CPU sleeps — to clean data only,
which the flush guarantees.
"""

from repro.errors import ProtocolError


class CacheController:
    """Per-node controller wired between the CPU and the memory system."""

    def __init__(self, sim, node_id, memsys):
        self.sim = sim
        self.node_id = node_id
        self.memsys = memsys
        self.hierarchy = memsys.hierarchies[node_id]
        self._monitors = {}  # line_addr -> list of callbacks
        # Only fast mode keeps the memory system's watched-line table.
        self._fast_mode = not memsys.config.detailed_memory
        self._snooping = True
        self.stats_monitor_fires = 0
        self.stats_flushed_lines = 0

    # -- coherence-side interface (called by the protocol engine) ---------

    def notify_invalidation(self, line_addr):
        """An INV for ``line_addr`` arrived; fire any armed monitors.

        Called by the protocol at the simulated arrival time of the
        invalidation. The line itself has already been dropped from the
        arrays. While the CPU sleeps in a non-snooping state this still
        runs — the controller acknowledges invalidations to clean data
        without touching the (gated) arrays.
        """
        callbacks = self._monitors.pop(line_addr, None)
        if not callbacks:
            return
        if self._fast_mode:
            self.memsys.unwatch_line(line_addr, self.node_id)
        injector = self.sim.fault_injector
        if injector is not None:
            delay = injector.on_monitor_fire(self.node_id, line_addr)
            if delay:
                # Delayed or dropped-then-redelivered wake-up: the
                # monitors were already consumed, so the signal is late
                # but never lost (liveness is delayed, not broken).
                self.sim.schedule(
                    delay, self._deliver_wakeups, line_addr, callbacks
                )
                return
        self._deliver_wakeups(line_addr, callbacks)

    def _deliver_wakeups(self, line_addr, callbacks):
        """Fire a consumed monitor list (possibly after fault delay)."""
        self.stats_monitor_fires += len(callbacks)
        for callback in callbacks:
            callback(line_addr)

    # -- CPU-side interface (called by sleep/barrier code) ----------------

    def monitors_line(self, line_addr):
        """True when a flag monitor is armed for this line."""
        return line_addr in self._monitors

    def arm_flag_monitor(self, flag_addr, callback):
        """Watch the line holding ``flag_addr``; run ``callback(line)``
        when it is invalidated. Returns the line address (the disarm
        key)."""
        line_addr = self.memsys.line_of(flag_addr)
        callbacks = self._monitors.setdefault(line_addr, [])
        if not callbacks and self._fast_mode:
            self.memsys.watch_line(line_addr, self.node_id)
        callbacks.append(callback)
        return line_addr

    def disarm_flag_monitor(self, line_addr, callback):
        """Remove one armed callback; safe if it already fired."""
        callbacks = self._monitors.get(line_addr)
        if not callbacks:
            return
        try:
            callbacks.remove(callback)
        except ValueError:
            return
        if not callbacks:
            del self._monitors[line_addr]
            if self._fast_mode:
                self.memsys.unwatch_line(line_addr, self.node_id)

    def arm_wake_timer(self, delay_ns, callback):
        """Arm the countdown timer; returns a cancellable handle."""
        if delay_ns < 0:
            raise ProtocolError("wake timer delay must be non-negative")
        injector = self.sim.fault_injector
        if injector is not None:
            delay_ns, lost = injector.on_wake_timer(self.node_id, delay_ns)
            if lost:
                # A lost timer never fires; hand back a pre-cancelled
                # handle so the caller's disarm path stays uniform. The
                # external wake-up (or residual spin) covers liveness.
                handle = self.sim.schedule(delay_ns, callback)
                handle.cancel()
                return handle
        return self.sim.schedule(delay_ns, callback)

    @property
    def snooping(self):
        return self._snooping

    def set_snooping(self, snooping):
        """Record whether the CPU's sleep state can service the caches.

        Entering a non-snooping state requires the dirty data to have
        been flushed first; :meth:`flush_dirty` enforces that ordering.
        """
        self._snooping = bool(snooping)

    def flush_dirty(self, extra_lines=0):
        """Write back all dirty lines before a non-snooping sleep.

        Lines explicitly tracked in the simulated arrays are written
        back through the real protocol; ``extra_lines`` models the
        workload's dirty footprint that the phase-level simulation does
        not track line-by-line (see DESIGN.md) and is charged the
        pipelined per-line bus cost.

        This is a generator (simulation subroutine); it returns the
        number of lines flushed, which the CPU model converts into the
        post-wake refill penalty.
        """
        config = self.memsys.config
        dirty = self.hierarchy.dirty_lines()
        if extra_lines < 0:
            raise ProtocolError("extra_lines must be non-negative")
        yield config.flush_base_ns
        for line in dirty:
            self.hierarchy.invalidate(line)
            yield from self.memsys.writeback(self.node_id, line)
        if extra_lines:
            yield extra_lines * config.flush_per_line_ns
        flushed = len(dirty) + extra_lines
        self.stats_flushed_lines += flushed
        return flushed
