"""Spin-then-sleep barrier: the conventional low-power wait policy.

Section 5.1 mentions "executing Halt after spinning unsuccessfully for a
while" as the traditional alternative, bounded from below by
Oracle-Halt. This barrier spins for a fixed threshold, then executes
Halt and relies purely on the external (invalidation) wake-up — there is
no prediction, so there is no internal timer.
"""

from repro.errors import ConfigError
from repro.sync.barrier import BarrierBase


class SpinThenSleepBarrier(BarrierBase):
    """Spin for ``spin_threshold_ns``, then Halt until invalidated."""

    def __init__(
        self, system, domain, n_threads, pc,
        sleep_state, spin_threshold_ns=50_000, trace=None,
    ):
        super().__init__(system, domain, n_threads, pc, trace=trace)
        if spin_threshold_ns < 0:
            raise ConfigError("spin threshold must be non-negative")
        if not sleep_state.snoops:
            raise ConfigError(
                "spin-then-sleep needs a snooping state (no prediction "
                "exists to amortize a flush)"
            )
        self.sleep_state = sleep_state
        self.spin_threshold_ns = spin_threshold_ns
        self.stats_sleeps = 0

    def wait(self, node, dirty_lines=0):
        thread_id = node.node_id
        sense = self._flip_sense(thread_id)
        is_last, record = yield from self._check_in(node)
        if is_last:
            yield from self._publish_and_release(
                node, sense, record, self.domain.measure_bit(thread_id)
            )
        else:
            woke_by = yield from self._spin_then_halt(
                node, sense, record, self.sleep_state,
                self.spin_threshold_ns,
            )
            if woke_by is not None:
                self.stats_sleeps += 1
            yield from self._spin_on_flag(node, sense)
        self.domain.record_observed_release(thread_id)
        self._depart(node, record)
        return record
