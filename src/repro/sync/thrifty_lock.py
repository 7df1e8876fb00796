"""A thrifty lock: the paper's future-work extension (Section 7).

The paper closes by proposing to extend predicted-slack sleeping "to
other synchronization constructs, such as locks". This prototype applies
the same recipe to the queued :class:`~repro.sync.lock.SpinLock`,
changing only how a contender waits for its hand-off:

* the predicted critical-section length is the lock's last hold time
  (a last-value predictor);
* a contender estimates its wait as its queue position times that hold;
* if the estimate covers a sleep state's round trip, the CPU sleeps
  through :meth:`~repro.machine.Node.sleep_until`, the hybrid wake-up
  every sleeper shares: the hand-off is the external wake-up, the
  countdown timer the internal one;
* a residual wait after an early wake preserves strict FIFO hand-off
  order.
"""

from dataclasses import dataclass, field

from repro.config import ThriftyConfig
from repro.energy.states import select_sleep_state
from repro.sync.lock import SpinLock


@dataclass
class ThriftyLockStats:
    sleeps: int = 0
    sleeps_by_state: dict = field(default_factory=dict)
    spin_waits: int = 0
    timer_wakes: int = 0
    handoff_wakes: int = 0


class ThriftyLock(SpinLock):
    """A queued test-and-set lock with predicted-slack sleeping."""

    def __init__(self, system, config=None, name="thrifty-lock"):
        super().__init__(system, name=name)
        self.config = config or ThriftyConfig()
        # Prototype restriction: no flush bookkeeping while queued, so
        # only snooping states are considered.
        self._snoozable = tuple(
            state for state in self.config.sleep_states if state.snoops
        )
        self.stats = ThriftyLockStats()

    def _await_handoff(self, node, ticket):
        state = None
        if self.last_hold_ns is not None and self._snoozable:
            # The critical sections ahead in line, the current one's
            # included.
            estimate = len(self._waiters) * self.last_hold_ns
            state = select_sleep_state(
                self._snoozable, estimate,
                conditional=self.config.conditional_sleep,
            )
        stats = self.stats
        if state is None:
            stats.spin_waits += 1
        else:
            _outcome, woke_by = yield from node.sleep_until(
                state, ticket, self.sim.now + estimate,
            )
            stats.sleeps += 1
            stats.sleeps_by_state[state.name] = (
                stats.sleeps_by_state.get(state.name, 0) + 1
            )
            if woke_by == "external":
                stats.handoff_wakes += 1
            elif woke_by == "timer":
                stats.timer_wakes += 1
        if not ticket.triggered:
            # The whole wait, or what an early wake left of it.
            yield from node.cpu.spin_until(ticket)
