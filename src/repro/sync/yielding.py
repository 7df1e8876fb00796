"""A yielding barrier for time-shared CPUs (paper Section 3.4.1).

Instead of spinning (or sleeping), an early-arriving thread releases
its CPU so a co-scheduled thread can run, and blocks on an OS wake-up
until the barrier is released. The hazard the paper points out is
built in: after the release, the thread must *re-acquire a CPU*, paying
a context switch and possibly queueing behind its sibling — so the
release-to-resume latency can land on the next barrier's critical path.

The wake-up here is an OS/scheduler event, not the coherence mechanism
(a blocked thread is not spinning on the flag line); energy while
yielded is attributed to whichever thread actually runs on the CPU.
"""

from repro.sync.barrier import BarrierBase


class YieldingBarrier(BarrierBase):
    """Barrier for over-threaded programs: yield instead of spin."""

    allow_overthreading = True

    def __init__(self, system, domain, n_threads, pc, trace=None):
        super().__init__(system, domain, n_threads, pc, trace=trace)
        self._wakeups = {}  # record id -> OS wake-up event
        self.stats_yields = 0

    def _wakeup_for(self, record):
        key = id(record)
        event = self._wakeups.get(key)
        if event is None:
            event = self.sim.event()
            self._wakeups[key] = event
        return event

    def wait(self, node, thread_id, token, dirty_lines=0):
        """Pass the barrier; the caller must hold ``token``.

        On early arrival the token is released before blocking and
        re-acquired after the OS wake-up.
        """
        sense = self._flip_sense(thread_id)
        is_last, record = yield from self._check_in(
            node, thread_id=thread_id
        )
        wakeup = self._wakeup_for(record)
        if is_last:
            yield from self._publish_and_release(
                node, sense, record, self.domain.measure_bit(thread_id),
                thread_id,
            )
            self._wakeups.pop(id(record), None)
            wakeup.succeed()
        else:
            # Early: hand the CPU to a runnable sibling and block.
            self.stats_yields += 1
            token.release(thread_id)
            yield wakeup
            # Released: compete for the CPU again (the Section 3.4.1
            # risk).
            yield from token.acquire(thread_id)
        self.domain.record_observed_release(thread_id)
        self._depart(node, record, thread_id=thread_id)
        return record
