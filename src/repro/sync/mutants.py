"""Intentionally broken barrier variants — the explorer's test teeth.

Each mutant plants one classic synchronization bug in an otherwise
correct barrier. They exist so ``repro check`` can prove its detector
works: the CI smoke job (and ``tests/test_check.py``) require every
mutant here to be caught within a small exploration budget, while the
correct barriers stay clean under the same budget.

===================== ==================================================
mutant                the bug (and the oracle that catches it)
===================== ==================================================
``racy-check-in``     splits the check-in's atomic fetch-and-increment
                      into a plain load + store — the textbook lost
                      update. Two overlapping arrivals both read count
                      ``c`` and both write ``c + 1``; the count never
                      reaches ``n``, the release never fires, and every
                      thread wedges on the flag. Caught by
                      **no-lost-wakeup** (threads still blocked when
                      the event queue drains) and **barrier-liveness**
                      (check-ins with no release).
``off-by-one-release`` releases at ``n - 1`` arrivals: the classic
                      fencepost. The release fires before the last
                      thread arrives, and the leaked increment poisons
                      every following episode. Caught by
                      **release-safety**.
``wake-before-flip``  flips the flag (waking every waiter) before the
                      release is committed, so threads cross the
                      barrier ahead of the published release. Caught by
                      **barrier-safety**.
===================== ==================================================

Every mutant is deterministic given (cell, schedule): catching one is a
reproducible counterexample, not a flake. Each spec carries the cell
(app, threads, seed) its bug is known to surface in — small cells, so
the CI smoke budget stays tight.
"""

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.experiments.configs import thrifty_config_for
from repro.sync.barrier import BarrierBase, ConventionalBarrier
from repro.sync.thrifty import ThriftyBarrier
from repro.telemetry.events import BarrierRelease


class RacyCheckInBarrier(ConventionalBarrier):
    """BUG: non-atomic check-in (load + store instead of RMW).

    The correct check-in is a single atomic fetch-and-increment at the
    directory. Splitting it opens the lost-update window: any two
    arrivals whose load/store transactions overlap each read the same
    count and each write the same incremented value, silently dropping
    one arrival. The count never reaches the release target, so the
    whole machine wedges spinning on a flag nobody will ever flip.
    """

    def _count_transaction(self, node):
        # The bug: two separate transactions where one atomic RMW
        # belongs. Another arrival can slip between them.
        count = yield from self.memsys.load(node.node_id, self.count_addr)
        yield from self.memsys.store(node.node_id, self.count_addr, count + 1)
        return count


class OffByOneReleaseBarrier(ConventionalBarrier):
    """BUG: off-by-one arrival count — releases at ``n - 1`` arrivals.

    The ``n - 1``-th arriver believes it is last, resets the count, and
    flips the flag while the true last thread is still computing. The
    late thread's increment is never consumed, so the fencepost
    compounds across episodes.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._arrival_target = self.n_threads - 1


class WakeBeforeFlipBarrier(ConventionalBarrier):
    """BUG: wakes the waiters before the release is committed.

    The flag store (whose invalidations are the wake-up signal) is
    issued first; the release itself — the instance's published
    release timestamp — commits only after a delay. Woken threads
    cross the barrier before the release exists: a barrier-safety
    violation on every episode with a waiter.
    """

    #: Simulated gap between the early wake signal and the release
    #: commit — wider than a waiter's wake round-trip (INV delivery
    #: plus the re-read through the directory, ~1 µs), so the woken
    #: threads' departures land before the commit.
    RELEASE_COMMIT_DELAY_NS = 5000

    def _release(self, node, sense, record, thread_id=None):
        record.last_thread = (
            node.node_id if thread_id is None else thread_id
        )
        self.domain.instances_released += 1
        started = self.sim._now
        yield from self.memsys.store(node.node_id, self.flag_addr, sense)
        node.cpu.charge_spin(self.sim._now - started)
        self.trace.close_instance(self.pc)
        # Waiters are already waking and departing; only now does the
        # release commit.
        yield self.RELEASE_COMMIT_DELAY_NS
        node.cpu.charge_spin(self.RELEASE_COMMIT_DELAY_NS)
        record.release_ts = self.sim._now
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.emit(BarrierRelease(
                ts=record.release_ts, thread=record.last_thread,
                pc=self.pc, sequence=record.sequence,
                bit_ns=record.measured_bit,
            ))


@dataclass(frozen=True)
class MutantSpec:
    """One registered mutant: the class, the configuration machinery
    its barrier rides on, the cell its bug is known to surface in, and
    the oracle(s) expected to fire."""

    name: str
    barrier_class: type
    description: str
    #: Live configuration whose machinery the mutant rides on.
    base_config: str = "baseline"
    #: The (app, threads, seed) cell ``repro check --mutant`` explores
    #: by default — chosen small so the CI budget stays tight.
    app: str = "fmm"
    threads: int = 8
    seed: int = 1
    #: Invariant/oracle names expected among the violations.
    expected: tuple = ()


MUTANTS = {
    "racy-check-in": MutantSpec(
        name="racy-check-in",
        barrier_class=RacyCheckInBarrier,
        description=(
            "non-atomic check-in (load + store) loses overlapping "
            "arrivals; the release never fires"
        ),
        expected=("no-lost-wakeup", "barrier-liveness"),
    ),
    "off-by-one-release": MutantSpec(
        name="off-by-one-release",
        barrier_class=OffByOneReleaseBarrier,
        description="releases the barrier at n - 1 arrivals",
        expected=("release-safety",),
    ),
    "wake-before-flip": MutantSpec(
        name="wake-before-flip",
        barrier_class=WakeBeforeFlipBarrier,
        description="wakes waiters before the release commits",
        expected=("barrier-safety",),
    ),
}

MUTANT_NAMES = tuple(sorted(MUTANTS))


def mutant_spec(name):
    spec = MUTANTS.get(name)
    if spec is None:
        raise ConfigError(
            "unknown mutant {!r}; choose from {}".format(
                name, ", ".join(MUTANT_NAMES)
            )
        )
    return spec


def mutant_barrier_factory(name, **overrides):
    """Barrier factory for one mutant (WorkloadRunner signature)."""
    spec = mutant_spec(name)
    cls = spec.barrier_class
    if issubclass(cls, ThriftyBarrier):
        config = thrifty_config_for(spec.base_config, **overrides)

        def factory(system, domain, n_threads, pc, trace):
            return cls(
                system, domain, n_threads, pc, trace=trace, config=config
            )
        return factory

    def factory(system, domain, n_threads, pc, trace):
        return cls(system, domain, n_threads, pc, trace=trace)
    return factory


assert all(
    issubclass(spec.barrier_class, BarrierBase)
    for spec in MUTANTS.values()
)
