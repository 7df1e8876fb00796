"""Synchronization constructs.

Every sleeper here — the thrifty barrier's predicted sleep, the Halt of
the spin-then-Halt wait, the thrifty lock — sleeps through
:meth:`repro.machine.Node.sleep_until`, the one hybrid wake-up race
(Section 3.3.2), as does :class:`repro.mp.ThriftyMpBarrier`.

* :mod:`repro.sync.lock` — a queued test-and-set spinlock (the ``lock(c)``
  of the paper's Figure 2), with a seam for how a contender waits;
* :mod:`repro.sync.barrier` — the conventional sense-reversal barrier
  (Figure 2) and :class:`BarrierBase`, which holds the one copy of each
  wait primitive the variants compose: the check-in, the last thread's
  publish-and-release, the flag monitor, the flag spin, the sleep on
  the flag and the spin-then-Halt wait;
* :mod:`repro.sync.thrifty` — the thrifty barrier (Section 3): BIT
  prediction, conditional multi-state sleep, hybrid wake-up, thresholds;
* :mod:`repro.sync.spin_then_sleep` — the conventional spin-then-halt
  wait policy the paper cites as bounded by Oracle-Halt;
* :mod:`repro.sync.yielding` — a barrier for over-threaded programs
  that yields its CPU instead of spinning (Section 3.4.1);
* :mod:`repro.sync.mutants` — intentionally broken barriers, the
  detector self-test of ``repro check``;
* :mod:`repro.sync.oracle` — exact post-hoc accounting for the
  Oracle-Halt and Ideal configurations;
* :mod:`repro.sync.thrifty_lock` — the future-work extension: a
  :class:`SpinLock` whose contenders sleep through their predicted
  wait;
* :mod:`repro.sync.trace` — per-instance instrumentation feeding the
  metrics and the oracle accounting.
"""

from repro.sync.barrier import BarrierBase, ConventionalBarrier
from repro.sync.lock import SpinLock
from repro.sync.oracle import oracle_rerun
from repro.sync.spin_then_sleep import SpinThenSleepBarrier
from repro.sync.thrifty import ThriftyBarrier
from repro.sync.thrifty_lock import ThriftyLock
from repro.sync.trace import BarrierTrace, InstanceRecord
from repro.sync.yielding import YieldingBarrier

__all__ = [
    "BarrierBase",
    "BarrierTrace",
    "ConventionalBarrier",
    "InstanceRecord",
    "SpinLock",
    "SpinThenSleepBarrier",
    "ThriftyBarrier",
    "ThriftyLock",
    "YieldingBarrier",
    "oracle_rerun",
]
