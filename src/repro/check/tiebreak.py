"""Tie-break strategies: the choice-point interface of the explorer.

The simulator consults :meth:`TieBreaker.choose` whenever a timestamp
bucket holds two or more live entries (see
:attr:`repro.sim.core.Simulator.tie_breaker`). Candidates are presented
in legacy FIFO order, so index 0 always reproduces the unexplored
schedule. Every strategy records the *realized decision trace* — one
``(arity, choice)`` pair per consulted choice point — which is the
schedule's identity: two runs with the same realized trace executed the
same interleaving, which is what the explorer's visited-schedule
hashing and the counterexample artifacts are built on.
"""

import random


class TieBreaker:
    """Base strategy: FIFO (always index 0), with trace recording.

    Subclasses override :meth:`_choose`; :meth:`choose` wraps it with
    the decision-trace bookkeeping so every strategy records the same
    way.
    """

    def __init__(self):
        #: Realized decision trace: ``(arity, choice)`` per choice point.
        self.trace = []

    def reset(self):
        """Forget the recorded trace (reuse across runs)."""
        self.trace = []

    def choose(self, time, candidates):
        choice = self._choose(time, candidates)
        self.trace.append((len(candidates), choice))
        return choice

    def _choose(self, time, candidates):
        return 0

    @property
    def decisions(self):
        """The realized choice indices alone (the decision string)."""
        return tuple(choice for _arity, choice in self.trace)

    @property
    def arities(self):
        """Candidate count at each realized choice point."""
        return tuple(arity for arity, _choice in self.trace)


class FifoTieBreaker(TieBreaker):
    """The default order, explicitly: index 0 at every choice point.

    Driving the simulator with this strategy reproduces the legacy
    ``(time, seq)`` dispatch exactly — the property the scheduler
    extraction is held to.
    """


class RandomTieBreaker(TieBreaker):
    """A seeded random walk: one uniform choice per choice point."""

    def __init__(self, seed=0):
        super().__init__()
        self.seed = seed
        self._rng = random.Random("check:random:{}".format(seed))

    def reset(self):
        super().reset()
        self._rng = random.Random("check:random:{}".format(self.seed))

    def _choose(self, time, candidates):
        return self._rng.randrange(len(candidates))


class ScheduleDriver(TieBreaker):
    """Replay a decision prefix, then fall back to FIFO.

    Forced decisions are taken modulo the live arity: a decision
    recorded against a wider candidate set still resolves
    deterministically when shrinking or upstream choices narrow the
    bucket. Past the prefix the driver is FIFO, so the empty decision
    string is exactly the default schedule.
    """

    def __init__(self, decisions=()):
        super().__init__()
        self.forced = tuple(int(d) for d in decisions)
        self._position = 0

    def reset(self):
        super().reset()
        self._position = 0

    def _choose(self, time, candidates):
        position = self._position
        self._position = position + 1
        if position < len(self.forced):
            return self.forced[position] % len(candidates)
        return 0


def schedule_key(trace):
    """Hashable identity of one realized decision trace."""
    return tuple(trace)
