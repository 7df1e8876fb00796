"""Message-passing barriers: conventional and thrifty.

Flat gather/broadcast: every non-root rank sends an ARRIVE message to
rank 0; once the root has all of them it broadcasts RELEASE. The
conventional variant spin-waits on the receive (a polling runtime).

The thrifty variant transplants Section 3 to message passing:

* there is no shared BIT location, so the root measures the barrier
  interval time on its local clock and piggybacks it on the RELEASE
  message;
* each rank keeps a local BRTS and a local PC-indexed predictor trained
  from the piggybacked BITs — the induction of Section 3.2.1 carries
  over, with message receipt standing in for flag detection;
* an early rank that predicts enough slack sleeps after posting its
  ARRIVE, through :meth:`~repro.machine.Node.sleep_until`, the hybrid
  wake-up every sleeper shares: the NIC's arrival interrupt is the
  external wake-up, the countdown timer the internal one;
* the overprediction cut-off and the underprediction filter apply
  unchanged.
"""

from dataclasses import dataclass, field

from repro.config import ThriftyConfig
from repro.energy.states import select_sleep_state
from repro.errors import SimulationError
from repro.predict.last_value import LastValuePredictor
from repro.predict.thresholds import is_overpredicted, should_update_predictor

ARRIVE = "mp.arrive"
RELEASE = "mp.release"


@dataclass
class MpStats:
    instances: int = 0
    sleeps: int = 0
    sleeps_by_state: dict = field(default_factory=dict)
    spin_waits: int = 0
    timer_wakes: int = 0
    interrupt_wakes: int = 0
    cutoff_disables: int = 0
    filtered_updates: int = 0


class MpBarrier:
    """Conventional flat barrier: gather at the root, broadcast back."""

    def __init__(self, system, endpoints, pc="mp.b"):
        if not endpoints:
            raise SimulationError("need at least one rank")
        self.system = system
        self.sim = system.sim
        self.endpoints = endpoints
        self.n_ranks = len(endpoints)
        self.pc = pc
        self.stats = MpStats()
        self._tag_arrive = "{}:{}".format(ARRIVE, pc)
        self._tag_release = "{}:{}".format(RELEASE, pc)

    def wait(self, rank):
        """Pass the barrier from ``rank`` (generator); returns the time
        the rank leaves it."""
        endpoint = self.endpoints[rank]
        if rank == 0:
            yield from self._root_path(endpoint)
        else:
            yield from endpoint.send(
                self.endpoints, 0, self._tag_arrive, payload=rank,
                size_bytes=16,
            )
            yield from self._await_release(endpoint, rank)
        return self.sim.now

    # -- the root gathers and broadcasts --------------------------------

    def _measure_bit(self):
        """Root-side BIT to piggyback; None in the conventional case."""
        return None

    def _root_path(self, endpoint):
        for _ in range(self.n_ranks - 1):
            self.stats.spin_waits += 1
            yield from endpoint.recv(self._tag_arrive, spin=True)
        self.stats.instances += 1
        bit = self._measure_bit()
        for rank in range(1, self.n_ranks):
            yield from endpoint.send(
                self.endpoints, rank, self._tag_release, payload=bit,
                size_bytes=16,
            )

    # -- a non-root rank waits for the release after its ARRIVE ----------

    def _await_release(self, endpoint, rank):
        """Spin on the RELEASE receive."""
        self.stats.spin_waits += 1
        yield from endpoint.recv(self._tag_release, spin=True)


class ThriftyMpBarrier(MpBarrier):
    """The thrifty barrier transplanted to message passing."""

    def __init__(self, system, endpoints, pc="mp.tb", config=None):
        super().__init__(system, endpoints, pc=pc)
        self.config = config or ThriftyConfig()
        #: Per-rank predictors: no shared memory, so knowledge is local,
        #: fed by the piggybacked BITs.
        self.predictors = [LastValuePredictor() for _ in endpoints]
        #: Per-rank local BRTS (Section 3.2.1 induction).
        self._brts = [0] * self.n_ranks
        # Prototype restriction, as in the thrifty lock: only snooping
        # states, keeping the flush machinery out of the NIC path.
        self._snoozable = tuple(
            state for state in self.config.sleep_states if state.snoops
        )

    # -- root --------------------------------------------------------------

    def _measure_bit(self):
        bit = self.sim.now - self._brts[0]
        self._train(0, bit)
        self._brts[0] += bit
        return bit

    # -- non-root ------------------------------------------------------------

    def _await_release(self, endpoint, rank):
        """Sleep through the predicted stall when it covers a state's
        round trip, then take the RELEASE and its piggybacked BIT."""
        wake_ts = None
        predictor = self.predictors[rank]
        if not predictor.is_disabled(self.pc, rank):
            predicted_bit = predictor.predict(self.pc)
            if predicted_bit is not None and self._snoozable:
                est_wake = self._brts[rank] + predicted_bit
                state = select_sleep_state(
                    self._snoozable, est_wake - self.sim.now,
                    conditional=self.config.conditional_sleep,
                )
                if state is not None:
                    wake_ts = yield from self._sleep(
                        endpoint, state, est_wake
                    )
        if endpoint.pending(self._tag_release):
            payload = yield from endpoint.recv(
                self._tag_release, spin=False
            )
        else:
            self.stats.spin_waits += 1
            payload = yield from endpoint.recv(
                self._tag_release, spin=True
            )
        self._absorb_release(rank, payload, wake_ts)

    def _sleep(self, endpoint, state, est_wake):
        config = self.config
        _outcome, woke_by = yield from endpoint.node.sleep_until(
            state,
            endpoint.arm_interrupt() if config.use_external_wakeup else None,
            est_wake if config.use_internal_wakeup else None,
        )
        if woke_by == "external":
            self.stats.interrupt_wakes += 1
        elif woke_by == "timer":
            self.stats.timer_wakes += 1
        self.stats.sleeps += 1
        self.stats.sleeps_by_state[state.name] = (
            self.stats.sleeps_by_state.get(state.name, 0) + 1
        )
        return self.sim.now

    # -- shared bookkeeping ---------------------------------------------------

    def _train(self, rank, bit):
        predictor = self.predictors[rank]
        if should_update_predictor(
            predictor.peek(self.pc), bit,
            factor=self.config.underprediction_factor,
        ):
            predictor.update(self.pc, bit)
        else:
            predictor.note_filtered_update()
            self.stats.filtered_updates += 1

    def _absorb_release(self, rank, payload, wake_ts):
        if payload is None:
            raise SimulationError("release lost its piggybacked BIT")
        bit = payload
        self._train(rank, bit)
        self._brts[rank] += bit
        if wake_ts is not None and is_overpredicted(
            wake_ts, self._brts[rank], bit,
            threshold=self.config.overprediction_threshold,
        ):
            self.predictors[rank].disable(self.pc, rank)
            self.stats.cutoff_disables += 1
