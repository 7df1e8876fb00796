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
  ARRIVE; the NIC's arrival interrupt is the external wake-up, the
  countdown timer the internal one;
* the overprediction cut-off and the underprediction filter apply
  unchanged.
"""

from dataclasses import dataclass, field

from repro.config import ThriftyConfig
from repro.energy.states import select_sleep_state
from repro.errors import SimulationError
from repro.predict.last_value import LastValuePredictor
from repro.predict.thresholds import is_overpredicted, should_update_predictor
from repro.sim.events import AnyOf

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
        #: Local per-rank release timestamps (each rank's own clock).
        self._release_ts = [0] * self.n_ranks

    def wait(self, rank):
        """Pass the barrier from ``rank`` (generator)."""
        endpoint = self.endpoints[rank]
        if rank == 0:
            yield from self._root_path(endpoint)
        else:
            yield from self._nonroot_path(endpoint, rank)
        self._release_ts[rank] = self.sim.now
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

    # -- non-root ranks check in and wait --------------------------------

    def _nonroot_path(self, endpoint, rank):
        yield from endpoint.send(
            self.endpoints, 0, self._tag_arrive, payload=rank,
            size_bytes=16,
        )
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

    # -- root --------------------------------------------------------------

    def _measure_bit(self):
        bit = self.sim.now - self._brts[0]
        self._train(0, bit)
        self._brts[0] += bit
        return bit

    # -- non-root ------------------------------------------------------------

    def _nonroot_path(self, endpoint, rank):
        yield from endpoint.send(
            self.endpoints, 0, self._tag_arrive, payload=rank,
            size_bytes=16,
        )
        wake_ts = None
        predictor = self.predictors[rank]
        if not predictor.is_disabled(self.pc, rank):
            predicted_bit = predictor.predict(self.pc)
            if predicted_bit is not None:
                est_wake = self._brts[rank] + predicted_bit
                est_stall = est_wake - self.sim.now
                # Prototype restriction, as in the thrifty lock: only
                # snooping states, keeping the flush machinery out of
                # the NIC path.
                snoozable = tuple(
                    s for s in self.config.sleep_states if s.snoops
                )
                state = (
                    select_sleep_state(
                        snoozable, est_stall,
                        flush_ns=0,
                        conditional=self.config.conditional_sleep,
                    )
                    if snoozable
                    else None
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
        cpu = endpoint.node.cpu
        wake_sources = []
        external = None
        if self.config.use_external_wakeup:
            external = endpoint.arm_interrupt()
            wake_sources.append(external)
        if self.config.use_internal_wakeup:
            delay = max(
                0, est_wake - self.sim.now - state.transition_latency_ns
            )
            wake_sources.append(self.sim.timeout(delay))
        wake = AnyOf(self.sim, wake_sources)
        yield from cpu.sleep(state, wake)
        if external is not None and wake.value is external:
            self.stats.interrupt_wakes += 1
        else:
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
