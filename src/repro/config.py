"""Configuration objects mirroring the paper's Tables 1 and 3.

All durations are integer nanoseconds (the simulator's time unit; one cycle
of the nominal 1 GHz CPU clock is 1 ns). Table 3's transition latency is
interpreted as the one-way latency — the paper's wake-up discussion treats
entering and leaving a state as separately costed transitions.
"""

from dataclasses import dataclass, field

from repro.errors import ConfigError

NS_PER_US = 1_000
NS_PER_MS = 1_000_000

#: The workload seed every experiment runs with unless told otherwise.
DEFAULT_SEED = 1


@dataclass(frozen=True)
class SleepStateConfig:
    """One low-power CPU sleep state (a row of the paper's Table 3).

    Attributes
    ----------
    name:
        Human-readable state name, e.g. ``"Sleep1 (Halt)"``.
    power_savings:
        Fraction of TDPmax saved while resident in the state (0..1).
    transition_latency_ns:
        One-way transition latency (entering or leaving the state).
    snoops:
        Whether the caches can service coherence requests while asleep.
        Non-snooping states force a flush of dirty cached data on entry.
    voltage_reduction:
        Whether the state lowers the supply voltage (reduces leakage).
    """

    name: str
    power_savings: float
    transition_latency_ns: int
    snoops: bool
    voltage_reduction: bool

    def __post_init__(self):
        if not 0.0 < self.power_savings <= 1.0:
            raise ConfigError(
                "power_savings must be in (0, 1]: {}".format(self.power_savings)
            )
        if self.transition_latency_ns < 0:
            raise ConfigError("transition latency must be non-negative")

    @property
    def round_trip_ns(self):
        """Time to enter plus leave the state (minimum useful slack)."""
        return 2 * self.transition_latency_ns

    def residency_power(self, tdp_max_watts):
        """Power drawn while resident in this state, in watts."""
        return (1.0 - self.power_savings) * tdp_max_watts


#: The three states of Table 3, modeled after the Intel Pentium family.
SLEEP1_HALT = SleepStateConfig(
    name="Sleep1 (Halt)",
    power_savings=0.702,
    transition_latency_ns=10 * NS_PER_US,
    snoops=True,
    voltage_reduction=False,
)
SLEEP2 = SleepStateConfig(
    name="Sleep2",
    power_savings=0.792,
    transition_latency_ns=15 * NS_PER_US,
    snoops=False,
    voltage_reduction=False,
)
SLEEP3 = SleepStateConfig(
    name="Sleep3",
    power_savings=0.978,
    transition_latency_ns=35 * NS_PER_US,
    snoops=False,
    voltage_reduction=True,
)

DEFAULT_SLEEP_STATES = (SLEEP1_HALT, SLEEP2, SLEEP3)


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and access latency of one cache level."""

    size_bytes: int
    line_bytes: int
    ways: int
    round_trip_ns: int
    freq_mhz: int

    def __post_init__(self):
        if self.size_bytes % (self.line_bytes * self.ways) != 0:
            raise ConfigError(
                "cache size {} not divisible into {}-way sets of {}-byte "
                "lines".format(self.size_bytes, self.ways, self.line_bytes)
            )

    @property
    def n_lines(self):
        return self.size_bytes // self.line_bytes

    @property
    def n_sets(self):
        return self.n_lines // self.ways


@dataclass(frozen=True)
class NetworkConfig:
    """Hypercube wormhole network parameters (Table 1, bottom)."""

    pin_to_pin_ns: int = 16
    marshal_ns: int = 16
    router_freq_mhz: int = 250


@dataclass(frozen=True)
class MachineConfig:
    """The CC-NUMA machine of the paper's Table 1.

    One processor per node; 64 nodes arranged as a hypercube; release
    consistency with a DASH-style directory protocol.
    """

    n_nodes: int = 64
    cpu_freq_mhz: int = 1_000
    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=16 * 1024, line_bytes=64, ways=2,
            round_trip_ns=2, freq_mhz=1_000,
        )
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=64 * 1024, line_bytes=64, ways=8,
            round_trip_ns=12, freq_mhz=500,
        )
    )
    memory_row_miss_ns: int = 60
    bus_freq_mhz: int = 250
    bus_width_bytes: int = 16
    network: NetworkConfig = field(default_factory=NetworkConfig)
    page_bytes: int = 4 * 1024
    #: When False, memory operations use fixed best-case latencies instead
    #: of full directory-protocol transactions (fast mode for tests).
    detailed_memory: bool = True
    #: Fixed cost to start a deep-sleep cache flush (drain/arbitration).
    flush_base_ns: int = 60
    #: Pipelined write-back cost per dirty line during a flush
    #: (64-byte line over the 16-byte, 250 MHz bus).
    flush_per_line_ns: int = 16
    #: Post-wake compulsory-miss penalty per flushed line, charged to the
    #: next compute phase (Section 5.2: flushes grow the Compute segment).
    #: Refills overlap in the out-of-order core, so the effective cost is
    #: well below the serial memory latency.
    refill_per_line_ns: int = 30

    def __post_init__(self):
        if self.n_nodes < 1 or self.n_nodes & (self.n_nodes - 1):
            raise ConfigError(
                "hypercube requires a power-of-two node count, got {}".format(
                    self.n_nodes
                )
            )
        if self.l1.line_bytes != self.l2.line_bytes:
            raise ConfigError("L1 and L2 must share a line size")

    @property
    def line_bytes(self):
        return self.l1.line_bytes


@dataclass(frozen=True)
class EnergyConfig:
    """Knobs of the energy model (paper Section 4.3)."""

    #: Spinloop power as a fraction of regular compute power.
    spin_power_factor: float = 0.85
    #: Nominal supply voltage used by the Wattch-style model.
    supply_voltage: float = 1.5

    def __post_init__(self):
        if not 0.0 < self.spin_power_factor <= 1.0:
            raise ConfigError("spin_power_factor must be in (0, 1]")


@dataclass(frozen=True)
class ThriftyConfig:
    """Policy parameters of the thrifty barrier (paper Section 3).

    The defaults reproduce the configuration evaluated in the paper:
    conditional sleep, all three sleep states, hybrid wake-up, a 10%
    overprediction threshold, and the underprediction filter for
    context-switch/I/O-perturbed intervals.
    """

    sleep_states: tuple = DEFAULT_SLEEP_STATES
    #: Disable prediction for (thread, barrier) after a late wake-up whose
    #: penalty exceeds this fraction of the barrier interval time.
    overprediction_threshold: float = 0.10
    #: Skip the predictor update when the observed BIT exceeds the
    #: predicted BIT by more than this factor (Section 3.4.2).
    underprediction_factor: float = 4.0
    #: Arm the countdown timer in the cache controller (internal wake-up).
    use_internal_wakeup: bool = True
    #: Wake on invalidation of the barrier-flag line (external wake-up).
    use_external_wakeup: bool = True
    #: Require predicted slack to cover the state's round trip before
    #: sleeping (conditional sleep). Unconditional sleep is the strawman
    #: of Section 3.1.
    conditional_sleep: bool = True
    #: Graceful degradation: re-enable a cut-off (thread, barrier)
    #: predictor after this many consecutive safe episodes. 0 keeps the
    #: paper's policy — once disabled, disabled forever.
    probation_episodes: int = 0
    #: Graceful degradation: a disabled (thread, barrier) falls back to
    #: the conventional spin-then-sleep policy (bounded spin, then Halt
    #: on the external wake-up) instead of pure spinning.
    fallback_spin_then_sleep: bool = False
    #: Spin budget of the fallback policy before it executes Halt.
    fallback_spin_threshold_ns: int = 50_000

    def __post_init__(self):
        if not self.sleep_states:
            raise ConfigError("at least one sleep state is required")
        if not self.use_internal_wakeup and not self.use_external_wakeup:
            raise ConfigError("at least one wake-up mechanism is required")
        if self.overprediction_threshold <= 0:
            raise ConfigError("overprediction_threshold must be positive")
        if self.probation_episodes < 0:
            raise ConfigError("probation_episodes must be non-negative")
        if self.fallback_spin_threshold_ns < 0:
            raise ConfigError(
                "fallback_spin_threshold_ns must be non-negative"
            )
        latencies = [s.transition_latency_ns for s in self.sleep_states]
        if latencies != sorted(latencies):
            raise ConfigError(
                "sleep states must be ordered by increasing latency"
            )
