"""Per-CPU energy and time ledgers.

Every simulated CPU keeps an :class:`EnergyAccount`; each state segment
(a contiguous span in one category at one power level) is recorded as it
closes. The four categories are exactly the stacked segments of the
paper's Figures 5 and 6.
"""

import enum

from repro.errors import SimulationError


class Category(enum.Enum):
    """Where a CPU's time (and energy) went."""

    COMPUTE = "compute"
    SPIN = "spin"
    TRANSITION = "transition"
    SLEEP = "sleep"


# Dense per-member index so the hot ledger can be list-backed: dict
# operations keyed by enum members go through the Python-level
# ``Enum.__hash__``, which showed up as a top-ten cost in profiles of
# the accounting path.
for _index, _category in enumerate(Category):
    _category.ledger_index = _index
_N_CATEGORIES = len(Category)

_TIME_KEY = ["energy.time_ns[{}]".format(c.value) for c in Category]
_JOULES_KEY = ["energy.joules[{}]".format(c.value) for c in Category]


class EnergyAccount:
    """Accumulates joules and nanoseconds per :class:`Category`.

    ``telemetry`` is an optional :class:`~repro.telemetry.tracer.Tracer`;
    when enabled, every closed segment also bumps the per-category
    residency counters of its metrics registry (``energy.time_ns[...]``
    / ``energy.joules[...]``) directly, in charge order, rather than
    through an event. Disabled or absent telemetry costs one branch per
    segment.
    """

    def __init__(self, telemetry=None):
        # Ledgers are list-backed, indexed by Category.ledger_index.
        self._energy_j = [0.0] * _N_CATEGORIES
        self._time_ns = [0] * _N_CATEGORIES
        self._telemetry = telemetry
        # ledger_index -> (time counter, joules counter), resolved
        # lazily on first use so the registry only ever sees categories
        # that were actually charged (snapshots stay unchanged).
        self._counters = [None] * _N_CATEGORIES

    def add(self, category, duration_ns, power_watts=None, energy_joules=None):
        """Record a segment.

        Exactly one of ``power_watts`` (constant-power segment) or
        ``energy_joules`` (precomputed, e.g. a transition ramp) must be
        given.
        """
        if duration_ns < 0:
            raise SimulationError("segment duration must be non-negative")
        if energy_joules is None:
            if power_watts is None:
                raise SimulationError(
                    "pass exactly one of power_watts / energy_joules"
                )
            energy_joules = power_watts * duration_ns * 1e-9
        elif power_watts is not None:
            raise SimulationError(
                "pass exactly one of power_watts / energy_joules"
            )
        if energy_joules < 0:
            raise SimulationError("segment energy must be non-negative")
        index = category.ledger_index
        self._energy_j[index] += energy_joules
        self._time_ns[index] += duration_ns
        telemetry = self._telemetry
        if telemetry is not None and telemetry.enabled:
            pair = self._counters[index]
            if pair is None:
                pair = self._counters[index] = (
                    telemetry.counter(_TIME_KEY[index]),
                    telemetry.counter(_JOULES_KEY[index]),
                )
            # Both amounts were checked non-negative above, all that
            # Counter.inc would check.
            pair[0].value += duration_ns
            pair[1].value += energy_joules

    def __getstate__(self):
        # The tracer (and its cached counters) are live, run-scoped
        # objects; ledgers travel (into worker-process results, the
        # on-disk cache) without them. The enum-keyed dict shape keeps
        # the pickle format compatible across versions of this class.
        return {
            "_energy_j": {
                c: self._energy_j[c.ledger_index] for c in Category
            },
            "_time_ns": {c: self._time_ns[c.ledger_index] for c in Category},
            "_telemetry": None,
        }

    def __setstate__(self, state):
        self._telemetry = None
        self._counters = [None] * _N_CATEGORIES
        energy, time = state["_energy_j"], state["_time_ns"]
        self._energy_j = [energy[c] for c in Category]
        self._time_ns = [time[c] for c in Category]

    def energy_joules(self, category=None):
        """Energy in one category, or total when ``category`` is None."""
        if category is None:
            return sum(self._energy_j)
        return self._energy_j[category.ledger_index]

    def time_ns(self, category=None):
        """Time in one category, or total when ``category`` is None."""
        if category is None:
            return sum(self._time_ns)
        return self._time_ns[category.ledger_index]

    def merge(self, other):
        """Fold another account into this one (for system-wide totals)."""
        for index in range(_N_CATEGORIES):
            self._energy_j[index] += other._energy_j[index]
            self._time_ns[index] += other._time_ns[index]
        return self

    def energy_breakdown(self):
        """Dict of category name to joules."""
        return {c.value: self._energy_j[c.ledger_index] for c in Category}

    def time_breakdown(self):
        """Dict of category name to nanoseconds."""
        return {c.value: self._time_ns[c.ledger_index] for c in Category}

    def __repr__(self):
        parts = ", ".join(
            "{}={:.3g}J".format(c.value, self._energy_j[c.ledger_index])
            for c in Category
        )
        return "EnergyAccount({})".format(parts)
