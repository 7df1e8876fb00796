"""Sleep-state selection and transition-energy helpers.

The selection rule is the paper's ``sleep()`` library behaviour
(Section 3.1): scan a table of states for the *deepest* one whose entry
plus exit latency — and, for non-snooping states, the cache-flush
overhead — fits within the estimated stall time. Return nothing if no
state fits (the caller then spins conventionally).
"""

from repro.errors import ConfigError


def select_sleep_state(states, slack_ns, flush_ns=0, conditional=True):
    """Pick the deepest state usable within ``slack_ns`` of stall time.

    Parameters
    ----------
    states:
        Iterable of :class:`~repro.config.SleepStateConfig`, shallow to
        deep (the paper's table scan order).
    slack_ns:
        Predicted barrier stall time ahead of the thread.
    flush_ns:
        Time to flush dirty cached data, charged only to states that
        cannot snoop while asleep.
    conditional:
        When False (the unconditional-sleep strawman of Section 3.1), the
        shallowest state is returned regardless of slack.

    Returns
    -------
    SleepStateConfig or None
    """
    states = list(states)
    if not states:
        raise ConfigError("no sleep states supplied")
    if not conditional:
        return states[0]
    best = None
    for state in states:
        cost = state.round_trip_ns + (0 if state.snoops else flush_ns)
        if cost <= slack_ns:
            if best is None or state.power_savings > best.power_savings:
                best = state
    return best


def ramp_energy(power_from_watts, power_to_watts, duration_ns):
    """Energy of a linear power ramp over ``duration_ns`` (joules).

    The paper assumes power changes linearly along the transition
    latency, so the energy is the trapezoid area.
    """
    if duration_ns < 0:
        raise ConfigError("ramp duration must be non-negative")
    average_watts = 0.5 * (power_from_watts + power_to_watts)
    return average_watts * duration_ns * 1e-9

