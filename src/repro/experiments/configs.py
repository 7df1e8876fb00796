"""The five configurations of the paper's evaluation (Section 5.1).

========== ===== ====================================================
name       short meaning
========== ===== ====================================================
baseline     B   conventional sense-reversal spin barrier
thrifty-halt H   thrifty with Halt as the only sleep state
oracle-halt  O   Thrifty-Halt with perfect BIT prediction (derived)
thrifty      T   thrifty with all three sleep states
ideal        I   perfect prediction, all states, no flush (derived)
========== ===== ====================================================

``baseline``, ``thrifty-halt``, and ``thrifty`` run live simulations;
``oracle-halt`` and ``ideal`` are exact post-hoc replays of the Baseline
run (they never perturb timing — see :mod:`repro.sync.oracle`).
"""

from repro.config import DEFAULT_SLEEP_STATES, SLEEP1_HALT, ThriftyConfig
from repro.errors import ConfigError
from repro.sync import ConventionalBarrier, ThriftyBarrier

CONFIG_NAMES = ("baseline", "thrifty-halt", "oracle-halt", "thrifty", "ideal")

CONFIG_SHORT = {
    "baseline": "B",
    "thrifty-halt": "H",
    "oracle-halt": "O",
    "thrifty": "T",
    "ideal": "I",
}

LIVE_CONFIGS = ("baseline", "thrifty-halt", "thrifty")
DERIVED_CONFIGS = ("oracle-halt", "ideal")

def check_configs(names):
    """``names`` as a tuple, or :class:`~repro.errors.ConfigError` if
    any is not one of :data:`CONFIG_NAMES`."""
    names = tuple(names)
    unknown = [name for name in names if name not in CONFIG_NAMES]
    if unknown:
        raise ConfigError(
            "unknown configuration(s) {}; choose from {}".format(
                ", ".join(map(repr, unknown)), ", ".join(CONFIG_NAMES)
            )
        )
    return names


#: Sleep-state menus of the derived (perfect-prediction) configurations.
ORACLE_STATES = {
    "oracle-halt": (SLEEP1_HALT,),
    "ideal": DEFAULT_SLEEP_STATES,
}


def thrifty_config_for(name, **overrides):
    """The :class:`~repro.config.ThriftyConfig` of a live configuration."""
    if name == "thrifty":
        return ThriftyConfig(**overrides)
    if name == "thrifty-halt":
        overrides.setdefault("sleep_states", (SLEEP1_HALT,))
        return ThriftyConfig(**overrides)
    raise ConfigError("{!r} has no thrifty config".format(name))


def barrier_factory_for(name, **overrides):
    """Barrier factory for a live configuration (see WorkloadRunner)."""
    if name == "baseline":
        def factory(system, domain, n_threads, pc, trace):
            return ConventionalBarrier(
                system, domain, n_threads, pc, trace=trace
            )
        return factory
    if name in ("thrifty", "thrifty-halt"):
        config = thrifty_config_for(name, **overrides)

        def factory(system, domain, n_threads, pc, trace):
            return ThriftyBarrier(
                system, domain, n_threads, pc, trace=trace, config=config
            )
        return factory
    raise ConfigError(
        "{!r} is not a live configuration; derive it from baseline".format(
            name
        )
    )
