"""The ten SPLASH-2 application models of Table 2.

Each model reproduces the application's *barrier-arrival process* at the
paper's problem size (Table 2), calibrated so that the measured Baseline
barrier imbalance on 64 threads lands at the paper's figure:

========== ============ =========================================
app        imbalance    character
========== ============ =========================================
volrend    48.20%       few, very long, straggler-dominated phases
radix      19.50%       per-digit passes: histogram/scan/permute
fmm        16.56%       3 main-loop barriers shaped as in Figure 3
barnes     15.93%       tree build + force + advance per time step
water-nsq  12.90%       O(n^2) forces; large dirty footprint
water-sp    9.79%       spatial version, milder imbalance
ocean       7.60%       many short barriers with swinging intervals
fft         3.82%       a handful of non-repeating barriers
cholesky    1.64%       non-repeating factorization barriers
radiosity   1.04%       task stealing keeps phases balanced
========== ============ =========================================

The straggler fraction ``e`` follows from the target imbalance ``I``
via ``I = e / (1 + e)`` (one straggler among many threads); uniform
windows use ``I = (w/2) / (1 + w/2)``. Small calibration corrections on
top account for check-in serialization, which lengthens simulated
intervals slightly.
"""

from repro.errors import ConfigError, WorkloadError
from repro.workloads.base import PhaseSpec, WorkloadModel
from repro.workloads.imbalance import (
    AlternatingSwing,
    Balanced,
    RotatingStraggler,
    Swing,
    UniformWindow,
)

US = 1_000
MS = 1_000_000

#: Paper Table 2, for calibration tests and the Table 2 benchmark.
TABLE2_IMBALANCE = {
    "volrend": 0.4820,
    "radix": 0.1950,
    "fmm": 0.1656,
    "barnes": 0.1593,
    "water-nsq": 0.1290,
    "water-sp": 0.0979,
    "ocean": 0.0760,
    "fft": 0.0382,
    "cholesky": 0.0164,
    "radiosity": 0.0104,
}

#: Paper Table 2 problem sizes (documentation; the models encode their
#: *timing consequences*).
TABLE2_PROBLEM_SIZE = {
    "volrend": "head",
    "radix": "1M integers, radix 1,024",
    "fmm": "16k particles, 8 time steps",
    "barnes": "16k particles, 8 time steps",
    "water-nsq": "512 molecules, 12 time steps",
    "water-sp": "512 molecules, 12 time steps",
    "ocean": "514 by 514 ocean",
    "fft": "64k points",
    "cholesky": "tk15",
    "radiosity": "room -ae 5000.0 -en 0.05 -bf 0.1",
}


def _volrend():
    # Ray casting over the "head" volume: a handful of long phases per
    # frame whose cost concentrates on whichever thread owns the dense
    # rays. Largest imbalance and the largest interval times of the
    # suite — the showcase for deep sleep states (Section 5.2).
    straggler = 0.98
    return WorkloadModel(
        name="volrend",
        loop_phases=(
            PhaseSpec("volrend.ray", int(2.5 * MS),
                      RotatingStraggler(straggler, sigma=0.012),
                      dirty_lines=96),
            PhaseSpec("volrend.composite", int(1.2 * MS),
                      RotatingStraggler(0.925, sigma=0.012),
                      dirty_lines=48),
            PhaseSpec("volrend.copy", int(1.8 * MS),
                      RotatingStraggler(0.955, sigma=0.012),
                      dirty_lines=64),
        ),
        iterations=24,
        description="volume rendering (head), frame loop",
    )


def _radix():
    # Radix sort, 1M keys, radix 1024: per-digit histogram, prefix
    # scan, and permutation phases; key distribution skews the work.
    extra = 0.252
    return WorkloadModel(
        name="radix",
        loop_phases=(
            PhaseSpec("radix.histogram", 450 * US,
                      RotatingStraggler(extra, sigma=0.025),
                      dirty_lines=64),
            PhaseSpec("radix.scan", 250 * US,
                      RotatingStraggler(extra, sigma=0.025),
                      dirty_lines=24),
            PhaseSpec("radix.permute", 800 * US,
                      RotatingStraggler(extra, sigma=0.025),
                      dirty_lines=96),
            PhaseSpec("radix.copy", 350 * US,
                      RotatingStraggler(extra, sigma=0.025),
                      dirty_lines=48),
        ),
        iterations=6,
        description="radix sort passes over 1M integers",
    )


def _fmm():
    # Fast multipole, 16k particles: the three main-loop barriers of
    # Figure 3 with interval ratios ~1.45 : 0.63 : 0.91 and distinct
    # per-barrier imbalance. BST varies across threads/instances while
    # the per-PC BIT stays stable — the paper's motivating observation.
    return WorkloadModel(
        name="fmm",
        loop_phases=(
            PhaseSpec("fmm.b1", int(1.40 * MS),
                      RotatingStraggler(0.285, sigma=0.03),
                      dirty_lines=128),
            PhaseSpec("fmm.b2", int(0.70 * MS),
                      RotatingStraggler(0.10, sigma=0.03),
                      dirty_lines=32),
            PhaseSpec("fmm.b3", int(0.95 * MS),
                      RotatingStraggler(0.165, sigma=0.03),
                      dirty_lines=64),
        ),
        iterations=8,
        description="fast multipole main loop (Figure 3 barriers)",
    )


def _barnes():
    extra = 0.195
    return WorkloadModel(
        name="barnes",
        loop_phases=(
            PhaseSpec("barnes.maketree", 500 * US,
                      RotatingStraggler(extra, sigma=0.03),
                      dirty_lines=64),
            PhaseSpec("barnes.forces", int(1.2 * MS),
                      RotatingStraggler(extra, sigma=0.03),
                      dirty_lines=48),
            PhaseSpec("barnes.forces2", 900 * US,
                      RotatingStraggler(extra, sigma=0.03),
                      dirty_lines=48),
            PhaseSpec("barnes.advance", 400 * US,
                      RotatingStraggler(extra, sigma=0.03),
                      dirty_lines=32),
            PhaseSpec("barnes.energy", 300 * US,
                      RotatingStraggler(extra, sigma=0.03),
                      dirty_lines=16),
        ),
        iterations=8,
        description="Barnes-Hut time steps, 16k particles",
    )


def _water_nsq():
    # O(n^2) water: heavy write sharing -> the big dirty footprint the
    # paper blames for Thrifty's Compute growth here.
    extra = 0.148
    return WorkloadModel(
        name="water-nsq",
        loop_phases=(
            PhaseSpec("waternsq.intra", 600 * US,
                      RotatingStraggler(extra, sigma=0.025),
                      dirty_lines=112),
            PhaseSpec("waternsq.inter", 900 * US,
                      RotatingStraggler(extra, sigma=0.025),
                      dirty_lines=144),
            PhaseSpec("waternsq.kinetic", 300 * US,
                      RotatingStraggler(extra, sigma=0.025),
                      dirty_lines=48),
            PhaseSpec("waternsq.update", 450 * US,
                      RotatingStraggler(extra, sigma=0.025),
                      dirty_lines=80),
        ),
        iterations=12,
        description="O(n^2) molecular dynamics, 512 molecules",
    )


def _water_sp():
    extra = 0.106
    return WorkloadModel(
        name="water-sp",
        loop_phases=(
            PhaseSpec("watersp.intra", 550 * US,
                      RotatingStraggler(extra, sigma=0.025),
                      dirty_lines=48),
            PhaseSpec("watersp.inter", 750 * US,
                      RotatingStraggler(extra, sigma=0.025),
                      dirty_lines=64),
            PhaseSpec("watersp.kinetic", 280 * US,
                      RotatingStraggler(extra, sigma=0.025),
                      dirty_lines=24),
            PhaseSpec("watersp.update", 420 * US,
                      RotatingStraggler(extra, sigma=0.025),
                      dirty_lines=40),
        ),
        iterations=12,
        description="spatial molecular dynamics, 512 molecules",
    )


def _ocean():
    # 514x514 ocean: many short relaxation barriers whose interval
    # times swing across instances of the same barrier — the pattern
    # that defeats last-value prediction and motivates the cut-off
    # (Section 5.2). A third of the PCs swing by ~6x.
    window = UniformWindow(0.17, sigma=0.007)
    swing = Swing(low=0.22, high=3.2, p_high=0.45)
    # Short, nearly balanced point-update barriers whose interval often
    # drops to a few tens of microseconds: the instances where Thrifty
    # "overkills in selecting a sleep state" and the external wake-up
    # exposes the full exit transition plus the flush of dirty data
    # (Section 5.2). These drive the overprediction cut-off.
    def short_swing_factory():
        # 3.5x alternation: large enough that last-value is badly wrong
        # on every instance, small enough to pass the underprediction
        # filter, so the overprediction cut-off is the only defence.
        return AlternatingSwing(high=3.5, low=1.0)
    phases = []
    for index in range(12):
        mean = (300 + 110 * index) * US
        phases.append(
            PhaseSpec(
                "ocean.b{:02d}".format(index),
                mean,
                window,
                swing=swing if index % 2 == 0 else None,
                dirty_lines=96,
            )
        )
        phases.append(
            PhaseSpec(
                "ocean.pt{:02d}".format(index),
                150 * US,
                Balanced(sigma=0.004),
                swing=short_swing_factory(),
                dirty_lines=96,
            )
        )
    return WorkloadModel(
        name="ocean",
        loop_phases=tuple(phases),
        iterations=20,
        description="red-black relaxation sweeps, 514x514 grid",
    )


def _fft():
    # 64k-point FFT: each transpose/compute barrier executes once, so
    # the PC-indexed predictor never warms up and Thrifty degenerates
    # to Baseline (Section 5.1).
    window = UniformWindow(0.059, sigma=0.009)
    return WorkloadModel(
        name="fft",
        setup_phases=(
            PhaseSpec("fft.init", int(0.9 * MS), window, dirty_lines=64),
            PhaseSpec("fft.transpose1", int(1.4 * MS), window,
                      dirty_lines=96),
            PhaseSpec("fft.compute1", int(1.1 * MS), window, dirty_lines=64),
            PhaseSpec("fft.transpose2", int(1.4 * MS), window,
                      dirty_lines=96),
            PhaseSpec("fft.compute2", int(1.1 * MS), window, dirty_lines=64),
            PhaseSpec("fft.transpose3", int(1.3 * MS), window,
                      dirty_lines=96),
        ),
        description="six one-shot transpose/compute barriers",
    )


def _cholesky():
    window = UniformWindow(0.0225, sigma=0.004)
    return WorkloadModel(
        name="cholesky",
        setup_phases=(
            PhaseSpec("cholesky.alloc", int(1.4 * MS), window,
                      dirty_lines=32),
            PhaseSpec("cholesky.factor", int(3.0 * MS), window,
                      dirty_lines=64),
            PhaseSpec("cholesky.solve", int(1.7 * MS), window,
                      dirty_lines=48),
            PhaseSpec("cholesky.check", int(0.9 * MS), window,
                      dirty_lines=16),
        ),
        description="tk15 sparse factorization, one-shot barriers",
    )


def _radiosity():
    # Task stealing keeps radiosity nearly balanced.
    window = UniformWindow(0.002, sigma=0.0008)
    return WorkloadModel(
        name="radiosity",
        loop_phases=(
            PhaseSpec("radiosity.refine", 1950 * US, window, dirty_lines=32),
            PhaseSpec("radiosity.radavg", 1500 * US, window, dirty_lines=24),
        ),
        iterations=10,
        description="hierarchical radiosity iterations (room scene)",
    )


_FACTORIES = {
    "volrend": _volrend,
    "radix": _radix,
    "fmm": _fmm,
    "barnes": _barnes,
    "water-nsq": _water_nsq,
    "water-sp": _water_sp,
    "ocean": _ocean,
    "fft": _fft,
    "cholesky": _cholesky,
    "radiosity": _radiosity,
}

#: Names in Table 2 order (descending barrier imbalance).
SPLASH2_NAMES = list(TABLE2_IMBALANCE)

#: The applications with >= 10% imbalance — the paper's target set.
TARGET_APPS = ("volrend", "radix", "fmm", "barnes", "water-nsq")


def check_apps(names):
    """Raise :class:`~repro.errors.ConfigError`, naming the valid apps,
    if any of ``names`` is not one of :data:`SPLASH2_NAMES`."""
    unknown = sorted(set(names) - set(SPLASH2_NAMES))
    if unknown:
        raise ConfigError("unknown application(s) {}; choose from {}".format(
            ", ".join(unknown), ", ".join(SPLASH2_NAMES)
        ))


def get_model(name):
    """A fresh :class:`WorkloadModel` for one application."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise WorkloadError(
            "unknown application {!r}; choose from {}".format(
                name, ", ".join(sorted(_FACTORIES))
            )
        ) from None
    return factory()


SPLASH2_MODELS = dict(_FACTORIES)
