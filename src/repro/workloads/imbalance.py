"""Per-thread imbalance models and per-instance interval swing.

An :class:`ImbalanceModel` turns a phase's mean compute time into one
duration per thread for one dynamic instance. The shapes:

* :class:`Balanced` — everyone computes the mean (plus noise);
* :class:`UniformWindow` — arrivals spread uniformly over a window, the
  shape of data-dependent load imbalance;
* :class:`RotatingStraggler` — one thread (a different one each
  instance) carries extra work. This is the regime where barrier stall
  time is thread-dependent and erratic while the interval time stays
  stable — precisely the observation motivating BIT prediction
  (Section 3.2, Figure 3).

A :class:`Swing` scales *whole instances* (all threads together),
modeling Ocean-style interval times that "swing significantly across
instances" and defeat last-value prediction (Section 5.2).
"""

import abc

import numpy as np

from repro.errors import WorkloadError


class ImbalanceModel(abc.ABC):
    """Per-thread duration sampler for one dynamic barrier instance."""

    def __init__(self, sigma=0.02):
        if sigma < 0:
            raise WorkloadError("noise sigma must be non-negative")
        self.sigma = sigma

    def _noise(self, rng, n_threads):
        if self.sigma == 0:
            return np.ones(n_threads)
        return np.exp(rng.normal(0.0, self.sigma, size=n_threads))

    @abc.abstractmethod
    def _shape(self, rng, n_threads):
        """Per-thread multipliers before noise (mean about 1)."""

    def sample(self, rng, n_threads, mean_ns):
        """Integer per-thread durations for one instance."""
        if mean_ns <= 0:
            raise WorkloadError("mean duration must be positive")
        multipliers = self._shape(rng, n_threads) * self._noise(
            rng, n_threads
        )
        durations = np.maximum(1, (multipliers * mean_ns).astype(np.int64))
        return durations


class Balanced(ImbalanceModel):
    """No systematic imbalance, only noise."""

    def _shape(self, rng, n_threads):
        return np.ones(n_threads)


class UniformWindow(ImbalanceModel):
    """Durations uniform in ``mean * [1 - width/2, 1 + width/2]``."""

    def __init__(self, width, sigma=0.02):
        super().__init__(sigma)
        if not 0 <= width <= 2:
            raise WorkloadError("window width must be in [0, 2]")
        self.width = width

    def _shape(self, rng, n_threads):
        return 1.0 + self.width * (rng.random(n_threads) - 0.5)


class RotatingStraggler(ImbalanceModel):
    """One randomly chosen thread does ``1 + extra`` of the mean work."""

    def __init__(self, extra, sigma=0.02):
        super().__init__(sigma)
        if extra < 0:
            raise WorkloadError("straggler extra must be non-negative")
        self.extra = extra

    def _shape(self, rng, n_threads):
        shape = np.ones(n_threads)
        shape[rng.integers(n_threads)] += self.extra
        return shape


class Swing:
    """Per-instance global scale: with probability ``p_high`` the whole
    instance runs ``high`` times the mean, otherwise ``low`` times."""

    def __init__(self, low=1.0, high=5.0, p_high=0.5):
        if low <= 0 or high <= 0:
            raise WorkloadError("swing multipliers must be positive")
        if not 0 <= p_high <= 1:
            raise WorkloadError("p_high must be a probability")
        self.low = low
        self.high = high
        self.p_high = p_high

    def sample(self, rng):
        return self.high if rng.random() < self.p_high else self.low


class AlternatingSwing:
    """Deterministic high/low alternation across instances.

    The worst case for last-value prediction: every observation is
    wrong about the next instance. Models Ocean's relaxation barriers
    whose interval drops sharply on every other invocation
    (Section 5.2: "interval times can swing significantly across
    instances ... the simple last-value prediction does not work well
    for this pattern").
    """

    def __init__(self, high=1.0, low=0.1):
        if low <= 0 or high <= 0:
            raise WorkloadError("swing multipliers must be positive")
        self.high = high
        self.low = low
        self._count = 0

    def sample(self, _rng):
        value = self.high if self._count % 2 == 0 else self.low
        self._count += 1
        return value
