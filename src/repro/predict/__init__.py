"""Barrier-interval-time prediction (paper Section 3.2).

The thrifty barrier predicts barrier *stall* time indirectly: it predicts
the thread-independent barrier *interval* time (BIT) with a PC-indexed
table and subtracts the thread's own compute time. This package holds:

* :mod:`repro.predict.base` — the predictor interface with the
  per-(thread, entry) disable bits of Section 3.3.3 (the paper's
  cut-off; the confidence estimators it mentions are not modeled);
* :mod:`repro.predict.last_value` — the paper's last-value predictor,
  plus moving-average and exponentially-weighted variants used by the
  ablation benchmarks;
* :mod:`repro.predict.timing` — the BRTS/BIT/BST bookkeeping of
  Section 3.2.1 (no global clock required);
* :mod:`repro.predict.thresholds` — the overprediction cut-off and the
  underprediction (context switch / I/O) update filter.
"""

from repro.predict.base import Predictor
from repro.predict.last_value import (
    ExponentialPredictor,
    LastValuePredictor,
    MovingAveragePredictor,
)
from repro.predict.thresholds import is_overpredicted, should_update_predictor
from repro.predict.timing import TimingDomain

__all__ = [
    "ExponentialPredictor",
    "LastValuePredictor",
    "MovingAveragePredictor",
    "Predictor",
    "TimingDomain",
    "is_overpredicted",
    "should_update_predictor",
]
