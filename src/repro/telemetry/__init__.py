"""Structured tracing and metrics for the simulator.

The telemetry subsystem is the observability layer the per-figure
aggregates are built on: it records *how* the thrifty barrier produced
them — per-thread arrivals, sleep-state selections, hybrid wake-ups,
predictor behaviour — as typed events and deterministic metrics.

* :mod:`repro.telemetry.events` — the typed event records emitted by the
  instrumentation points (and the promoted :class:`SleepRecord`);
* :mod:`repro.telemetry.metrics` — counters, gauges, and fixed-bucket
  histograms with deterministic snapshot/merge semantics;
* :mod:`repro.telemetry.tracer` — the :class:`Tracer` the simulation
  layers emit into, compiled to a no-op when disabled (every
  instrumentation site guards on :attr:`Tracer.enabled` before
  constructing an event, so a disabled run allocates nothing);
* :mod:`repro.telemetry.export` — Chrome trace-event JSON (Perfetto-
  loadable per-thread timelines) and CSV metric dumps.

Quick start::

    from repro.telemetry import Tracer
    from repro.telemetry.export import write_chrome_trace
    from repro.experiments.runner import run_experiment

    result = run_experiment("fmm", "thrifty", threads=16, telemetry=True)
    write_chrome_trace(result.telemetry.events, "trace.json")
"""

from repro.telemetry.events import (
    BarrierCheckIn,
    BarrierDepart,
    BarrierRelease,
    CampaignCancelled,
    CampaignFinished,
    CampaignSubmitted,
    CellResolved,
    FaultInjected,
    InvariantCheck,
    LateWake,
    PredictorDisable,
    PredictorFiltered,
    PredictorHit,
    PredictorReenable,
    PredictorTrain,
    ResumeStarted,
    SleepEnter,
    SleepExit,
    SleepRecord,
    WakeUp,
    WorkerJoined,
    WorkerLeft,
    WorkerStalled,
)
from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.telemetry.tracer import (
    NULL_TRACER,
    NullTracer,
    TelemetryError,
    TelemetrySnapshot,
    Tracer,
)

__all__ = [
    "BarrierCheckIn",
    "BarrierDepart",
    "BarrierRelease",
    "CampaignCancelled",
    "CampaignFinished",
    "CampaignSubmitted",
    "CellResolved",
    "Counter",
    "FaultInjected",
    "Gauge",
    "Histogram",
    "InvariantCheck",
    "LateWake",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "PredictorDisable",
    "PredictorFiltered",
    "PredictorHit",
    "PredictorReenable",
    "PredictorTrain",
    "ResumeStarted",
    "SleepEnter",
    "SleepExit",
    "SleepRecord",
    "TelemetryError",
    "TelemetrySnapshot",
    "Tracer",
    "WakeUp",
    "WorkerJoined",
    "WorkerLeft",
    "WorkerStalled",
]
