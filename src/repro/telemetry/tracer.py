"""The tracer the instrumentation points emit into.

The overhead contract: every instrumentation site guards on
:attr:`Tracer.enabled` *before* constructing an event object, so a
disabled tracer costs one attribute load and a branch per site and
allocates nothing. ``benchmarks/bench_telemetry_overhead.py`` enforces
the budget (disabled-tracer runtime within 5% of the untraced
baseline). An enabled tracer's :meth:`~Tracer.emit` only appends: the
metrics are derived from the stream when :attr:`Tracer.metrics` is
read, not per emit, so a run whose metrics nobody reads (an explored
schedule) never folds them.

:data:`NULL_TRACER` is the shared disabled sentinel wired in wherever
no tracer was requested; its :meth:`~NullTracer.emit` *raises*, turning
any missed ``enabled`` guard into an immediate, loud failure instead of
silent cross-run state pollution.
"""

from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.telemetry.metrics import MetricsRegistry


class TelemetryError(ReproError):
    """The telemetry layer was used incorrectly."""


@dataclass(frozen=True)
class TelemetrySnapshot:
    """Immutable, picklable capture of one run's telemetry.

    ``events`` is the full typed event stream in emission order (which
    the deterministic simulator makes reproducible bit-for-bit);
    ``metrics`` is a :meth:`~repro.telemetry.metrics.MetricsRegistry.
    snapshot` dict. Snapshots travel across process boundaries (the
    parallel engine) and in/out of the on-disk result cache.
    """

    events: tuple = ()
    metrics: dict = field(default_factory=dict)

    def registry(self):
        """Rebuild a live :class:`MetricsRegistry` from the snapshot."""
        return MetricsRegistry.from_snapshot(self.metrics)


class Tracer:
    """Collects typed events and derives metrics from them.

    Parameters
    ----------
    enabled:
        The guard flag every instrumentation site checks. A tracer
        created disabled never receives events and never allocates.
    """

    __slots__ = ("enabled", "events", "_registry", "_folded")

    def __init__(self, enabled=True):
        self.enabled = enabled
        self.events = []
        self._registry = MetricsRegistry()
        # How many events of the stream the registry has recorded.
        self._folded = 0

    def emit(self, event):
        """Append one event; its metrics are folded when read."""
        self.events.append(event)

    @property
    def metrics(self):
        """The :class:`MetricsRegistry` of the stream so far.

        Each read first records, in stream order, every event emitted
        since the last read, so a registry kept across later emits is
        stale until this is read again.
        """
        registry = self._registry
        events = self.events
        for index in range(self._folded, len(events)):
            events[index].record(registry)
        self._folded = len(events)
        return registry

    def counter(self, name):
        """The registry's counter ``name``, for a writer that bumps it
        directly instead of through an event (the energy ledger's
        residency totals). Folds nothing; no event may record into a
        counter bumped this way, or the fold would reorder their sums.
        """
        return self._registry.counter(name)

    def snapshot(self):
        """Freeze the stream and metrics into a :class:`TelemetrySnapshot`."""
        return TelemetrySnapshot(
            events=tuple(self.events), metrics=self.metrics.snapshot()
        )

    def __repr__(self):
        return "Tracer(enabled={}, {} events)".format(
            self.enabled, len(self.events)
        )


class NullTracer(Tracer):
    """The disabled sentinel: emitting into it is a bug, and raises."""

    __slots__ = ()

    def __init__(self):
        super().__init__(enabled=False)

    def emit(self, event):
        raise TelemetryError(
            "emit() on the disabled NULL_TRACER — an instrumentation "
            "site is missing its `if tracer.enabled` guard "
            "(event: {!r})".format(event)
        )


#: Shared disabled tracer; the default wherever telemetry is optional.
NULL_TRACER = NullTracer()


def collect_run_metrics(tracer, system, run=None):
    """Harvest end-of-run counters the hot paths keep as plain ints.

    The simulator and the cache controllers count unconditionally
    (integer adds, cheaper than any guard), so their totals are folded
    into the registry once, here, instead of per event. ``run`` is an
    optional :class:`~repro.workloads.generator.RunResult` contributing
    the predictor-table statistics.
    """
    if not tracer.enabled:
        return
    metrics = tracer.metrics
    sim = system.sim
    metrics.counter("sim.callbacks_executed").inc(sim.executed)
    metrics.counter("sim.cancelled_skips").inc(sim.skipped_cancelled)
    metrics.gauge("sim.execution_time_ns").set(sim.now)
    metrics.counter("coherence.monitor_fires").inc(
        sum(node.controller.stats_monitor_fires for node in system.nodes)
    )
    metrics.counter("coherence.flushed_lines").inc(
        sum(node.controller.stats_flushed_lines for node in system.nodes)
    )
    if run is not None and run.predictor is not None:
        stats = run.predictor.stats
        metrics.counter("predictor.table.predictions").inc(stats.predictions)
        metrics.counter("predictor.table.cold_misses").inc(stats.cold_misses)
        metrics.counter("predictor.table.updates").inc(stats.updates)
        metrics.counter("predictor.table.disables").inc(stats.disables)
