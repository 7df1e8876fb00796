"""Telemetry core: metrics primitives, the tracer, instrumentation.

Covers the three layers of the subsystem contract:

* metric primitives with deterministic snapshot/merge semantics;
* the tracer's guard-flag fast path (a disabled tracer receives zero
  events; emitting into the shared NULL_TRACER raises);
* the instrumentation points — a traced thrifty run emits the expected
  event mix, and the derived metrics agree with the event stream.
"""

import json
import pickle

import pytest

from repro.errors import ConfigError
from repro.experiments.runner import run_experiment
from repro.sim.core import Simulator
from repro.telemetry import (
    NULL_TRACER,
    BarrierCheckIn,
    BarrierDepart,
    BarrierRelease,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    PredictorTrain,
    SleepEnter,
    SleepExit,
    TelemetryError,
    Tracer,
    WakeUp,
)

THREADS = 8


@pytest.fixture(scope="module")
def traced_result():
    return run_experiment(
        "fmm", "thrifty", threads=THREADS, seed=1, telemetry=True
    )


class TestCounter:
    def test_starts_at_zero_and_adds(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(5)
        assert counter.value == 6

    def test_rejects_negative(self):
        with pytest.raises(ConfigError):
            Counter("c").inc(-1)


class TestGauge:
    def test_set(self):
        gauge = Gauge("g")
        gauge.set(42)
        assert gauge.value == 42


class TestHistogram:
    def test_bucket_insertion(self):
        histogram = Histogram("h", bounds=(10, 100, 1000))
        for value in (5, 10, 11, 1001):
            histogram.observe(value)
        # bounds are inclusive upper edges; 10 lands in the first bucket.
        assert histogram.counts == [2, 1, 0, 1]
        assert histogram.count == 4
        assert histogram.sum == 5 + 10 + 11 + 1001
        assert histogram.min == 5
        assert histogram.max == 1001

    def test_mean_and_quantile(self):
        histogram = Histogram("h", bounds=(10, 100, 1000))
        assert histogram.mean() == 0.0
        assert histogram.quantile(0.5) == 0
        for value in (1, 2, 50, 2000):
            histogram.observe(value)
        assert histogram.mean() == pytest.approx(513.25)
        assert histogram.quantile(0.5) == 10  # edge of the covering bucket
        assert histogram.quantile(1.0) == 2000  # overflow returns max

    def test_rejects_bad_bounds(self):
        with pytest.raises(ConfigError):
            Histogram("h", bounds=())
        with pytest.raises(ConfigError):
            Histogram("h", bounds=(10, 10))
        with pytest.raises(ConfigError):
            Histogram("h", bounds=(100, 10))

    def test_rejects_bad_quantile(self):
        with pytest.raises(ConfigError):
            Histogram("h", bounds=(1,)).quantile(1.5)


class TestMetricsRegistry:
    def test_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")
        assert len(registry) == 3

    def test_histogram_redeclare_bounds_mismatch(self):
        registry = MetricsRegistry()
        registry.histogram("h", bounds=(1, 2))
        with pytest.raises(ConfigError):
            registry.histogram("h", bounds=(1, 2, 3))

    def test_snapshot_is_sorted_and_json_serializable(self):
        registry = MetricsRegistry()
        registry.counter("zeta").inc(2)
        registry.counter("alpha").inc(1)
        registry.gauge("mid").set(7)
        registry.histogram("h", bounds=(10,)).observe(3)
        snapshot = registry.snapshot()
        assert list(snapshot["counters"]) == ["alpha", "zeta"]
        json.dumps(snapshot)  # plain primitives only

    def test_snapshot_independent_of_creation_order(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.counter("a").inc()
        first.counter("b").inc(2)
        second.counter("b").inc(2)
        second.counter("a").inc()
        assert json.dumps(first.snapshot(), sort_keys=True) == json.dumps(
            second.snapshot(), sort_keys=True
        )

    def test_merge_semantics(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.counter("c").inc(3)
        right.counter("c").inc(4)
        left.gauge("g").set(10)
        right.gauge("g").set(7)
        left.histogram("h", bounds=(10, 100)).observe(5)
        right.histogram("h", bounds=(10, 100)).observe(500)
        left.merge(right)
        assert left.counter("c").value == 7  # counters add
        assert left.gauge("g").value == 10  # gauges keep max
        histogram = left.histogram("h", bounds=(10, 100))
        assert histogram.count == 2
        assert histogram.counts == [1, 0, 1]
        assert histogram.min == 5 and histogram.max == 500

    def test_merge_accepts_snapshot_dict(self):
        source = MetricsRegistry()
        source.counter("c").inc(2)
        target = MetricsRegistry().merge(source.snapshot())
        assert target.counter("c").value == 2

    def test_merge_histogram_bounds_mismatch(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.histogram("h", bounds=(1, 2))
        right.histogram("h", bounds=(3, 4))
        with pytest.raises(ConfigError):
            left.merge(right)

    def test_from_snapshot_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(9)
        registry.gauge("g").set(4)
        registry.histogram("h", bounds=(10,)).observe(2)
        rebuilt = MetricsRegistry.from_snapshot(registry.snapshot())
        assert rebuilt.snapshot() == registry.snapshot()


class TestTracer:
    def test_emit_collects_and_records(self):
        tracer = Tracer()
        tracer.emit(BarrierCheckIn(
            ts=10, thread=0, pc="b1", sequence=0, is_last=True
        ))
        assert len(tracer.events) == 1
        assert tracer.metrics.counter("barrier.check_ins").value == 1
        assert tracer.metrics.counter("barrier.last_arrivals").value == 1

    def test_snapshot_freezes(self):
        tracer = Tracer()
        tracer.emit(BarrierCheckIn(
            ts=10, thread=0, pc="b1", sequence=0, is_last=False
        ))
        snapshot = tracer.snapshot()
        assert isinstance(snapshot.events, tuple)
        tracer.emit(BarrierCheckIn(
            ts=20, thread=1, pc="b1", sequence=0, is_last=True
        ))
        assert len(snapshot.events) == 1  # unchanged by later emits

    def test_metrics_fold_each_event_once_when_read(self):
        recorded = []

        class Probe:
            def record(self, metrics):
                recorded.append(self)

        tracer = Tracer()
        first, second = Probe(), Probe()
        tracer.emit(first)
        tracer.emit(second)
        assert recorded == []  # emitting only appends
        registry = tracer.metrics
        assert recorded == [first, second]
        assert tracer.metrics is registry
        assert recorded == [first, second]
        third = Probe()
        tracer.emit(third)
        tracer.snapshot()
        assert recorded == [first, second, third]

    def test_snapshot_registry_rebuilds(self):
        tracer = Tracer()
        tracer.emit(BarrierCheckIn(
            ts=10, thread=0, pc="b1", sequence=0, is_last=False
        ))
        registry = tracer.snapshot().registry()
        assert registry.counter("barrier.check_ins").value == 1

    def test_snapshot_is_picklable(self):
        tracer = Tracer()
        tracer.emit(SleepEnter(ts=5, thread=2, state="Sleep3", flush_lines=7))
        snapshot = tracer.snapshot()
        clone = pickle.loads(pickle.dumps(snapshot))
        assert clone == snapshot

    def test_null_tracer_is_disabled_and_raises(self):
        assert NULL_TRACER.enabled is False
        with pytest.raises(TelemetryError):
            NULL_TRACER.emit(BarrierCheckIn(
                ts=0, thread=0, pc="b1", sequence=0, is_last=False
            ))


def _thrifty_snapshot(tracer, read_mid_run):
    """A traced 4-thread FMM Thrifty run's snapshot, pickled, with one
    callback at 16.7 ms of simulated time (about half the run) that
    reads the metrics when ``read_mid_run``. Every case schedules it,
    so every run dequeues the same callbacks."""
    from repro.config import MachineConfig
    from repro.experiments.configs import barrier_factory_for
    from repro.experiments.runner import build_simulation
    from repro.telemetry.tracer import collect_run_metrics

    system, runner = build_simulation(
        "fmm", 4, 1, barrier_factory_for("thrifty"),
        MachineConfig(n_nodes=4), telemetry=tracer,
    )
    read_at = []

    def midway():
        if read_mid_run:
            tracer.metrics
        read_at.append(len(tracer.events))

    system.sim.schedule(16_700_000, midway)
    run = runner.run()
    collect_run_metrics(tracer, system, run)
    assert 0 < read_at[0] < len(tracer.events)
    return pickle.dumps(tracer.snapshot())


class TestLazyMetrics:
    """The stream is the source of truth: when the registry is folded
    from it never changes what the snapshot holds."""

    def test_unread_metrics_record_no_event(self, monkeypatch):
        from repro.check.harness import run_schedule
        from repro.telemetry.events import EVENT_TYPES

        recorded = []
        for event_type in EVENT_TYPES:
            monkeypatch.setattr(
                event_type, "record",
                lambda event, metrics: recorded.append(event),
            )
        # An explored schedule audits its stream and never reads the
        # tracer's metrics, its energy residency counters included.
        result = run_schedule("fmm", "thrifty", threads=4, seed=1)
        assert result.ok and result.events
        assert recorded == []

    def test_snapshot_is_the_same_whenever_metrics_are_read(self):
        class EagerTracer(Tracer):
            __slots__ = ()

            def emit(self, event):
                super().emit(event)
                self.metrics

        at_end = _thrifty_snapshot(Tracer(), read_mid_run=False)
        assert _thrifty_snapshot(Tracer(), read_mid_run=True) == at_end
        assert _thrifty_snapshot(EagerTracer(), read_mid_run=False) == at_end


class TestDisabledTelemetry:
    def test_untraced_run_has_no_snapshot(self):
        result = run_experiment("fmm", "thrifty", threads=4, seed=1)
        assert result.telemetry is None

    def test_disabled_tracer_sees_zero_events(self):
        tracer = Tracer(enabled=False)
        result = run_experiment(
            "fmm", "thrifty", threads=4, seed=1, telemetry=tracer
        )
        assert tracer.events == []
        assert len(tracer.metrics) == 0
        assert result.telemetry.events == ()
        assert result.telemetry.metrics == {
            "counters": {}, "gauges": {}, "histograms": {},
        }

    def test_traced_result_matches_untraced(self, traced_result):
        plain = run_experiment("fmm", "thrifty", threads=THREADS, seed=1)
        assert plain.execution_time_ns == traced_result.execution_time_ns
        assert plain.energy_breakdown() == traced_result.energy_breakdown()
        assert plain.thrifty_stats == traced_result.thrifty_stats


class TestInstrumentation:
    def test_expected_event_mix(self, traced_result):
        events = traced_result.telemetry.events
        kinds = {event.kind for event in events}
        assert {
            "barrier.check_in", "barrier.release", "barrier.depart",
            "sleep.enter", "sleep.exit", "sleep.wake", "predictor.hit",
            "predictor.train",
        } <= kinds

    def test_metrics_agree_with_event_stream(self, traced_result):
        snapshot = traced_result.telemetry
        counters = snapshot.metrics["counters"]
        by_kind = {}
        for event in snapshot.events:
            by_kind[event.kind] = by_kind.get(event.kind, 0) + 1
        assert counters["barrier.check_ins"] == by_kind["barrier.check_in"]
        assert counters["barrier.releases"] == by_kind["barrier.release"]
        assert counters["barrier.departs"] == by_kind["barrier.depart"]
        assert counters["sleep.entries"] == by_kind["sleep.enter"]
        assert counters["wake.total"] == by_kind["sleep.wake"]
        assert counters["predictor.hits"] == by_kind["predictor.hit"]

    def test_barrier_accounting_is_complete(self, traced_result):
        counters = traced_result.telemetry.metrics["counters"]
        # Every check-in eventually departs; one release and one last
        # arrival per dynamic instance.
        assert counters["barrier.check_ins"] == counters["barrier.departs"]
        assert counters["barrier.releases"] == counters["barrier.last_arrivals"]
        assert counters["barrier.check_ins"] == (
            THREADS * counters["barrier.releases"]
        )

    def test_sleep_spans_pair_up(self, traced_result):
        events = traced_result.telemetry.events
        enters = [e for e in events if isinstance(e, SleepEnter)]
        exits = [e for e in events if isinstance(e, SleepExit)]
        assert enters and len(enters) == len(exits)
        for exit_event in exits:
            assert exit_event.ts >= exit_event.entered_ts
            assert exit_event.resident_ns >= 0

    def test_wake_source_mix_matches_thrifty_stats(self, traced_result):
        counters = traced_result.telemetry.metrics["counters"]
        stats = traced_result.thrifty_stats
        assert counters.get("wake.source[timer]", 0) == stats["timer_wakes"]
        assert counters.get("wake.source[invalidation]", 0) == (
            stats["invalidation_wakes"]
        )

    def test_wake_events_cover_every_sleep(self, traced_result):
        events = traced_result.telemetry.events
        wakes = [e for e in events if isinstance(e, WakeUp)]
        exits = [e for e in events if isinstance(e, SleepExit)]
        assert len(wakes) == len(exits)
        assert {w.source for w in wakes} <= {
            "timer", "invalidation", "aborted",
        }

    def test_predictor_training_feeds_error_histogram(self, traced_result):
        snapshot = traced_result.telemetry
        trains = [
            e for e in snapshot.events if isinstance(e, PredictorTrain)
        ]
        warm = [e for e in trains if e.predicted_ns is not None]
        histogram = snapshot.metrics["histograms"]["predictor.error_ns"]
        assert histogram["count"] == len(warm)

    def test_depart_spans_are_well_formed(self, traced_result):
        for event in traced_result.telemetry.events:
            if isinstance(event, BarrierDepart):
                assert event.ts >= event.arrived_ts
                assert event.stall_ns >= 0

    def test_run_metrics_harvested(self, traced_result):
        snapshot = traced_result.telemetry
        counters = snapshot.metrics["counters"]
        assert counters["sim.callbacks_executed"] > 0
        assert snapshot.metrics["gauges"]["sim.execution_time_ns"] > 0
        assert counters["predictor.table.predictions"] == (
            counters["predictor.hits"]
        )

    def test_derived_config_traces_its_baseline(self):
        result = run_experiment(
            "fmm", "ideal", threads=4, seed=1, telemetry=True
        )
        events = result.telemetry.events
        assert events  # the Baseline simulation was traced
        # Baseline never sleeps: barrier events only.
        assert not any(isinstance(e, SleepEnter) for e in events)
        assert any(isinstance(e, BarrierRelease) for e in events)


class TestSimulatorTraceHook:
    def _populate(self, simulator, seen_fn):
        ran = []
        simulator.schedule(10, seen_fn, "a")
        cancelled = simulator.schedule(20, seen_fn, "b")
        cancelled.cancel()
        simulator.schedule(30, seen_fn, "c")
        return ran

    def test_legacy_hook_unaffected_by_cancels(self):
        calls = []

        def hook(now, fn, args):
            calls.append((now, args))

        simulator = Simulator(trace=hook)
        self._populate(simulator, lambda tag: None)
        simulator.run()
        assert [args for _, args in calls] == [("a",), ("c",)]

    def test_cancel_aware_hook_sees_skips(self):
        calls = []

        def hook(now, fn, args, cancelled=False):
            calls.append((now, args[0], cancelled))

        simulator = Simulator(trace=hook)
        self._populate(simulator, lambda tag: None)
        simulator.run()
        assert calls == [
            (10, "a", False), (20, "b", True), (30, "c", False),
        ]

    def test_var_keyword_hook_sees_skips(self):
        calls = []

        def hook(now, fn, args, **kwargs):
            calls.append(kwargs.get("cancelled", False))

        simulator = Simulator(trace=hook)
        self._populate(simulator, lambda tag: None)
        simulator.run()
        assert calls == [False, True, False]

    def test_clock_not_advanced_for_cancelled_skip(self):
        skips = []

        def hook(now, fn, args, cancelled=False):
            if cancelled:
                skips.append(now)

        simulator = Simulator(trace=hook)
        handle = simulator.schedule(50, lambda: None)
        handle.cancel()
        simulator.run()
        assert skips == [50]  # reported at the handle's time...
        assert simulator.now == 0  # ...but the clock does not advance

    def test_counters(self):
        simulator = Simulator()
        simulator.schedule(10, lambda: None)
        cancelled = simulator.schedule(20, lambda: None)
        cancelled.cancel()
        simulator.schedule(30, lambda: None)
        simulator.run()
        assert simulator.executed == 2
        assert simulator.skipped_cancelled == 1

    def test_step_also_reports_skips(self):
        calls = []

        def hook(now, fn, args, cancelled=False):
            calls.append(cancelled)

        simulator = Simulator(trace=hook)
        handle = simulator.schedule(10, lambda: None)
        handle.cancel()
        simulator.schedule(20, lambda: None)
        assert simulator.step() is True  # skips the cancelled head first
        assert calls == [True, False]
        assert simulator.skipped_cancelled == 1
