"""Unit tests for the telemetry package: registry, tracing, export.

The load-bearing guarantees:

* histogram bucket boundaries follow Prometheus ``le`` semantics (a
  value equal to a bound lands in that bound's bucket) and percentiles
  read from the live object are *exact* (shared linear interpolation
  from :mod:`repro.analysis.reporting`, not bucket estimates);
* the disabled path is an identity: shared no-op singletons, nothing
  stored, nothing formatted;
* traces stamp the injected clock and fold spans into the shared stage
  histograms, skipped stages producing no spans at all;
* snapshots round-trip through JSON, merge additively, and render the
  standard Prometheus text format.
"""

import math
from dataclasses import dataclass

import pytest

from repro.analysis.reporting import percentile as exact_percentile
from repro.telemetry import (
    DEFAULT_BUCKETS,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    NULL_REGISTRY,
    NULL_TELEMETRY,
    NULL_TRACE,
    NULL_TRACER,
    MetricsRegistry,
    SpanContext,
    Telemetry,
    TelemetrySnapshot,
    Tracer,
    metric_key,
    render_prometheus,
    resolve,
)
from repro.telemetry import tracing
from repro.telemetry.registry import counted


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def test_metric_key_sorts_labels():
    assert metric_key("m", {}) == "m"
    assert metric_key("m", {"b": "2", "a": "1"}) == "m{a=1,b=2}"


def test_registry_interns_by_key():
    registry = MetricsRegistry()
    a = registry.counter("events_total", peer="p1")
    b = registry.counter("events_total", peer="p1")
    c = registry.counter("events_total", peer="p2")
    assert a is b and a is not c
    a.inc()
    a.inc(3)
    assert b.value == 4 and c.value == 0


def test_registry_rejects_kind_collisions():
    registry = MetricsRegistry()
    registry.counter("thing")
    with pytest.raises(TypeError):
        registry.gauge("thing")


@dataclass
class DemoStats:
    events: int = counted("demo_events_total")
    won: int = counted("demo_races_total", outcome="won")
    drops: dict[str, int] = counted("demo_drops_total", label="stage")
    uncounted: int = 0


def test_expose_reads_fields_at_collect():
    registry = MetricsRegistry()
    stats = DemoStats()
    registry.expose(stats, peer="p1")
    # Scalar fields appear at binding, dict keys at their first count.
    assert set(registry.collect()) == {
        "demo_events_total{peer=p1}",
        "demo_races_total{outcome=won,peer=p1}",
    }
    stats.events += 3
    stats.drops["verify"] = 2
    collected = registry.collect()
    assert collected["demo_events_total{peer=p1}"]["value"] == 3
    assert collected["demo_drops_total{peer=p1,stage=verify}"] == {
        "name": "demo_drops_total",
        "kind": "counter",
        "labels": {"peer": "p1", "stage": "verify"},
        "value": 2,
    }
    # The handle reads the live field; binding again never double-counts.
    handle = registry.counter("demo_events_total", peer="p1")
    stats.events += 1
    registry.expose(stats, peer="p1")
    assert handle.value == 4
    assert registry.collect()["demo_events_total{peer=p1}"]["value"] == 4


def test_expose_sums_objects_sharing_a_key():
    registry = MetricsRegistry()
    a, b = DemoStats(events=2), DemoStats(events=5)
    registry.expose(a, peer="p")
    registry.expose(b, peer="p")
    assert registry.counter("demo_events_total", peer="p").value == 7


def test_fan_out_key_asked_for_before_its_first_count():
    registry = MetricsRegistry()
    stats = DemoStats()
    registry.expose(stats, peer="p1")
    handle = registry.counter("demo_drops_total", peer="p1", stage="late")
    stats.drops["late"] = 1
    assert handle.value == 1
    assert registry.collect()["demo_drops_total{peer=p1,stage=late}"]["value"] == 1


def test_gauge_set_and_add():
    gauge = MetricsRegistry().gauge("depth")
    gauge.set(7.0)
    gauge.add(-2.0)
    assert gauge.value == 5.0


def test_histogram_bucket_boundaries_le_semantics():
    histogram = MetricsRegistry().histogram("h", buckets=(1.0, 2.0, 4.0))
    # value == bound -> that bound's bucket (Prometheus le semantics);
    # above the last bound -> the +Inf overflow bucket.
    for value, bucket in ((0.5, 0), (1.0, 0), (1.5, 1), (2.0, 1), (4.0, 2), (9.0, 3)):
        before = histogram.bucket_counts[bucket]
        histogram.observe(value)
        assert histogram.bucket_counts[bucket] == before + 1
    assert histogram.count == 6
    assert sum(histogram.bucket_counts) == 6


def test_default_buckets_are_log_spaced_and_fixed():
    assert len(DEFAULT_BUCKETS) == 33
    assert DEFAULT_BUCKETS[0] == pytest.approx(1e-6)
    assert DEFAULT_BUCKETS[-1] == pytest.approx(100.0)
    ratios = [b / a for a, b in zip(DEFAULT_BUCKETS, DEFAULT_BUCKETS[1:])]
    assert all(r == pytest.approx(10 ** 0.25, rel=1e-6) for r in ratios)


def test_histogram_percentiles_are_exact():
    histogram = MetricsRegistry().histogram("h")
    samples = [0.001 * i for i in (9, 1, 7, 3, 5, 2, 8, 4, 6, 10)]
    for s in samples:
        histogram.observe(s)
    for q in (0.0, 0.25, 0.50, 0.90, 0.99, 1.0):
        assert histogram.percentile(q) == exact_percentile(samples, q)
    assert histogram.p50 == exact_percentile(samples, 0.5)
    assert histogram.maximum == max(samples)
    assert histogram.minimum == min(samples)
    assert histogram.mean == pytest.approx(sum(samples) / len(samples))
    # Percentiles stay exact across interleaved observes (lazy re-sort).
    histogram.observe(0.0001)
    assert histogram.p50 == exact_percentile(samples + [0.0001], 0.5)


def test_empty_histogram_reads_zero():
    histogram = MetricsRegistry().histogram("h")
    assert histogram.p50 == 0.0 and histogram.p99 == 0.0
    assert histogram.mean == 0.0
    assert math.isinf(histogram.minimum)


# ---------------------------------------------------------------------------
# the disabled path
# ---------------------------------------------------------------------------


def test_null_registry_hands_out_shared_singletons():
    assert NULL_REGISTRY.counter("a", x="1") is NULL_COUNTER
    assert NULL_REGISTRY.counter("b") is NULL_COUNTER
    assert NULL_REGISTRY.gauge("c") is NULL_GAUGE
    assert NULL_REGISTRY.histogram("d") is NULL_HISTOGRAM
    NULL_COUNTER.inc(5)
    NULL_GAUGE.set(3.0)
    NULL_HISTOGRAM.observe(1.0)
    assert NULL_COUNTER.value == 0
    assert NULL_GAUGE.value == 0.0
    assert NULL_HISTOGRAM.count == 0 and NULL_HISTOGRAM.p99 == 0.0
    NULL_REGISTRY.expose(DemoStats(events=1), peer="p1")
    assert NULL_REGISTRY.collect() == {}
    assert not NULL_REGISTRY.enabled


def test_resolve_defaults_to_the_null_hub():
    assert resolve(None) is NULL_TELEMETRY
    telemetry = Telemetry()
    assert resolve(telemetry) is telemetry
    assert NULL_TELEMETRY.tracer("anyone") is NULL_TRACER
    assert NULL_TELEMETRY.snapshot().data == {}
    assert NULL_TRACER.begin() is NULL_TRACE
    assert NULL_TRACER.begin_publish() is None and NULL_TRACER.recent() == ()
    NULL_TRACE.mark("anything")
    assert NULL_TRACE.spans() == ()


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


#: An inbound relay-hop context: traces begun under it are exported spans.
INBOUND = SpanContext(trace_id=1, span_id=2, hop=0, origin="p0")


class ManualClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_trace_spans_are_consecutive_mark_deltas():
    clock = ManualClock()
    registry = MetricsRegistry()
    tracer = Tracer("p1", registry, clock=clock)
    trace = tracer.begin(parent=INBOUND)
    clock.now = 0.010
    trace.mark(tracing.PREFILTER)
    # cheap-checks / verdict-cache skipped entirely: no zero-length spans.
    clock.now = 0.030
    trace.mark(tracing.PAIRING)
    clock.now = 0.031
    trace.mark(tracing.RESOLVE)
    tracer.finish(trace)

    spans = {span.stage: span.duration for span in trace.spans()}
    assert spans == {
        tracing.PREFILTER: pytest.approx(0.010),
        tracing.PAIRING: pytest.approx(0.020),
        tracing.RESOLVE: pytest.approx(0.001),
    }
    assert trace.total == pytest.approx(0.031)
    stage = registry.histogram(
        "trace_stage_seconds", kind="bundle", stage=tracing.PAIRING
    )
    assert stage.count == 1 and stage.p50 == pytest.approx(0.020)
    assert registry.histogram("trace_total_seconds", kind="bundle").count == 1
    assert registry.counter("traces_finished_total", kind="bundle").value == 1
    # The trace is its relay-hop span: archived once, marks intact.
    (record,) = tracer.recent()
    assert record.span_id == trace.span_id and record.parent_id == INBOUND.span_id
    assert record.marks == tuple(trace.marks)
    assert (record.start, record.end) == (0.0, 0.031)
    # An unsampled trace folds the same histograms but is never archived.
    tracer.finish(tracer.begin())
    assert registry.counter("traces_finished_total", kind="bundle").value == 2
    assert len(tracer.recent()) == 1


def test_tracer_ring_is_bounded():
    tracer = Tracer("p1", MetricsRegistry(), clock=lambda: 0.0, capacity=4)
    traces = [tracer.begin(parent=INBOUND) for _ in range(6)]
    for trace in traces:
        tracer.finish(trace)
    assert [r.span_id for r in tracer.recent()] == [t.span_id for t in traces[2:]]


def test_telemetry_caches_tracers_per_peer():
    telemetry = Telemetry()
    clock = ManualClock()
    first = telemetry.tracer("p1")
    again = telemetry.tracer("p1", clock=clock)
    assert first is again
    assert again.clock is clock  # a later caller can supply the clock
    assert telemetry.tracer("p2") is not first


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def _sample_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("events_total", peer="p1").inc(3)
    registry.gauge("depth", peer="p1").set(2.0)
    histogram = registry.histogram("latency_seconds", peer="p1", buckets=(0.1, 1.0))
    for value in (0.05, 0.5, 0.7, 2.0):
        histogram.observe(value)
    return registry


def test_snapshot_json_roundtrip():
    snapshot = TelemetrySnapshot.of(_sample_registry())
    assert TelemetrySnapshot.from_json(snapshot.to_json()) == snapshot
    assert snapshot.value("events_total", peer="p1") == 3
    assert snapshot.value("missing_total") == 0.0
    entry = snapshot.histogram("latency_seconds", peer="p1")
    assert entry["count"] == 4 and entry["buckets"] == [1, 2, 1]
    assert set(entry["quantiles"]) == {"p50", "p90", "p99"}


def test_snapshot_merge_rejects_mismatches():
    a = TelemetrySnapshot.of(_sample_registry())
    other = MetricsRegistry()
    other.gauge("events_total", peer="p1")
    with pytest.raises(ValueError):
        a.merge(TelemetrySnapshot.of(other))
    rebucketed = MetricsRegistry()
    rebucketed.histogram("latency_seconds", peer="p1", buckets=(0.5,)).observe(0.2)
    with pytest.raises(ValueError):
        a.merge(TelemetrySnapshot.of(rebucketed))


def test_render_prometheus_text_format():
    text = render_prometheus(TelemetrySnapshot.of(_sample_registry()))
    lines = text.splitlines()
    assert "# TYPE events_total counter" in lines
    assert "# TYPE latency_seconds histogram" in lines
    assert 'events_total{peer="p1"} 3' in lines
    # Cumulative buckets, +Inf closing bucket, _sum and _count.
    assert 'latency_seconds_bucket{peer="p1",le="0.1"} 1' in lines
    assert 'latency_seconds_bucket{peer="p1",le="1.0"} 3' in lines
    assert 'latency_seconds_bucket{peer="p1",le="+Inf"} 4' in lines
    assert 'latency_seconds_count{peer="p1"} 4' in lines
    assert any(line.startswith('latency_seconds_sum{peer="p1"}') for line in lines)


def test_render_prometheus_escapes_label_values():
    registry = MetricsRegistry()
    registry.counter("events_total", peer='a\\b"c\nd').inc(2)
    text = render_prometheus(TelemetrySnapshot.of(registry))
    assert 'events_total{peer="a\\\\b\\"c\\nd"} 2' in text.splitlines()
    # No raw newline or unescaped quote survives inside the braces.
    (sample_line,) = [l for l in text.splitlines() if l.startswith("events_total{")]
    assert "\n" not in sample_line
    assert sample_line.count('"') == sample_line.count('\\"') + 2


def test_histogram_reservoir_bounds_retained_samples():
    registry = MetricsRegistry()
    histogram = registry.histogram("wait_seconds", sample_capacity=8)
    for value in range(100):
        histogram.observe(float(value))
    assert len(histogram._samples) == 8
    assert histogram.count == 100
    assert sum(histogram.bucket_counts) == 100  # bucket counts stay exact
    assert histogram.minimum == 0.0 and histogram.maximum == 99.0
    assert all(0.0 <= sample <= 99.0 for sample in histogram._samples)
    with pytest.raises(ValueError):
        registry.histogram("bad_capacity", sample_capacity=0)
