"""Unit tests for cross-peer distributed tracing: the one span model.

The load-bearing guarantees:

* :class:`SpanContext` / :class:`SpanRecord` round-trip the wire exactly
  and reject trailing bytes;
* a pipeline trace *is* its relay-hop span: one :class:`Tracer` per
  peer, one ring, and a trace leaves the peer as exactly one
  :class:`SpanRecord` only when it is head-sampled;
* head sampling is decided once at the root: ``sample=0.0`` mints
  nothing (and costs nothing on the message), downstream peers honour an
  inbound context regardless of their own rate, and the sampling RNG is
  deterministic per peer (never the router's);
* the relay rewrite hook re-stamps contexts with the forwarding peer's
  own span, strips (never misattributes) when the route table lost the
  entry, and leaves untraced messages untouched;
* the exporter drains spans with a per-tracer cursor — ring eviction
  racing the cursor surfaces as ``spans_missed``, bounded batches as
  ``spans_truncated`` — and ``close()`` rescues cursor-stranded spans
  with ``close_flush_*`` accounting (shutdown strands nothing);
* the collector's :class:`TraceAssembler` stitches rooted trees, flags
  incompleteness, dedups retransmissions, and answers fan-out /
  duplicate-delivery / critical-path / quantile questions;
* in a deployment, one honest publish exports one span per validating
  peer plus the publish root and nothing else, and the collector's
  waterfall exemplars are the marks of the assembled relay spans.
"""

import dataclasses
import itertools
import random

import pytest

from repro.core.config import RLNConfig
from repro.core.deployment import RLNDeployment
from repro.errors import ProtocolError
from repro.net.latency import ConstantLatency
from repro.net.simulator import Simulator
from repro.net.topology import full_mesh
from repro.net.transport import Network
from repro.telemetry import CollectorOptions, MetricsRegistry, Telemetry
from repro.telemetry.collector import CollectorPeer
from repro.telemetry.disttrace import (
    NO_PARENT,
    SpanContext,
    SpanRecord,
    TraceAssembler,
)
from repro.telemetry.exporter import TelemetryExporter
from repro.telemetry.tracing import Tracer
from repro.telemetry.otlp import TelemetryBatch
from repro.witness.messages import WitnessRequest


def make_context(**overrides) -> SpanContext:
    values = dict(trace_id=7 << 64, span_id=11, hop=2, origin="peer-000")
    values.update(overrides)
    return SpanContext(**values)


def make_tracer(peer_id: str = "peer-001", **kwargs) -> Tracer:
    return Tracer(peer_id, MetricsRegistry(), **kwargs)


def make_span(
    *, trace_id=1, span_id=2, parent_id=NO_PARENT, seq=0, peer="peer-000",
    kind="publish", hop=0, start=0.0, end=1.0, marks=(),
) -> SpanRecord:
    return SpanRecord(
        trace_id=trace_id, span_id=span_id, parent_id=parent_id, seq=seq,
        peer=peer, origin="peer-000", kind=kind, hop=hop, start=start,
        end=end, marks=tuple(marks),
    )


# -- wire types ---------------------------------------------------------------


def test_span_context_round_trip_and_trailing_reject():
    ctx = make_context()
    data = ctx.to_bytes()
    assert len(data) == ctx.byte_size()
    assert SpanContext.from_bytes(data) == ctx
    with pytest.raises(ProtocolError):
        SpanContext.from_bytes(data + b"\x00")
    with pytest.raises(ProtocolError):
        SpanContext.from_bytes(data[:-1])


def test_span_record_round_trip_with_marks():
    record = make_span(marks=(("prefilter", 0.25), ("verdict", 0.75)))
    assert SpanRecord.from_bytes(record.to_bytes()) == record
    with pytest.raises(ProtocolError):
        SpanRecord.from_bytes(record.to_bytes() + b"!")


def test_witness_request_trace_rides_as_trailing_bytes():
    bare = WitnessRequest(request_id=4, index=9)
    assert len(bare.to_bytes()) == 16 == bare.byte_size()
    assert WitnessRequest.from_bytes(bare.to_bytes()) == bare
    traced = WitnessRequest(request_id=4, index=9, trace=make_context())
    decoded = WitnessRequest.from_bytes(traced.to_bytes())
    assert decoded == traced and decoded.trace == traced.trace
    assert traced.byte_size() == 16 + traced.trace.byte_size()
    # Nothing may trail the context: it is the last field on the wire.
    with pytest.raises(ProtocolError):
        WitnessRequest.from_bytes(traced.to_bytes() + b"\x00")


# -- head sampling ------------------------------------------------------------


def test_sample_zero_mints_nothing_and_one_always_mints():
    sim = Simulator()
    off = make_tracer("peer-000", sample=0.0, clock=lambda: sim.now)
    assert off.begin_publish() is None and off.recent() == ()
    on = make_tracer("peer-000", sample=1.0, clock=lambda: sim.now)
    span = on.begin_publish()
    assert span is not None and span.context.hop == 0
    with pytest.raises(ProtocolError):
        make_tracer("peer-000", sample=1.5)


def test_sampling_rng_is_deterministic_per_peer():
    def draws() -> tuple[bool, ...]:
        tracer = make_tracer("peer-007", sample=0.5)
        return tuple(tracer.begin_publish() is not None for _ in range(20))

    decisions = [draws(), draws()]
    assert decisions[0] == decisions[1]
    assert True in decisions[0] and False in decisions[0]


def test_downstream_child_ignores_local_sample_rate():
    # Head sampling: the root's decision rides the wire; a peer whose own
    # rate is 0.0 still opens child spans for inbound traced messages.
    tracer = make_tracer(sample=0.0)
    trace = tracer.begin("bundle", parent=make_context(hop=0), key=b"m1")
    trace.mark("verdict")
    tracer.finish(trace)
    assert len(tracer.recent()) == 1
    assert tracer.recent()[0].hop == 1


# -- child spans & the route table --------------------------------------------


def test_child_registers_outbound_context_with_own_span_id():
    tracer = make_tracer(sample=0.0)
    parent = make_context(hop=0, span_id=99)
    trace = tracer.begin("bundle", parent=parent, key=b"m1")
    outbound = tracer.outbound_context(b"m1")
    assert outbound is not None
    assert outbound == trace.context
    assert outbound.span_id == trace.span_id != parent.span_id
    assert trace.parent_id == parent.span_id
    assert outbound.hop == 1 and outbound.trace_id == parent.trace_id
    assert tracer.outbound_context(b"other") is None


def test_route_table_is_bounded_drop_oldest():
    tracer = make_tracer(route_capacity=2)
    parent = make_context(hop=0)
    for key in (b"a", b"b", b"c"):
        tracer.begin("bundle", parent=parent, key=key)
    assert tracer.outbound_context(b"a") is None
    assert tracer.outbound_context(b"c") is not None


# -- exporter cursor discipline ------------------------------------------------


def build_fleet(**telemetry_kwargs):
    sim = Simulator()
    graph = full_mesh(2)
    network = Network(
        simulator=sim, graph=graph, latency=ConstantLatency(0.01),
        rng=random.Random(7),
    )
    telemetry = Telemetry(**telemetry_kwargs)
    exporter = TelemetryExporter(
        "peer-000", telemetry, network, sim,
        collectors=["peer-001"], start=False,
    )
    collector = CollectorPeer("peer-001", network, sim)
    return sim, telemetry, exporter, collector


def test_exporter_drains_spans_once_each():
    sim, telemetry, exporter, collector = build_fleet(trace_sample=1.0)
    tracer = telemetry.tracer("peer-000", clock=lambda: sim.now)
    tracer.finish(tracer.begin_publish())
    exporter.export()
    sim.run_until_idle()
    assert exporter.stats.spans_exported == 1
    assert collector.stats.spans == 1
    assert collector.assembler.span_count == 1
    telemetry.registry.counter("events_total").inc()
    exporter.export()
    sim.run_until_idle()
    assert exporter.stats.spans_exported == 1  # not re-exported


def test_span_ring_eviction_racing_cursor_counts_spans_missed():
    # Satellite: a tracer ring smaller than the burst between two ticks
    # loses spans; the cursor sees the seq gap and owns up to it.
    sim, telemetry, exporter, collector = build_fleet(
        trace_sample=1.0, trace_capacity=2
    )
    tracer = telemetry.tracer("peer-000", clock=lambda: sim.now)
    for _ in range(5):
        tracer.finish(tracer.begin_publish())
    exporter.export()
    sim.run_until_idle()
    assert exporter.stats.spans_missed == 3  # seqs 0-2 evicted unseen
    assert exporter.stats.spans_exported == 2
    assert collector.assembler.span_count == 2


def test_trace_ring_eviction_racing_cursor_counts_traces_missed():
    # A relay-hop trace is its span: pipeline traces share the one ring,
    # so their eviction is counted exactly like any other span's.
    sim, telemetry, exporter, collector = build_fleet(trace_capacity=2)
    tracer = telemetry.tracer("peer-000", clock=lambda: sim.now)
    for _ in range(5):
        tracer.finish(tracer.begin("bundle", parent=make_context(hop=0)))
    exporter.export()
    sim.run_until_idle()
    assert exporter.stats.spans_missed == 3
    assert exporter.stats.spans_exported == 2
    assert collector.stats.spans == 2


def test_spans_over_batch_bound_truncate_but_cursor_advances():
    sim, telemetry, exporter, _ = build_fleet(trace_sample=1.0)
    exporter.max_spans_per_batch = 2
    tracer = telemetry.tracer("peer-000", clock=lambda: sim.now)
    for _ in range(5):
        tracer.finish(tracer.begin_publish())
    exporter.export()
    sim.run_until_idle()
    assert exporter.stats.spans_exported == 2
    assert exporter.stats.spans_truncated == 3
    # Truncated spans are skipped, not stalled: nothing re-exports.
    telemetry.registry.counter("events_total").inc()
    exporter.export()
    sim.run_until_idle()
    assert exporter.stats.spans_exported == 2


def test_close_flushes_cursor_stranded_traces_and_spans():
    # A peer shutting down mid-interval must not strand finished spans
    # (a relay-hop trace and a publish root) behind the cursor; close()
    # proves the rescue in close_flush_* and the collector receives them.
    sim, telemetry, exporter, collector = build_fleet(trace_sample=1.0)
    tracer = telemetry.tracer("peer-000", clock=lambda: sim.now)
    exporter.export()  # a normal tick first (baseline cursors)
    sim.run_until_idle()
    tracer.finish(tracer.begin("bundle", parent=make_context(hop=0)))
    tracer.finish(tracer.begin_publish())
    exporter.close()
    sim.run_until_idle()
    assert exporter.stats.close_flush_batches == 1
    assert exporter.stats.close_flush_spans == 2
    assert collector.stats.spans == 2
    # Idempotent: nothing new, nothing rescued twice.
    exporter.close()
    sim.run_until_idle()
    assert exporter.stats.close_flush_batches == 1


# -- batch wire carriage -------------------------------------------------------


def test_batch_spans_field_round_trips_and_is_two_bytes_when_empty():
    spans = (make_span(), make_span(span_id=3, parent_id=2, seq=1, hop=1))
    with_spans = TelemetryBatch(
        peer="p", role="full", shard=-1, seq=1, time=0.0,
        dropped_batches=0, metrics=(), spans=spans,
    )
    decoded = TelemetryBatch.from_bytes(with_spans.to_bytes())
    assert decoded.spans == spans
    without = TelemetryBatch(
        peer="p", role="full", shard=-1, seq=1, time=0.0,
        dropped_batches=0, metrics=(),
    )
    span_bytes = len(with_spans.to_bytes()) - len(without.to_bytes())
    assert span_bytes == sum(s.byte_size() for s in spans)


# -- assembly ------------------------------------------------------------------


def make_tree_spans():
    #        root(p0)
    #        /      \
    #   s2(p1)     s3(p2)
    #     |
    #   s4(p3)   + a witness-fetch leaf under the root
    return [
        make_span(span_id=1, seq=0, peer="peer-000", start=0.0, end=0.1),
        make_span(span_id=2, parent_id=1, seq=0, peer="peer-001",
                  kind="bundle", hop=1, start=0.05, end=0.15),
        make_span(span_id=3, parent_id=1, seq=1, peer="peer-002",
                  kind="bundle", hop=1, start=0.06, end=0.12),
        make_span(span_id=4, parent_id=2, seq=0, peer="peer-003",
                  kind="bundle", hop=2, start=0.10, end=0.30),
        make_span(span_id=5, parent_id=1, seq=1, peer="peer-000",
                  kind="witness-fetch", hop=0, start=0.01, end=0.02),
    ]


def test_assembler_builds_rooted_tree_with_fanout_and_critical_path():
    assembler = TraceAssembler()
    for span in make_tree_spans():
        assembler.add(span)
    tree = assembler.tree(1)
    assert tree is not None and tree.complete
    assert tree.span_count == 5 and tree.hops == 2
    assert len(tree.relay_spans()) == 3  # the witness-fetch leaf excluded
    assert tree.fanout(1) == 2 and tree.max_fanout == 2
    assert tree.duplicate_deliveries == 0
    assert [s.peer for s in tree.critical_path()] == [
        "peer-000", "peer-001", "peer-003",
    ]
    assert tree.end_to_end == pytest.approx(0.30)
    assert dict(tree.per_hop_latencies())[2] == pytest.approx(0.05)
    rendered = tree.render()
    assert "peer-003" in rendered and "witness-fetch" in rendered
    as_json = tree.to_json()
    assert as_json["spans"] == 5 and as_json["max_fanout"] == 2


def test_assembler_dedups_and_flags_missing_parents():
    assembler = TraceAssembler()
    spans = make_tree_spans()
    for span in spans + [spans[0]]:
        assembler.add(span)
    assert assembler.duplicates == 1
    # Drop the intermediate hop: its child's parent is unresolved.
    partial = TraceAssembler()
    for span in spans:
        if span.span_id != 2:
            partial.add(span)
    tree = partial.tree(1)
    assert tree is not None and not tree.complete
    # No root at all: not assemblable yet.
    rootless = TraceAssembler()
    rootless.add(spans[1])
    assert rootless.tree(1) is None


def test_assembler_quantiles_over_relay_spans():
    assembler = TraceAssembler()
    for span in make_tree_spans():
        assembler.add(span)
    q = assembler.quantiles()
    assert q["count"] == 3
    assert q["max"] == pytest.approx(0.30)
    assert 0.0 < q["p50"] <= q["p99"] <= q["max"]


def test_duplicate_delivery_detection():
    assembler = TraceAssembler()
    for span in make_tree_spans():
        assembler.add(span)
    assembler.add(
        make_span(span_id=6, parent_id=3, seq=2, peer="peer-001",
                  kind="bundle", hop=2, start=0.2, end=0.25)
    )
    tree = assembler.tree(1)
    assert tree.duplicate_deliveries == 1  # peer-001 judged it twice


# -- the single span stream through a deployment -------------------------------


def traced_deployment(trace_sample: float) -> RLNDeployment:
    deployment = RLNDeployment.create(
        peer_count=5,
        degree=3,
        seed=12,
        config=RLNConfig(tree_depth=8),
        collector=CollectorOptions(trace_sample=trace_sample),
    )
    deployment.register_all()
    deployment.form_meshes()
    deployment.peers["peer-000"].publish(b"one-span-model")
    deployment.run(5.0)
    deployment.flush_telemetry()
    return deployment


def test_one_span_per_validating_peer_plus_the_publish_root():
    deployment = traced_deployment(1.0)
    collector = deployment.collector
    assert deployment.delivery_count(b"one-span-model") == 5
    # Batches carry metric deltas and spans; there is no second
    # per-trace record type on the wire.
    assert [f.name for f in dataclasses.fields(TelemetryBatch)][-2:] == [
        "metrics", "spans",
    ]
    (tree,) = collector.assembler.trees()
    assert tree.complete and tree.root.kind == "publish"
    assert tree.root.peer == "peer-000"
    relay = tree.relay_spans()
    assert sorted(span.peer for span in relay) == [
        "peer-001", "peer-002", "peer-003", "peer-004",
    ]
    assert all(span.kind == "bundle" for span in relay)
    # Exactly those spans were exported: one per (bundle, validating
    # peer) plus the root, each once.
    shipped = sum(e.stats.spans_exported for e in deployment.exporters.values())
    assert shipped == collector.stats.spans == len(relay) + 1
    assert collector.assembler.span_count == shipped
    assert collector.assembler.duplicates == 0
    # Every validation trace still folded its histograms.
    finished = sum(
        t.registry.counter("traces_finished_total", kind="bundle").value
        for t in deployment.telemetries.values()
    )
    assert finished == len(relay)


def test_waterfall_exemplars_are_assembled_relay_span_marks():
    deployment = traced_deployment(1.0)
    collector = deployment.collector
    k = 2
    expected: dict[str, list[float]] = {}
    spans = collector.assembler.relay_spans("bundle")
    # "Newest" is by verdict time: the assembler lists oldest first.
    assert [span.end for span in spans] == sorted(span.end for span in spans)
    for span in spans:
        for (_, prev_t), (stage, t) in itertools.pairwise(span.marks):
            expected.setdefault(stage, []).append(t - prev_t)
    rows = collector.waterfall("bundle", exemplars=k)
    assert rows
    for row in rows:
        assert row["exemplars"] == tuple(expected[row["stage"]][-k:])
        assert len(row["exemplars"]) == min(k, row["count"])


def test_sample_zero_keeps_the_waterfall_histograms_without_exemplars():
    deployment = traced_deployment(0.0)
    collector = deployment.collector
    rows = collector.waterfall("bundle", exemplars=4)
    assert rows and all(row["count"] > 0 for row in rows)
    assert all(row["exemplars"] == () for row in rows)
    assert collector.assembler.span_count == 0
    assert collector.stats.spans == 0
