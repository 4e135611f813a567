"""Unified telemetry for the RLN-relay reproduction.

One :class:`Telemetry` object per simulation run (or per peer, when a
collector is deployed) bundles the surfaces the subsystems share:

* a :class:`~repro.telemetry.registry.MetricsRegistry` of interned
  Counter/Gauge/Histogram handles (``name{label=value}`` keys); counts
  stay in each subsystem's ``*Stats``, bound once with
  ``registry.expose(stats, peer=…)`` and read at collect time;
* one :class:`~repro.telemetry.tracing.Tracer` per peer — the single
  span model.  It mints the :class:`~repro.telemetry.tracing.TraceContext`
  handles that ride a bundle from relay ingress to verdict (and evidence
  to network-wide exclusion) stamping the *simulated* clock.  Every
  finished bundle and revocation trace folds into the
  ``trace_stage_seconds`` waterfall histograms, which are always
  exported with the metrics.  Per-trace detail leaves a peer only
  through head sampling (``trace_sample``): a sampled trace becomes one
  :class:`SpanRecord` in the tracer's ring;
* a :class:`~repro.telemetry.export.TelemetrySnapshot` exporter (JSON
  artifact + Prometheus text).

Everything is opt-in: every component takes ``telemetry=None`` and falls
back to :data:`NULL_TELEMETRY`, whose registry and tracers are shared
no-op singletons — the disabled path does no formatting, no allocation,
no storage, keeping seed behavior bit-identical (E16's overhead arm).

Typical benchmark wiring::

    telemetry = Telemetry()
    peer = WakuRLNRelayPeer(..., telemetry=telemetry)
    ...
    snap = telemetry.snapshot()
    stage = telemetry.registry.histogram(
        "trace_stage_seconds", kind="bundle", stage=tracing.PAIRING)
    print(stage.p50, stage.p99)   # exact, from retained samples
"""

from __future__ import annotations

from typing import Callable

from repro.telemetry.export import (
    TelemetrySnapshot,
    render_prometheus,
    write_snapshot,
)
from repro.telemetry.registry import (
    DEFAULT_BUCKETS,
    DEFAULT_SAMPLE_CAPACITY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    NULL_REGISTRY,
    NullRegistry,
    metric_key,
)
from repro.telemetry.tracing import (
    NULL_TRACE,
    NULL_TRACER,
    NullTrace,
    NullTracer,
    Span,
    TraceContext,
    Tracer,
)
from repro.telemetry.disttrace import (
    PropagationTree,
    SpanContext,
    SpanRecord,
    TraceAssembler,
)
from repro.telemetry.otlp import (
    TELEMETRY_PROTOCOL,
    TELEMETRY_REPLY_PROTOCOL,
    TelemetryBatch,
)
from repro.telemetry.exporter import TelemetryExporter
from repro.telemetry.alerts import (
    AlertEvent,
    AlertRule,
    RuleEngine,
    SLO,
    default_rule_pack,
)
from repro.telemetry.health import HealthMonitor, PeerLiveness
from repro.telemetry.query import (
    ANY,
    BadFraction,
    Combined,
    FleetQuerier,
    HealthCount,
    HealthScore,
    Instant,
    Quantile,
    Rate,
    SeriesRing,
    select,
)
from repro.telemetry.collector import CollectorOptions, CollectorPeer


class Telemetry:
    """The per-run telemetry hub: one registry, one tracer per peer."""

    enabled = True

    def __init__(
        self, *, trace_capacity: int = 256, trace_sample: float = 0.0
    ) -> None:
        self.registry = MetricsRegistry()
        #: Bound of each tracer's span ring.
        self.trace_capacity = trace_capacity
        #: Head-sampling probability for distributed traces.  0.0
        #: (default) mints no span contexts: zero wire overhead and
        #: bit-identical relay behaviour; the sampling RNG is per-peer
        #: and dedicated, so any rate perturbs nothing outside tracing.
        self.trace_sample = trace_sample
        self._tracers: dict[str, Tracer] = {}

    def tracer(
        self, peer_id: str, *, clock: Callable[[], float] | None = None
    ) -> Tracer:
        """The (cached) tracer for ``peer_id``; a later ``clock`` wins."""
        tracer = self._tracers.get(peer_id)
        if tracer is None:
            tracer = self._tracers[peer_id] = Tracer(
                peer_id,
                self.registry,
                sample=self.trace_sample,
                clock=clock,
                capacity=self.trace_capacity,
            )
        elif clock is not None:
            tracer.clock = clock
        return tracer

    def tracers(self) -> dict[str, Tracer]:
        return dict(self._tracers)

    def snapshot(self) -> TelemetrySnapshot:
        return TelemetrySnapshot.of(self.registry)

    def render_prometheus(self) -> str:
        return render_prometheus(self.snapshot())


class NullTelemetry:
    """The disabled hub: shared no-op registry and tracer, empty snapshot."""

    enabled = False
    registry = NULL_REGISTRY
    trace_sample = 0.0

    def tracer(
        self, peer_id: str, *, clock: Callable[[], float] | None = None
    ) -> NullTracer:
        return NULL_TRACER

    def tracers(self) -> dict[str, Tracer]:
        return {}

    def snapshot(self) -> TelemetrySnapshot:
        return TelemetrySnapshot({})

    def render_prometheus(self) -> str:
        return render_prometheus(TelemetrySnapshot({}))


NULL_TELEMETRY = NullTelemetry()


def resolve(telemetry: "Telemetry | NullTelemetry | None") -> "Telemetry | NullTelemetry":
    """The ``telemetry=None`` seam every constructor funnels through."""
    return NULL_TELEMETRY if telemetry is None else telemetry


__all__ = [
    "ANY",
    "AlertEvent",
    "AlertRule",
    "BadFraction",
    "CollectorOptions",
    "CollectorPeer",
    "Combined",
    "Counter",
    "FleetQuerier",
    "HealthCount",
    "HealthMonitor",
    "HealthScore",
    "Instant",
    "PeerLiveness",
    "Quantile",
    "Rate",
    "RuleEngine",
    "SLO",
    "SeriesRing",
    "default_rule_pack",
    "select",
    "DEFAULT_BUCKETS",
    "DEFAULT_SAMPLE_CAPACITY",
    "PropagationTree",
    "SpanContext",
    "SpanRecord",
    "TraceAssembler",
    "TELEMETRY_PROTOCOL",
    "TELEMETRY_REPLY_PROTOCOL",
    "TelemetryBatch",
    "TelemetryExporter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "NULL_REGISTRY",
    "NULL_TELEMETRY",
    "NULL_TRACE",
    "NULL_TRACER",
    "NullRegistry",
    "NullTelemetry",
    "NullTrace",
    "NullTracer",
    "Span",
    "Telemetry",
    "TelemetrySnapshot",
    "TraceContext",
    "Tracer",
    "metric_key",
    "render_prometheus",
    "resolve",
    "write_snapshot",
]
