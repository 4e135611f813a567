"""The collector peer: fold per-peer telemetry deltas into a fleet view.

A :class:`CollectorPeer` is the infrastructure node a production RLN fleet
would run its observability pipeline on: it owns the ``telemetry``
protocol channel on the simulated network, decodes
:class:`~repro.telemetry.otlp.ExportRequest` pushes from every peer's
:class:`~repro.telemetry.exporter.TelemetryExporter`, and folds the
delta batches into **per-peer cumulative state** keyed by the batch's
resource attributes.  Folding is deliberately mechanical:

* counters add their integer deltas (exact),
* gauges replace (last-value temporality),
* histograms add their sparse bucket/count deltas and replace the
  cumulative ``sum``/``min``/``max`` absolutes,

so a peer whose every batch arrived is reconstructed *exactly*, and
:meth:`fleet_snapshot` — PR 6's proven additive
:meth:`~repro.telemetry.export.TelemetrySnapshot.merge` over the per-peer
states — equals the offline merge of per-peer snapshots field for field
(the E17 assertion).  Retransmissions are dedup'd by the per-peer
``seq`` (acked but not re-folded), and drop-oldest losses upstream show
up as sequence gaps the collector counts instead of silently absorbing.

The collector answers fleet questions the process-local registries
cannot: :meth:`render_prometheus` re-renders the whole deployment's
metrics as one text exposition, and :meth:`waterfall` rebuilds the
per-stage trace waterfall (p50/p99 bucket estimates) network-wide.

There is one span model.  The aggregate waterfall comes from the
``trace_stage_seconds`` histograms every peer always exports; per-trace
detail arrives only as head-sampled
:class:`~repro.telemetry.disttrace.SpanRecord` entries, which the
:attr:`~CollectorPeer.assembler` stitches into propagation trees and
which also supply the waterfall's per-stage exemplars.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.net.simulator import Simulator
from repro.net.transport import Network
from repro.telemetry import tracing
from repro.telemetry.alerts import AlertRule, RuleEngine, SLO
from repro.telemetry.disttrace import TraceAssembler
from repro.telemetry.export import TelemetrySnapshot, render_prometheus
from repro.telemetry.health import HealthMonitor
from repro.telemetry.registry import MetricsRegistry, counted
from repro.telemetry.otlp import (
    CounterDelta,
    ExportAck,
    ExportRequest,
    GaugeValue,
    HistogramDelta,
    MetricDelta,
    TELEMETRY_PROTOCOL,
    TELEMETRY_REPLY_PROTOCOL,
)


@dataclass(frozen=True)
class CollectorOptions:
    """Fleet-telemetry wiring knobs for :meth:`RLNDeployment.create`."""

    #: Export interval every peer's exporter ticks on (simulated seconds).
    interval: float = 1.0
    #: Outbound batch queue bound per exporter (drop-oldest beyond).
    queue_limit: int = 16
    #: Per-attempt push timeout / failover rounds (dispatcher knobs).
    timeout: float = 0.5
    rounds: int = 2
    #: Stand up a second collector the exporters fail over to.
    backup: bool = False
    #: Distributed-tracing head-sampling probability.  0.0 keeps the
    #: wire span-free and relay behaviour bit-identical; 1.0 traces
    #: every publish into a collector-assembled propagation tree.
    trace_sample: float = 0.0
    #: Span bound per exported batch (drop beyond, cursor advances).
    max_spans_per_batch: int = 64
    #: Alert rules / SLO burn-rate rules the collector evaluates on the
    #: simulated clock (PR 10).  Both default empty: no rule engine is
    #: constructed, no evaluation ticker is scheduled, and the seed
    #: behaviour stays bit-identical.
    rules: "tuple[AlertRule, ...]" = ()
    slos: "tuple[SLO, ...]" = ()
    #: Shortcut: also install the built-in RLN pack
    #: (:func:`~repro.telemetry.alerts.default_rule_pack`) scaled to
    #: ``evaluation_interval``, on top of any explicit rules/slos.
    alerting: bool = False
    #: Simulated seconds between rule-engine evaluation passes.
    evaluation_interval: float = 0.5


@dataclass
class CollectorStats:
    """Collector-side accounting."""

    batches: int = counted("collector_batches_total")
    metrics_applied: int = 0
    #: Head-sampled spans folded into the assembler.
    spans: int = 0
    #: Retransmissions (seq already folded) — acked, not re-applied.
    duplicates: int = counted("collector_duplicates_total")
    #: Sequence gaps observed (exporter drop-oldest upstream).
    gaps: int = counted("collector_gaps_total")
    lost_batches: int = counted("collector_lost_batches_total")
    acks_sent: int = counted("collector_acks_sent_total")
    malformed: int = counted("collector_malformed_total")
    #: Per-peer cumulative drops the batch headers self-reported.
    reported_drops: dict[str, int] = counted(
        "collector_reported_drops_total", label="peer"
    )


def fold_delta(state: dict[str, dict], delta: MetricDelta) -> None:
    """Apply one wire delta to a peer's cumulative collected-shape state."""
    entry = state.get(delta.key)
    if isinstance(delta, CounterDelta):
        if entry is None:
            entry = state[delta.key] = {
                "name": delta.name,
                "kind": "counter",
                "labels": dict(delta.labels),
                "value": 0,
            }
        entry["value"] += delta.delta
    elif isinstance(delta, GaugeValue):
        if entry is None:
            entry = state[delta.key] = {
                "name": delta.name,
                "kind": "gauge",
                "labels": dict(delta.labels),
            }
        entry["value"] = delta.value
    else:
        assert isinstance(delta, HistogramDelta)
        bounds = list(delta.bounds)
        if entry is None:
            entry = state[delta.key] = {
                "name": delta.name,
                "kind": "histogram",
                "labels": dict(delta.labels),
                "count": 0,
                "le": bounds,
                "buckets": [0] * (len(bounds) + 1),
            }
        entry["count"] += delta.count_delta
        for index, bucket_delta in delta.bucket_deltas:
            entry["buckets"][index] += bucket_delta
        # Cumulative absolutes: replace, never accumulate — exact
        # regardless of float rounding or missed windows.
        entry["sum"] = delta.sum_total
        entry["min"] = delta.min_total
        entry["max"] = delta.max_total


class CollectorPeer:
    """One collector node: fold pushes, ack, aggregate, re-render."""

    def __init__(
        self,
        peer_id: str,
        network: Network,
        simulator: Simulator,
        *,
        rules: Sequence[AlertRule] = (),
        slos: Sequence[SLO] = (),
        evaluation_interval: float = 0.5,
        export_interval: float = 1.0,
    ) -> None:
        self.peer_id = peer_id
        self.network = network
        self.simulator = simulator
        self.stats = CollectorStats()
        #: The collector's own bookkeeping, kept apart from every peer's
        #: state so it never reaches :meth:`fleet_snapshot`.
        self._own = MetricsRegistry()
        self._own.expose(self.stats, collector=peer_id)
        self._states: dict[str, dict[str, dict]] = {}
        self._resources: dict[str, dict[str, str]] = {}
        self._last_seq: dict[str, int] = {}
        #: Memoized fleet merge; invalidated by every fold (satellite of
        #: PR 10 — ``waterfall``/``render_prometheus`` used to re-merge
        #: every peer's state on every call).
        self._fleet_cache: TelemetrySnapshot | None = None
        #: Liveness classification from fold metadata — always on (it is
        #: passive bookkeeping with zero wire or scheduling cost).
        self.health = HealthMonitor(interval=export_interval)
        #: The rule engine + its evaluation ticker exist only when rules
        #: were configured: a rule-less collector schedules nothing and
        #: stays event-for-event identical to the PR 7 collector.
        self.engine: RuleEngine | None = None
        self._stop_evaluation: Callable[[], None] | None = None
        if rules or slos:
            self.engine = RuleEngine(rules, slos)
            self.evaluation_interval = evaluation_interval
            self._stop_evaluation = simulator.every(
                evaluation_interval, self._evaluate
            )
        #: Propagation-tree assembly from exported spans.
        self.assembler = TraceAssembler()
        network.register(peer_id, self._on_export, protocol=TELEMETRY_PROTOCOL)

    # -- inbound ---------------------------------------------------------------

    def _on_export(self, sender: str, request: Any) -> None:
        if not isinstance(request, ExportRequest):
            self.stats.malformed += 1
            return
        batch = request.batch
        last = self._last_seq.get(batch.peer, 0)
        if batch.seq <= last:
            # A retransmission of something already folded (the ack was
            # lost or late): acknowledge again, never double-count.
            self.stats.duplicates += 1
        else:
            lost = batch.seq - last - 1
            if lost > 0:
                self.stats.gaps += 1
                self.stats.lost_batches += lost
            self._fold(batch)
            self._last_seq[batch.peer] = batch.seq
            self.health.observe(
                batch.peer,
                self.simulator.now,
                lost_batches=lost,
                reported_drops=batch.dropped_batches,
            )
            if self.engine is not None:
                # One ring point per windowed series at every fold; points
                # at the same simulated instant coalesce, so the sampled
                # series is independent of same-time fold order.
                self.engine.sample(self.simulator.now, self._alert_states())
        self.stats.acks_sent += 1
        self.network.send(
            self.peer_id,
            sender,
            ExportAck(request_id=request.request_id, seq=batch.seq),
            protocol=TELEMETRY_REPLY_PROTOCOL,
            require_edge=False,  # direct dial back, not a mesh link
        )

    def _fold(self, batch) -> None:
        self._fleet_cache = None
        self.stats.batches += 1
        self._resources[batch.peer] = {
            "peer": batch.peer,
            "role": batch.role,
            "shard": str(batch.shard),
        }
        self.stats.reported_drops[batch.peer] = batch.dropped_batches
        state = self._states.setdefault(batch.peer, {})
        for delta in batch.metrics:
            fold_delta(state, delta)
        self.stats.metrics_applied += len(batch.metrics)
        for span in batch.spans:
            self.assembler.add(span)
        self.stats.spans += len(batch.spans)

    # -- fleet views -----------------------------------------------------------

    def peers(self) -> list[str]:
        return sorted(self._states)

    def resources(self) -> dict[str, dict[str, str]]:
        return {peer: dict(attrs) for peer, attrs in self._resources.items()}

    def peer_snapshot(self, peer: str) -> TelemetrySnapshot:
        """One peer's reconstructed cumulative snapshot."""
        return TelemetrySnapshot.from_collected(self._states.get(peer, {}))

    def fleet_snapshot(self) -> TelemetrySnapshot:
        """Every peer's state, additively merged (PR 6 semantics).

        Memoized: the merge is rebuilt only after a fold changed some
        peer's state, so back-to-back ``waterfall``/``render_prometheus``
        calls between folds share one snapshot.  Collector self-metrics
        are deliberately *not* in here — the E17 exactness contract is
        that this equals the offline merge of per-peer snapshots.
        """
        if self._fleet_cache is None:
            fleet = TelemetrySnapshot({})
            for peer in self.peers():
                fleet = fleet.merge(self.peer_snapshot(peer))
            self._fleet_cache = fleet
        return self._fleet_cache

    def self_metrics(self) -> dict[str, dict]:
        """The collector's own bookkeeping as collected-shape entries.

        This is what makes exporter loss *alertable* rather than merely
        inspectable: the counted ``CollectorStats`` fields as
        ``collector_*_total`` counters labeled with the collector's id
        (plus the exporting peer for self-reported drops), injected into
        the exposition and the rule-engine view — never into
        :meth:`fleet_snapshot`.
        """
        return self._own.collect()

    def render_prometheus(self) -> str:
        """The whole deployment as one Prometheus text exposition.

        The fleet merge plus the collector's :meth:`self_metrics` and —
        when a rule engine is configured — the
        ``ALERTS{alertname,severity,alertstate}`` gauge for every
        pending/firing alert, so alert state is itself scrapeable.
        """
        extra = self.self_metrics()
        if self.engine is not None:
            extra.update(self.engine.alerts_entries())
        exposition = self.fleet_snapshot().merge(
            TelemetrySnapshot.from_collected(extra)
        )
        return render_prometheus(exposition)

    # -- alerting & liveness ---------------------------------------------------

    def _alert_states(self) -> "list[dict[str, dict]]":
        """What rules see: every peer's state plus the self-metrics."""
        states: "list[dict[str, dict]]" = list(self._states.values())
        states.append(self.self_metrics())
        return states

    def _evaluate(self) -> None:
        assert self.engine is not None
        self.engine.evaluate(
            self.simulator.now, self._alert_states(), health=self.health
        )

    def stop_alerting(self) -> None:
        """Cancel the evaluation ticker (lets a drained simulator idle)."""
        if self._stop_evaluation is not None:
            self._stop_evaluation()
            self._stop_evaluation = None

    def firing(self) -> list[str]:
        """Names of currently firing alerts (empty without an engine)."""
        return self.engine.firing() if self.engine is not None else []

    def alert_events(self) -> list[dict]:
        """The bounded alert-transition log as plain dicts."""
        return self.engine.event_log() if self.engine is not None else []

    def health_report(self) -> dict:
        """Fleet liveness now: score, status counts, per-peer rows."""
        return self.health.report(self.simulator.now)

    def waterfall(
        self,
        kind: str = "bundle",
        stages: tuple[str, ...] | None = None,
        *,
        exemplars: int = 0,
    ) -> list[dict]:
        """Fleet-wide per-stage waterfall rows from the merged histograms.

        Quantiles are the snapshot's deterministic bucket estimates — the
        additive representation cannot carry exact order statistics
        across the wire; rows are ``{stage, count, p50, p90, p99, max}``.
        ``exemplars > 0`` attaches up to that many per-stage durations,
        the consecutive-mark deltas of the newest assembled relay spans
        of ``kind`` (empty unless traces were head-sampled).
        """
        if stages is None:
            stages = (
                tracing.BUNDLE_STAGE_ORDER
                if kind == "bundle"
                else tracing.REVOCATION_STAGE_ORDER
            )
        # deque(maxlen=exemplars) keeps only the newest N durations.
        stage_exemplars: dict[str, deque[float]] = {}
        if exemplars > 0:
            for span in self.assembler.relay_spans(kind):
                for (_, prev_t), (stage, t) in itertools.pairwise(span.marks):
                    durations = stage_exemplars.get(stage)
                    if durations is None:
                        durations = stage_exemplars[stage] = deque(maxlen=exemplars)
                    durations.append(t - prev_t)
        fleet = self.fleet_snapshot()
        rows: list[dict] = []
        for stage in stages:
            entry = fleet.histogram("trace_stage_seconds", kind=kind, stage=stage)
            if entry is None or entry["count"] == 0:
                continue
            row = {
                "stage": stage,
                "count": entry["count"],
                "p50": entry["quantiles"]["p50"],
                "p90": entry["quantiles"]["p90"],
                "p99": entry["quantiles"]["p99"],
                "max": entry["max"],
            }
            if exemplars > 0:
                row["exemplars"] = tuple(stage_exemplars.get(stage, ()))
            rows.append(row)
        return rows
