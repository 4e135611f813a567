"""The push half of fleet telemetry: snapshot-diff, batch, send, never block.

A :class:`TelemetryExporter` runs beside one peer's
:class:`~repro.telemetry.Telemetry` hub and periodically turns the live
registry into :class:`~repro.telemetry.otlp.TelemetryBatch` deltas pushed
to a collector peer.  Three properties matter more than anything it
reports:

* **It never backpressures the relay hot path.**  The exporter's only
  touch on the instrumented subsystems is the registry read it shares
  with the pull path; its outbound queue is bounded and sheds
  *oldest-first* when the collector is slow or dead, counting the loss in
  a self-reported ``telemetry_dropped_batches_total`` counter that rides
  the next batch like any other metric.
* **Delta temporality with exact reconstruction.**  Each tick diffs one
  atomic ``collect()`` pass against the previous one
  (:func:`~repro.telemetry.otlp.compute_deltas`); the additive fields
  travel as integer deltas and the non-additive ones as absolutes, so a
  collector that receives every batch holds the peer's snapshot
  *exactly* — and one that missed a dropped batch is wrong only by that
  window's additive increments, never permanently skewed on gauges or
  histogram ``sum``/``min``/``max``.
* **Reliability is the dispatcher's problem.**  Batches go out strictly
  in ``seq`` order, one in flight, through the shared
  :class:`~repro.net.request.RequestDispatcher` — per-attempt timeout,
  bounded rounds, failover down the collector list (primary then backup).
  A batch that exhausts every collector stays queued for the next tick;
  sustained outage turns into drop-oldest, not memory growth.

There is one span model.  The aggregate stage waterfall of every trace
is always exported, as ``trace_stage_seconds`` histogram deltas on the
metric path.  Per-trace detail leaves the peer only through head
sampling: each tick drains the head-sampled
:class:`~repro.telemetry.disttrace.SpanRecord` entries past the cursor
of every tracer's single ring, bounded per batch.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Sequence

from repro.errors import ProtocolError
from repro.net.request import RequestDispatcher, RequestFailure
from repro.net.simulator import Simulator
from repro.net.transport import Network
from repro.telemetry.disttrace import SpanRecord
from repro.telemetry.otlp import (
    ExportAck,
    ExportRequest,
    TELEMETRY_PROTOCOL,
    TELEMETRY_REPLY_PROTOCOL,
    TelemetryBatch,
    compute_deltas,
)
from repro.telemetry.registry import counted

#: Default export interval (simulated seconds).
DEFAULT_INTERVAL = 1.0

#: Default outbound-queue bound (batches, drop-oldest beyond).
DEFAULT_QUEUE_LIMIT = 16


@dataclass
class ExporterStats:
    """Exporter-side accounting (dispatcher reliability lives in
    ``dispatcher.stats``)."""

    ticks: int = 0
    batches_built: int = 0
    #: Empty liveness batches (``heartbeat=True`` ticks with no deltas).
    heartbeats: int = 0
    batches_sent: int = 0
    #: Drop-oldest sheds; self-reported as
    #: ``telemetry_dropped_batches_total`` in the peer's own registry, so
    #: the loss travels (and merges fleet-wide) like any other metric.
    batches_dropped: int = counted("telemetry_dropped_batches_total")
    #: Requests that exhausted every collector (batch requeued).
    push_failures: int = 0
    metrics_exported: int = 0
    spans_exported: int = 0
    #: Spans over ``max_spans_per_batch`` in one tick (cursor still
    #: advances — bounded batches, no silent stall).
    spans_truncated: int = 0
    #: Spans evicted from a tracer ring before a tick saw them.
    spans_missed: int = 0
    #: ``close()``'s final drain: batches built at close time and the
    #: spans they rescued from behind the per-tracer cursors — proof the
    #: last partial tick strands nothing.
    close_flush_batches: int = 0
    close_flush_spans: int = 0


class TelemetryExporter:
    """One peer's periodic delta push to the collector fleet."""

    def __init__(
        self,
        peer_id: str,
        telemetry,
        network: Network,
        simulator: Simulator,
        *,
        collectors: Sequence[str],
        role: str = "full",
        shard: int = -1,
        interval: float = DEFAULT_INTERVAL,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        timeout: float = 0.5,
        rounds: int = 2,
        max_spans_per_batch: int = 64,
        heartbeat: bool = False,
        start: bool = True,
    ) -> None:
        if not telemetry.enabled:
            raise ProtocolError(
                "TelemetryExporter needs an enabled Telemetry hub; a "
                "disabled peer has nothing to export"
            )
        if not collectors:
            raise ProtocolError("need at least one collector")
        if interval <= 0:
            raise ProtocolError("export interval must be positive")
        if queue_limit < 1:
            raise ProtocolError("queue_limit must be >= 1")
        self.peer_id = peer_id
        self.telemetry = telemetry
        self.simulator = simulator
        self.collectors = list(collectors)
        self.role = role
        self.shard = shard
        self.interval = interval
        self.queue_limit = queue_limit
        self.max_spans_per_batch = max_spans_per_batch
        #: With ``heartbeat=True`` an idle tick still sends an *empty*
        #: batch (seq advancing, no deltas), so the collector's liveness
        #: classifier (PR 10) can tell "nothing changed" from "peer is
        #: gone" — the telemetry push doubles as the heartbeat, no
        #: separate protocol.  Default off: idle peers stay wire-silent
        #: and PR 7's byte accounting is unchanged.
        self.heartbeat = heartbeat
        self.stats = ExporterStats()
        self.dispatcher = RequestDispatcher(
            peer_id,
            network,
            simulator,
            protocol=TELEMETRY_PROTOCOL,
            reply_protocol=TELEMETRY_REPLY_PROTOCOL,
            timeout=timeout,
            rounds=rounds,
            # Collectors are infrastructure, dialed directly: no mesh edge,
            # so GossipSub never sees them and relay behaviour is untouched.
            require_edge=False,
        )
        telemetry.registry.expose(self.stats, peer=peer_id)
        self._last: dict[str, dict] = {}
        self._span_cursor: dict[str, int] = {}
        self._next_seq = 1
        self._queue: deque[TelemetryBatch] = deque()
        self._inflight = False
        self._stop = simulator.every(interval, self.export) if start else None

    # -- the periodic tick -----------------------------------------------------

    def export(self) -> TelemetryBatch | None:
        """One tick: diff the registry, enqueue the delta, pump the queue."""
        self.stats.ticks += 1
        batch = self._build_batch(force=self.heartbeat)
        if batch is not None:
            self._enqueue(batch)
        self._pump()
        return batch

    def flush(self) -> None:
        """Build and enqueue whatever changed right now (final drain aid).

        The caller still runs the simulator afterwards so the in-flight
        request can complete; :attr:`pending` reports whether anything is
        still unacked.
        """
        batch = self._build_batch()
        if batch is not None:
            self._enqueue(batch)
        self._pump()

    @property
    def pending(self) -> bool:
        """Whether any batch is queued or awaiting its ack."""
        return self._inflight or bool(self._queue)

    def close(self) -> None:
        """Stop the ticker and drain what the last tick never saw.

        A peer shutting down mid-interval would otherwise strand finished
        spans behind the per-tracer cursors forever; the final
        build rescues them into one last (queued, droppable) batch, and
        ``stats.close_flush_*`` proves exactly what it rescued.
        """
        if self._stop is not None:
            self._stop()
            self._stop = None
        batch = self._build_batch()
        if batch is not None:
            self.stats.close_flush_batches += 1
            self.stats.close_flush_spans += len(batch.spans)
            self._enqueue(batch)
        self._pump()

    # -- building --------------------------------------------------------------

    def _build_batch(self, *, force: bool = False) -> TelemetryBatch | None:
        current = self.telemetry.registry.collect()
        metrics = compute_deltas(current, self._last)
        self._last = current
        spans = self._drain_spans()
        if not metrics and not spans:
            if not force:
                return None
            self.stats.heartbeats += 1
        batch = TelemetryBatch(
            peer=self.peer_id,
            role=self.role,
            shard=self.shard,
            seq=self._next_seq,
            time=self.simulator.now,
            dropped_batches=self.stats.batches_dropped,
            metrics=metrics,
            spans=spans,
        )
        self._next_seq += 1
        self.stats.batches_built += 1
        self.stats.metrics_exported += len(metrics)
        self.stats.spans_exported += len(spans)
        return batch

    def _drain_spans(self) -> tuple[SpanRecord, ...]:
        """Head-sampled spans past each tracer's cursor.

        The cursor keys on the tracer's monotone ``seq``, ring eviction
        shows up as a gap counted in ``spans_missed``, and
        ``max_spans_per_batch`` bounds the batch while the cursor still
        advances (no silent stall).
        """
        records: list[SpanRecord] = []
        for tracer_id, tracer in sorted(self.telemetry.tracers().items()):
            cursor = self._span_cursor.get(tracer_id, -1)
            recent = tracer.recent()
            if recent and recent[0].seq > cursor + 1:
                self.stats.spans_missed += recent[0].seq - cursor - 1
            for span in recent:
                if span.seq <= cursor:
                    continue
                cursor = span.seq
                if len(records) >= self.max_spans_per_batch:
                    self.stats.spans_truncated += 1
                    continue
                records.append(span)
            self._span_cursor[tracer_id] = cursor
        return tuple(records)

    # -- queueing / sending ----------------------------------------------------

    def _enqueue(self, batch: TelemetryBatch) -> None:
        if len(self._queue) >= self.queue_limit:
            self._queue.popleft()
            # The loss travels in the *next* batch's counter delta, so
            # the fleet snapshot owns it.
            self.stats.batches_dropped += 1
        self._queue.append(batch)

    def _pump(self) -> None:
        if self._inflight or not self._queue:
            return
        batch = self._queue.popleft()
        self._inflight = True

        def accept(response: Any) -> bool:
            return (
                isinstance(response, ExportAck)
                and response.seq == batch.seq
                and response.accepted
            )

        pending = self.dispatcher.request(
            self.collectors,
            lambda request_id: ExportRequest(request_id=request_id, batch=batch),
            accept=accept,
        )

        def settled(result: Any) -> None:
            self._inflight = False
            if isinstance(result, RequestFailure):
                # Every collector exhausted: keep the batch at the head so
                # seq order survives; the next tick (or flush) retries,
                # and drop-oldest bounds a sustained outage.
                self.stats.push_failures += 1
                self._queue.appendleft(batch)
                return
            self.stats.batches_sent += 1
            self._pump()

        pending.subscribe(settled)
