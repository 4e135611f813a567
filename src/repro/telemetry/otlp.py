"""OTLP-style telemetry wire types: delta-temporality batches on the wire.

These are the shapes a :class:`~repro.telemetry.exporter.TelemetryExporter`
sends over the simulated network's ``telemetry`` protocol channel and a
:class:`~repro.telemetry.collector.CollectorPeer` folds into a fleet
snapshot:

* :class:`TelemetryBatch` — one export interval's worth of metric deltas
  and finished spans, stamped with the peer's **resource attributes**
  (peer id, role ``full``/``light``/``witness-provider``, shard id) and a
  per-peer monotone ``seq`` so the collector can dedup retransmissions
  and *see* drop-oldest losses as sequence gaps;
* :class:`CounterDelta` / :class:`GaugeValue` / :class:`HistogramDelta` —
  the three instrument encodings.  Temporality follows OTLP: counters and
  histogram bucket/count fields travel as **deltas** (the additive fields,
  so folding is exact integer addition), gauges travel as **last values**,
  and a histogram's ``sum``/``min``/``max`` travel as cumulative absolutes
  (replace-on-fold) so the collector's per-peer state reconstructs the
  peer's live snapshot *exactly* — the E17 fleet-equals-offline-merge
  assertion rests on this;
* :class:`ExportRequest` / :class:`ExportAck` — the
  :class:`~repro.net.request.RequestDispatcher` envelope (request id for
  attempt matching, seq echo in the ack).

There is one span model: the stage waterfall of every bundle and
revocation trace rides the metric path as ``trace_stage_seconds``
histogram deltas, and per-trace detail travels only as the head-sampled
:class:`~repro.telemetry.disttrace.SpanRecord` entries of a batch.

Every type's wire layout is a field spec in :mod:`repro.codec`, whose
decoders are strict and raise only :class:`~repro.errors.ProtocolError`
on malformed bytes.  The simulated network carries the dataclasses and
bills ``byte_size() == len(to_bytes())``, so the E17 telemetry/relay
byte ratio reflects honest wire cost (including re-sending the 33
default bucket bounds only when a histogram uses *non*-default buckets
— the default set travels as a one-byte flag).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.codec import (
    BOOL, F64, I32, I64, STR, U8, U16, U32, U64, Optional, Repeated, Union, message, row
)
from repro.telemetry.disttrace import SpanRecord
from repro.telemetry.registry import DEFAULT_BUCKETS, metric_key

#: Protocol channel export requests travel on (peer -> collector).
TELEMETRY_PROTOCOL = "telemetry"

#: Channel the acks come back on.  Distinct from the request channel so a
#: collector could itself run an exporter (to a parent collector) without
#: the client registration displacing the server's.
TELEMETRY_REPLY_PROTOCOL = "telemetry-reply"

Labels = tuple[tuple[str, str], ...]


def labels_of(mapping: Mapping[str, str]) -> Labels:
    """Canonical (sorted) label tuple for the wire."""
    return tuple(sorted(mapping.items()))


#: ``(key, value)`` pairs behind a one-byte count.
LABELS = Repeated(row(STR, STR), count=U8)

#: Type-preserving scalar: ints stay ints through the round trip (a
#: bool is not a wire scalar).
NUMBER = Union((0, int, I64), (1, float, F64))


# -- metric deltas ------------------------------------------------------------


@message(("name", STR), ("labels", LABELS), ("delta", NUMBER), tag=ord("C"))
@dataclass(frozen=True)
class CounterDelta:
    """Counter increment since the previous exported batch."""

    name: str
    labels: Labels
    delta: int | float

    kind = "counter"

    @property
    def key(self) -> str:
        return metric_key(self.name, dict(self.labels))


@message(("name", STR), ("labels", LABELS), ("value", NUMBER), tag=ord("G"))
@dataclass(frozen=True)
class GaugeValue:
    """Gauge last-value (OTLP gauges are not additive; fold = replace)."""

    name: str
    labels: Labels
    value: int | float

    kind = "gauge"

    @property
    def key(self) -> str:
        return metric_key(self.name, dict(self.labels))


@message(
    ("name", STR),
    ("labels", LABELS),
    ("le", Optional(Repeated(F64))),
    ("count_delta", U64),
    ("sum_total", F64),
    ("min_total", F64),
    ("max_total", F64),
    ("bucket_deltas", Repeated(row(U16, U64))),
    tag=ord("H"),
)
@dataclass(frozen=True)
class HistogramDelta:
    """Histogram window: delta buckets/count, cumulative sum/min/max.

    ``bucket_deltas`` is sparse — only buckets that moved travel, as
    ``(bucket_index, delta)`` pairs (index ``len(le)`` is the +Inf
    overflow bucket).  ``le is None`` means :data:`DEFAULT_BUCKETS`, which
    every standard histogram uses, so the 33 bounds almost never travel.
    """

    name: str
    labels: Labels
    count_delta: int
    sum_total: float
    min_total: float
    max_total: float
    bucket_deltas: tuple[tuple[int, int], ...]
    le: tuple[float, ...] | None = None

    kind = "histogram"

    @property
    def key(self) -> str:
        return metric_key(self.name, dict(self.labels))

    @property
    def bounds(self) -> tuple[float, ...]:
        return DEFAULT_BUCKETS if self.le is None else self.le


MetricDelta = CounterDelta | GaugeValue | HistogramDelta

#: A metric delta, picked by its leading tag byte.
METRIC = Union(
    *CounterDelta.codec.members,
    *GaugeValue.codec.members,
    *HistogramDelta.codec.members,
)


def compute_deltas(
    current: Mapping[str, dict], previous: Mapping[str, dict]
) -> tuple[MetricDelta, ...]:
    """Diff two registry ``collect()`` passes into wire deltas.

    A metric appears in the output when it changed since ``previous`` —
    or on **first sight** (even at zero), so the collector's key set
    matches the peer's registry exactly and the fleet snapshot can equal
    the offline merge field-for-field.  Registries never remove metrics,
    so keys only ever appear.
    """
    deltas: list[MetricDelta] = []
    for key, entry in current.items():
        prev = previous.get(key)
        labels = labels_of(entry["labels"])
        if entry["kind"] == "counter":
            delta = entry["value"] - (prev["value"] if prev else 0)
            if prev is None or delta != 0:
                deltas.append(CounterDelta(entry["name"], labels, delta))
        elif entry["kind"] == "gauge":
            if prev is None or entry["value"] != prev["value"]:
                deltas.append(GaugeValue(entry["name"], labels, entry["value"]))
        else:
            count_delta = entry["count"] - (prev["count"] if prev else 0)
            if prev is not None and count_delta == 0:
                continue
            prev_buckets = prev["buckets"] if prev else None
            sparse = tuple(
                (index, count - (prev_buckets[index] if prev_buckets else 0))
                for index, count in enumerate(entry["buckets"])
                if count != (prev_buckets[index] if prev_buckets else 0)
            )
            le = tuple(entry["le"])
            deltas.append(
                HistogramDelta(
                    name=entry["name"],
                    labels=labels,
                    count_delta=count_delta,
                    sum_total=entry["sum"],
                    min_total=entry["min"],
                    max_total=entry["max"],
                    bucket_deltas=sparse,
                    le=None if le == DEFAULT_BUCKETS else le,
                )
            )
    return tuple(deltas)


# -- batches ------------------------------------------------------------------


@message(
    ("peer", STR),
    ("role", STR),
    ("shard", I32),
    ("seq", U64),
    ("time", F64),
    ("dropped_batches", U64),
    ("metrics", Repeated(METRIC, count=U32)),
    ("spans", Repeated(SpanRecord.codec)),
)
@dataclass(frozen=True)
class TelemetryBatch:
    """One export interval: resource attributes + metric deltas + spans.

    ``seq`` is per-peer monotone from 1; ``dropped_batches`` is the
    exporter's cumulative drop-oldest count at build time (loss
    attribution for the collector without waiting for the next metric
    delta to arrive).
    """

    peer: str
    role: str
    shard: int
    seq: int
    time: float
    dropped_batches: int
    metrics: tuple[MetricDelta, ...]
    #: Finished head-sampled spans: bounded per tick and cursor-drained;
    #: empty (2 wire bytes) when sampling is off.
    spans: tuple[SpanRecord, ...] = ()


@message(("request_id", U64), ("batch", TelemetryBatch.codec))
@dataclass(frozen=True)
class ExportRequest:
    """Dispatcher envelope: the batch plus the attempt's request id."""

    request_id: int
    batch: TelemetryBatch


@message(("request_id", U64), ("seq", U64), ("accepted", BOOL))
@dataclass(frozen=True)
class ExportAck:
    """Collector acknowledgement: echoes the request id and batch seq."""

    request_id: int
    seq: int
    accepted: bool = True
