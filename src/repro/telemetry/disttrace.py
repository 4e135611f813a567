"""The span wire model and the collector side of distributed tracing.

One span model covers the whole fleet.  Every peer's
:class:`~repro.telemetry.tracing.Tracer` mints the live
:class:`~repro.telemetry.tracing.TraceContext` handles; this module holds
what those handles turn into once they leave the peer, and how the
collector puts them back together:

* :class:`SpanContext` — the compact wire extension (128-bit trace id,
  the sender's 64-bit span id, the sender's hop count, the origin peer)
  minted at publish time and carried inside
  :class:`~repro.waku.message.WakuMessage` through GossipSub forwarding.
  Each relay hop re-stamps the context with its *own* span id before
  forwarding, so the receiver's span always points at the true causal
  parent (including mcache/IWANT re-serves, which serve the re-stamped
  copy).
* :class:`SpanRecord` — one finished span as shipped in
  :class:`~repro.telemetry.otlp.TelemetryBatch`: a relay hop's full
  stage-mark trail, a publish root, or a linked leaf (witness fetch,
  evidence, revocation).  Only head-sampled traces produce records.
* :class:`TraceAssembler` — the collector side: stitch per-peer spans
  into rooted :class:`PropagationTree` objects and answer the questions
  merged histograms cannot — per-hop latency, fan-out degree, duplicate
  deliveries, the end-to-end critical path, fleet p50/p99
  publish→verdict latency *per assembled trace*, and the per-stage
  waterfall exemplars the collector attaches to its histogram rows.

The wire layouts are field specs in :mod:`repro.codec`.  This module
imports nothing from the rest of the telemetry package, so the wire
layer can embed :class:`SpanRecord` without an import cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codec import F64, STR, U16, U64, U128, Repeated, message, row

#: Parent sentinel of a root span (a real span id is never 0: it is a
#: 64-bit truncated SHA-256 of a unique mint string).
NO_PARENT = 0

Marks = tuple[tuple[str, float], ...]


# -- wire types ---------------------------------------------------------------


@message(("trace_id", U128), ("span_id", U64), ("hop", U16), ("origin", STR))
@dataclass(frozen=True)
class SpanContext:
    """The on-the-wire trace context: who to hang the next span under.

    ``span_id`` is the *sender's* span (the causal parent of whatever the
    receiver mints); ``hop`` is the sender's hop count (the receiver's
    span sits at ``hop + 1``); ``origin`` is the publishing peer.
    """

    trace_id: int
    span_id: int
    hop: int
    origin: str

    def child_hop(self) -> int:
        return self.hop + 1


@message(
    ("trace_id", U128),
    ("span_id", U64),
    ("parent_id", U64),
    ("seq", U64),
    ("hop", U16),
    ("start", F64),
    ("end", F64),
    ("peer", STR),
    ("origin", STR),
    ("kind", STR),
    ("marks", Repeated(row(STR, F64))),
)
@dataclass(frozen=True)
class SpanRecord:
    """One finished span as exported to the collector.

    ``seq`` is the minting peer's local monotone counter (the exporter's
    cursor key — ring eviction shows up as a ``seq`` gap); ``parent_id``
    is :data:`NO_PARENT` for a root publish span.  ``marks`` is the
    span's (stage, simulated-time) trail; consecutive-mark deltas are
    its stage waterfall.
    """

    trace_id: int
    span_id: int
    parent_id: int
    seq: int
    peer: str
    origin: str
    kind: str
    hop: int
    start: float
    end: float
    marks: Marks = ()

    @property
    def duration(self) -> float:
        return self.end - self.start


# -- assembly (collector side) -------------------------------------------------


@dataclass
class PropagationTree:
    """One trace's spans stitched into a rooted causal tree."""

    trace_id: int
    root: SpanRecord
    spans: dict[int, SpanRecord]
    children: dict[int, tuple[SpanRecord, ...]]
    #: Every non-root span's parent resolved and exactly one root found.
    complete: bool = True

    # -- structure ---------------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self.spans)

    @property
    def hops(self) -> int:
        """Deepest relay hop in the tree (root is hop 0)."""
        return max(span.hop for span in self.spans.values())

    @property
    def peers(self) -> frozenset[str]:
        return frozenset(span.peer for span in self.spans.values())

    def relay_spans(self) -> tuple[SpanRecord, ...]:
        """The per-hop validation spans (publish root and linked leaves
        excluded)."""
        return tuple(
            span
            for span in self.spans.values()
            if span.parent_id != NO_PARENT and span.kind not in LINKED_KINDS
        )

    def fanout(self, span_id: int) -> int:
        """Relay fan-out degree of one span (linked leaf spans excluded)."""
        return sum(
            1 for child in self.children.get(span_id, ())
            if child.kind not in LINKED_KINDS
        )

    @property
    def max_fanout(self) -> int:
        return max(
            (self.fanout(span_id) for span_id in self.spans), default=0
        )

    @property
    def duplicate_deliveries(self) -> int:
        """Relay spans beyond the first per peer — a peer that judged the
        same bundle twice (seen-cache expiry, IWANT refetch)."""
        seen: set[str] = set()
        duplicates = 0
        for span in self.relay_spans():
            if span.peer in seen:
                duplicates += 1
            else:
                seen.add(span.peer)
        return duplicates

    # -- latency -----------------------------------------------------------------

    def hop_latency(self, span: SpanRecord) -> float:
        """Parent span start to this span's start: queueing + transit."""
        parent = self.spans.get(span.parent_id)
        return span.start - (parent.start if parent else self.root.start)

    def per_hop_latencies(self) -> list[tuple[int, float]]:
        return [(span.hop, self.hop_latency(span)) for span in self.relay_spans()]

    @property
    def end_to_end(self) -> float:
        """Publish to the last relay verdict (the trace's full spread)."""
        ends = [span.end for span in self.relay_spans()]
        return (max(ends) - self.root.start) if ends else self.root.duration

    def critical_path(self) -> list[SpanRecord]:
        """Root → the last-finishing relay span, via parent links."""
        relay = self.relay_spans()
        if not relay:
            return [self.root]
        tip = max(relay, key=lambda span: (span.end, span.hop))
        path = [tip]
        while path[-1].parent_id != NO_PARENT:
            parent = self.spans.get(path[-1].parent_id)
            if parent is None:
                break
            path.append(parent)
        return list(reversed(path))

    # -- rendering ---------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "trace_id": f"{self.trace_id:032x}",
            "origin": self.root.peer,
            "complete": self.complete,
            "spans": self.span_count,
            "peers": len(self.peers),
            "hops": self.hops,
            "max_fanout": self.max_fanout,
            "duplicate_deliveries": self.duplicate_deliveries,
            "end_to_end_seconds": self.end_to_end,
            "critical_path": [
                {"peer": span.peer, "kind": span.kind, "hop": span.hop,
                 "start": span.start, "end": span.end}
                for span in self.critical_path()
            ],
            "tree": self._json_node(self.root),
        }

    def _json_node(self, span: SpanRecord) -> dict:
        return {
            "peer": span.peer,
            "kind": span.kind,
            "hop": span.hop,
            "start": span.start,
            "end": span.end,
            "children": [
                self._json_node(child)
                for child in sorted(
                    self.children.get(span.span_id, ()),
                    key=lambda s: (s.start, s.peer),
                )
            ],
        }

    def render(self) -> str:
        """Human-readable propagation tree (the example's output)."""
        lines: list[str] = []

        def walk(span: SpanRecord, depth: int) -> None:
            latency = span.start - self.root.start
            lines.append(
                f"{'  ' * depth}{span.peer:<12} {span.kind:<14} hop={span.hop} "
                f"+{latency * 1e3:7.2f}ms  ({span.duration * 1e3:.2f}ms)"
            )
            for child in sorted(
                self.children.get(span.span_id, ()), key=lambda s: (s.start, s.peer)
            ):
                walk(child, depth + 1)

        walk(self.root, 0)
        return "\n".join(lines)


#: Span kinds that are linked leaves, not relay hops (they never widen
#: the propagation tree's fan-out or delivery accounting).
LINKED_KINDS = frozenset(
    {
        "witness-fetch",
        "witness-serve",
        "evidence",
        "commit-reveal",
        "member-removed",
        "window-collapse",
    }
)


class TraceAssembler:
    """Stitch exported spans into propagation trees, fleet-wide."""

    def __init__(self) -> None:
        self._spans: dict[int, dict[int, SpanRecord]] = {}
        #: Retransmitted spans dropped on arrival (same trace + span id).
        self.duplicates = 0

    def add(self, record: SpanRecord) -> None:
        spans = self._spans.setdefault(record.trace_id, {})
        if record.span_id in spans:
            self.duplicates += 1
            return
        spans[record.span_id] = record

    @property
    def span_count(self) -> int:
        return sum(len(spans) for spans in self._spans.values())

    def trace_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._spans))

    def spans(self, trace_id: int) -> tuple[SpanRecord, ...]:
        return tuple(
            sorted(self._spans.get(trace_id, {}).values(), key=lambda s: s.start)
        )

    def tree(self, trace_id: int) -> PropagationTree | None:
        """Assemble one trace; ``None`` when no root span arrived yet."""
        spans = self._spans.get(trace_id)
        if not spans:
            return None
        roots = [span for span in spans.values() if span.parent_id == NO_PARENT]
        if len(roots) != 1:
            return None
        children: dict[int, list[SpanRecord]] = {}
        complete = True
        for span in spans.values():
            if span.parent_id == NO_PARENT:
                continue
            if span.parent_id not in spans:
                complete = False
                continue
            children.setdefault(span.parent_id, []).append(span)
        return PropagationTree(
            trace_id=trace_id,
            root=roots[0],
            spans=dict(spans),
            children={k: tuple(v) for k, v in children.items()},
            complete=complete,
        )

    def trees(self) -> list[PropagationTree]:
        found = (self.tree(trace_id) for trace_id in self.trace_ids())
        return [tree for tree in found if tree is not None]

    def relay_spans(self, kind: str | None = None) -> list[SpanRecord]:
        """Relay-hop spans of every assembled trace, oldest verdict first."""
        spans = [
            span
            for tree in self.trees()
            for span in tree.relay_spans()
            if kind is None or span.kind == kind
        ]
        spans.sort(key=lambda span: (span.end, span.start, span.peer))
        return spans

    # -- fleet latency ------------------------------------------------------------

    def latencies(self) -> list[float]:
        """Publish→verdict per relay span across every assembled trace."""
        out: list[float] = []
        for tree in self.trees():
            root_start = tree.root.start
            out.extend(span.end - root_start for span in tree.relay_spans())
        return out

    def quantiles(self) -> dict[str, float | int]:
        """Fleet publish→verdict p50/p99 from assembled traces."""
        samples = sorted(self.latencies())
        if not samples:
            return {"count": 0, "p50": 0.0, "p99": 0.0, "max": 0.0}

        def at(q: float) -> float:
            return samples[min(len(samples) - 1, int(q * len(samples)))]

        return {
            "count": len(samples),
            "p50": at(0.50),
            "p99": at(0.99),
            "max": samples[-1],
        }
