"""Span tracing on the simulated clock: one span model per peer.

A :class:`TraceContext` is the one live handle.  The pipeline mints it at
relay ingress and carries it through the bundle's whole path —
prefilter → dedup/ratelimit → cheap checks → batch enqueue → flush →
executor lane dispatch → pairing verdict → resolve — and, on the
revocation path, evidence → commit-reveal → ``MemberRemoved`` →
accepted-window collapse.  Each :meth:`TraceContext.mark` stamps the
*simulated* clock, so stage durations measure exactly the queueing and
service delays the discrete-event model charges (batch deadlines, lane
waits, pairing service time), not Python wall time.

When a handle belongs to a distributed trace it also carries its place
in that trace (trace id, own span id, parent span id, hop, origin).
That happens in two cases: the bundle arrived with an inbound
:class:`~repro.telemetry.disttrace.SpanContext` (the handle is that
relay hop's child span), or it is a head-sampled publish root.

:meth:`Tracer.finish` does two things:

* every trace folds its per-stage durations into the shared registry's
  ``trace_stage_seconds{kind,stage}`` / ``trace_total_seconds{kind}``
  histograms and ``traces_finished_total{kind}``.  This aggregate
  waterfall is always on and always exported with the metric deltas;
* a trace that belongs to a distributed trace also becomes one
  :class:`~repro.telemetry.disttrace.SpanRecord` in the peer's single
  bounded ring, which the exporter drains.  An unsampled trace never
  leaves the peer as an individual record.

Publish roots exist only when sampled, so they export a span but fold no
histogram: the histograms never depend on the sample rate.

Head sampling is decided once, at the root (:meth:`Tracer.begin_publish`,
probability ``sample``); the decision rides the wire and downstream
peers honour it regardless of their own rate.  Sampling draws from a
**dedicated** per-peer RNG, never the router's, so enabling tracing
perturbs no mesh shuffle, and ``sample=0.0`` mints nothing: zero wire
bytes and bit-identical seed behaviour.

Like the registry, the whole surface has a no-op twin
(:data:`NULL_TRACER` / :data:`NULL_TRACE`) so instrumentation is
unconditional and a disabled run does no work and allocates nothing.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.errors import ProtocolError
from repro.telemetry.disttrace import NO_PARENT, Marks, SpanContext, SpanRecord
from repro.telemetry.registry import MetricsRegistry, NullRegistry

#: Canonical bundle-lifecycle stage names, in path order.  A verdict that
#: short-circuits (gate drop, cache hit) simply has fewer marks; span
#: durations are always deltas between *consecutive* marks, so skipped
#: stages never show up as zero-length noise.
INGRESS = "ingress"
PREFILTER = "prefilter"
RATELIMIT = "ratelimit"
CHEAP_CHECKS = "cheap-checks"
VERDICT_CACHE = "verdict-cache"
BATCH_ENQUEUE = "batch-enqueue"
BATCH_FLUSH = "batch-flush"
LANE_DISPATCH = "lane-dispatch"
PAIRING = "pairing"
RESOLVE = "resolve"

#: Revocation-path stages (evidence → network-wide exclusion).
EVIDENCE = "evidence"
COMMIT_REVEAL = "commit-reveal"
MEMBER_REMOVED = "member-removed"
WINDOW_COLLAPSE = "window-collapse"

#: Kind (and first mark) of a sampled publish root span.
PUBLISH = "publish"

BUNDLE_STAGE_ORDER = (
    PREFILTER,
    RATELIMIT,
    CHEAP_CHECKS,
    VERDICT_CACHE,
    BATCH_ENQUEUE,
    BATCH_FLUSH,
    LANE_DISPATCH,
    PAIRING,
    RESOLVE,
)

REVOCATION_STAGE_ORDER = (COMMIT_REVEAL, MEMBER_REMOVED, WINDOW_COLLAPSE)

#: The first mark a trace of each kind opens with (others: EVIDENCE).
_FIRST_MARK = {"bundle": INGRESS, PUBLISH: PUBLISH}


@dataclass(frozen=True)
class Span:
    """One stage's share of a trace: ``stage`` ran from ``start`` to ``end``."""

    stage: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class TraceContext:
    """One live span: a (stage, simulated-time) mark trail.

    ``span_id`` is 0 for a trace outside any distributed trace; such a
    trace only feeds the peer's histograms.  Otherwise ``trace_id``,
    ``parent_id`` (:data:`~repro.telemetry.disttrace.NO_PARENT` for a
    publish root), ``hop`` and ``origin`` place it in the propagation
    tree, and :attr:`context` is what it puts on the wire.
    """

    __slots__ = (
        "kind", "marks", "trace_id", "span_id", "parent_id", "hop", "origin",
        "_clock",
    )

    def __init__(self, kind: str, origin: str, clock: Callable[[], float]) -> None:
        self.kind = kind
        self.origin = origin
        self._clock = clock
        self.trace_id = 0
        self.span_id = 0
        self.parent_id = NO_PARENT
        self.hop = 0
        self.marks: list[tuple[str, float]] = [
            (_FIRST_MARK.get(kind, EVIDENCE), clock())
        ]

    def mark(self, stage: str) -> None:
        """Stamp ``stage`` as completed now (simulated clock)."""
        self.marks.append((stage, self._clock()))

    @property
    def context(self) -> SpanContext:
        """This span as the parent of whatever the next hop mints."""
        return SpanContext(
            trace_id=self.trace_id, span_id=self.span_id, hop=self.hop,
            origin=self.origin,
        )

    @property
    def started_at(self) -> float:
        return self.marks[0][1]

    @property
    def ended_at(self) -> float:
        return self.marks[-1][1]

    @property
    def total(self) -> float:
        return self.ended_at - self.started_at

    def spans(self) -> tuple[Span, ...]:
        """Consecutive-mark deltas: the stage waterfall of this trace."""
        return tuple(
            Span(stage=stage, start=prev_t, end=t)
            for (_, prev_t), (stage, t) in itertools.pairwise(self.marks)
        )


class NullTrace:
    """Shared do-nothing trace for the disabled path."""

    __slots__ = ()
    kind = "null"
    origin = ""
    trace_id = 0
    span_id = 0
    marks: list[tuple[str, float]] = []
    started_at = 0.0
    ended_at = 0.0
    total = 0.0

    def mark(self, stage: str) -> None:
        return None

    def spans(self) -> tuple[Span, ...]:
        return ()


NULL_TRACE = NullTrace()


class Tracer:
    """One peer's span mint, span ring, and relay route table."""

    def __init__(
        self,
        peer_id: str,
        registry: MetricsRegistry | NullRegistry,
        *,
        sample: float = 0.0,
        clock: Callable[[], float] | None = None,
        capacity: int = 256,
        route_capacity: int = 4096,
    ) -> None:
        if not 0.0 <= sample <= 1.0:
            raise ProtocolError(f"trace_sample must be in [0, 1], got {sample}")
        self.peer_id = peer_id
        self.registry = registry
        self.sample = sample
        self.clock: Callable[[], float] = clock or (lambda: 0.0)
        # Dedicated sampling RNG: drawing from a shared router RNG would
        # perturb mesh shuffles and break every bit-identity comparison.
        self._rng = random.Random(
            int.from_bytes(hashlib.sha256(peer_id.encode()).digest()[:8], "big")
        )
        self._mint = itertools.count()
        self._seq = itertools.count()
        self._ring: deque[SpanRecord] = deque(maxlen=capacity)
        #: msg_id -> the context *this* peer forwards (its own span as
        #: parent), written at ingress, read by the router's rewriter.
        self._outbound: dict[bytes, SpanContext] = {}
        self._outbound_order: deque[bytes] = deque()
        self._route_capacity = route_capacity
        #: Live revocation-case contexts, keyed by whatever the caller
        #: uses to correlate (evidence case tuples, leaf indices).
        self._revocations: dict[object, SpanContext] = {}
        self._revocation_order: deque[object] = deque()
        #: Contexts the rewriter could not resolve (route table evicted):
        #: the trace is truncated rather than misattributed.
        self.rewrites_missed = 0

    def _mint_id(self, width: int) -> int:
        seed = f"{self.peer_id}:{next(self._mint)}".encode()
        return int.from_bytes(hashlib.sha256(seed).digest()[:width], "big") or 1

    # -- span lifecycle ---------------------------------------------------------

    def begin(
        self, kind: str = "bundle", *, parent: SpanContext | None = None,
        key: bytes | None = None,
    ) -> TraceContext:
        """Mint a trace at the current simulated instant (relay ingress).

        ``parent`` is an inbound span context: the trace becomes that
        hop's child span, and ``key`` (the pubsub msg id) registers the
        re-stamped outbound context the router's trace rewriter forwards,
        so downstream spans attach to the true causal parent.
        """
        trace = TraceContext(kind, self.peer_id, self.clock)
        if parent is not None:
            trace.trace_id = parent.trace_id
            trace.span_id = self._mint_id(8)
            trace.parent_id = parent.span_id
            trace.hop = parent.child_hop()
            trace.origin = parent.origin
            if key is not None:
                self._route(key, trace.context)
        return trace

    def begin_publish(self) -> TraceContext | None:
        """Head-sampling decision + root span mint (None: not sampled)."""
        if self.sample <= 0.0:
            return None
        if self.sample < 1.0 and self._rng.random() >= self.sample:
            return None
        trace = TraceContext(PUBLISH, self.peer_id, self.clock)
        trace.trace_id = self._mint_id(16)
        trace.span_id = self._mint_id(8)
        return trace

    def finish(self, trace: TraceContext | NullTrace) -> None:
        """Fold a completed trace into histograms; export it if sampled."""
        if trace is NULL_TRACE:
            return
        assert isinstance(trace, TraceContext)
        if trace.kind != PUBLISH:
            for span in trace.spans():
                self.registry.histogram(
                    "trace_stage_seconds", kind=trace.kind, stage=span.stage
                ).observe(span.duration)
            self.registry.histogram("trace_total_seconds", kind=trace.kind).observe(
                trace.total
            )
            self.registry.counter("traces_finished_total", kind=trace.kind).inc()
        if trace.span_id:
            self._record(
                trace_id=trace.trace_id,
                span_id=trace.span_id,
                parent_id=trace.parent_id,
                kind=trace.kind,
                hop=trace.hop,
                origin=trace.origin,
                start=trace.started_at,
                end=trace.ended_at,
                marks=tuple(trace.marks),
            )

    def link(
        self,
        parent: SpanContext,
        *,
        kind: str,
        start: float,
        end: float,
        marks: Marks = (),
    ) -> SpanContext:
        """Record a linked leaf span (witness fetch, evidence, …) and
        return its context so follow-up work can chain further spans."""
        span_id = self._mint_id(8)
        self._record(
            trace_id=parent.trace_id,
            span_id=span_id,
            parent_id=parent.span_id,
            kind=kind,
            hop=parent.hop,
            origin=parent.origin,
            start=start,
            end=end,
            marks=marks,
        )
        return SpanContext(
            trace_id=parent.trace_id,
            span_id=span_id,
            hop=parent.hop,
            origin=parent.origin,
        )

    def _record(self, **fields) -> None:
        self._ring.append(SpanRecord(seq=next(self._seq), peer=self.peer_id, **fields))

    # -- routing ----------------------------------------------------------------

    def _route(self, key: bytes, ctx: SpanContext) -> None:
        if key not in self._outbound:
            self._outbound_order.append(key)
            if len(self._outbound_order) > self._route_capacity:
                self._outbound.pop(self._outbound_order.popleft(), None)
        self._outbound[key] = ctx

    def outbound_context(self, key: bytes) -> SpanContext | None:
        return self._outbound.get(key)

    # -- revocation correlation --------------------------------------------------

    def set_revocation_context(self, key: object, ctx: SpanContext) -> None:
        if key not in self._revocations:
            self._revocation_order.append(key)
            if len(self._revocation_order) > 256:
                self._revocations.pop(self._revocation_order.popleft(), None)
        self._revocations[key] = ctx

    def revocation_context(self, key: object) -> SpanContext | None:
        return self._revocations.get(key)

    # -- export -----------------------------------------------------------------

    def recent(self) -> tuple[SpanRecord, ...]:
        """The span ring's contents, oldest first (the exporter's read path)."""
        return tuple(self._ring)


class NullTracer:
    """The disabled tracer: mints the shared no-op trace, keeps nothing."""

    peer_id = ""
    rewrites_missed = 0
    clock = staticmethod(lambda: 0.0)

    def begin(
        self, kind: str = "bundle", *, parent: object = None, key: object = None
    ) -> NullTrace:
        return NULL_TRACE

    def begin_publish(self) -> None:
        return None

    def finish(self, trace: object) -> None:
        return None

    def link(self, parent: object, **kwargs: object) -> None:
        return None

    def outbound_context(self, key: object) -> None:
        return None

    def set_revocation_context(self, key: object, ctx: object) -> None:
        return None

    def revocation_context(self, key: object) -> None:
        return None

    def recent(self) -> tuple[SpanRecord, ...]:
        return ()


NULL_TRACER = NullTracer()
