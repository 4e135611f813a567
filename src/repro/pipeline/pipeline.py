"""The staged ingress validation pipeline (§III-F, production-shaped).

Composes the routing decision of §III-F the way production gossip stacks
layer ingress validation — cheap gates first, expensive ones batched:

1. :class:`~repro.pipeline.prefilter.Prefilter` — framing/size/epoch-window
   gates and a per-topic dedup LRU (no field arithmetic);
2. :class:`~repro.pipeline.ratelimit.IngressRateLimiter` — token buckets
   per forwarding peer and per topic, feeding GossipSub behaviour
   penalties on overflow;
3. the existing :class:`~repro.core.validator.BundleValidator` cheap checks
   — root recognition and payload binding (§III-F items 2-3);
4. a shared **proof-verdict cache** keyed by (statement, proof) hash — a
   re-broadcast of an already-judged bundle (e.g. after root churn or
   seen-cache expiry) never re-verifies;
5. :class:`~repro.pipeline.batch_verifier.BatchVerifier` — batched Groth16
   verification with per-proof fallback, flushing on size-or-deadline;
6. the nullifier-map rate check (§III-F item 3) once the verdict lands.

Outcomes that exist in the seed's :class:`ValidationOutcome` vocabulary are
recorded in the wrapped validator's stats, so ``batch_size=1`` (the
default) is observationally identical to calling
``BundleValidator.validate`` directly *for traffic below the token-bucket
rates* — under a flood the buckets deliberately shed load the seed would
have verified; pipeline-only drops (size, dedup, rate limit) are counted
in :class:`PipelineStats` alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.nullifier_log import SpamEvidence
from repro.core.validator import BundleValidator, ValidationOutcome
from repro.errors import ProtocolError
from repro.exec.costs import CryptoCostModel
from repro.exec.executor import (
    CryptoExecutor,
    Priority,
    SimulatedCryptoExecutor,
    SynchronousCryptoExecutor,
)
from repro.gossipsub.router import ValidationResult
from repro.net.promise import Promise
from repro.net.simulator import Simulator
from repro.pipeline.batch_verifier import AdaptiveBatchPolicy, BatchVerifier
from repro.pipeline.prefilter import Prefilter, PrefilterOutcome
from repro.pipeline.ratelimit import (
    BucketSpec,
    IngressRateLimiter,
    RateLimitStats,
    RateLimitVerdict,
)
from repro.pipeline.verdicts import SharedProofChecker, VerdictCache
from repro.telemetry import NullTelemetry, Telemetry, resolve as resolve_telemetry
from repro.telemetry import tracing
from repro.telemetry.registry import counted
from repro.waku.message import WakuMessage
from repro.zksnark.prover import RLNProver


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs of the staged pipeline; defaults preserve seed behaviour.

    ``batch_size=1`` verifies synchronously like the seed; larger values
    defer verdicts until the batch fills or ``batch_deadline`` simulated
    seconds pass.  The default bucket specs are deliberately generous —
    honest traffic (one message per member per epoch) never trips them;
    they exist to bound the *verification* work a misbehaving forwarder
    can demand.
    """

    batch_size: int = 1
    batch_deadline: float = 0.05
    max_payload_bytes: int = 1 << 20
    dedup_capacity: int = 4096
    verdict_cache_capacity: int = 8192
    peer_bucket: BucketSpec | None = field(
        default_factory=lambda: BucketSpec(capacity=256.0, refill_per_second=64.0)
    )
    topic_bucket: BucketSpec | None = field(
        default_factory=lambda: BucketSpec(capacity=1024.0, refill_per_second=256.0)
    )
    #: When True, the batch verifier sizes flushes from an EWMA of the
    #: bundle arrival rate between ``min_batch_size`` and
    #: ``max_batch_size`` (small under light load for latency, large under
    #: floods for throughput); ``batch_size`` then only seeds the verifier
    #: before the first arrivals.  Off (the default) preserves the pinned
    #: static-``batch_size`` behaviour exactly.
    adaptive_batching: bool = False
    min_batch_size: int = 1
    max_batch_size: int = 64
    #: EWMA smoothing factor for inter-arrival times (0 < alpha <= 1).
    arrival_smoothing: float = 0.2
    #: Crypto worker lanes.  0 (the default) verifies inline in the relay
    #: callback, bit-identical to the pre-executor path; >= 1 moves every
    #: flush onto a :class:`~repro.exec.executor.SimulatedCryptoExecutor`
    #: so relay callbacks return immediately and verdicts resolve at
    #: simulated completion time.
    workers: int = 0
    #: Pairings -> modeled seconds, shared by the executor's service-time
    #: model and the benchmark reports (one source of truth for the
    #: paper's ~7.5 ms-per-pairing figure).
    cost_model: CryptoCostModel = field(default_factory=CryptoCostModel)
    #: PRUNE a peer from the mesh once its token bucket has overflowed
    #: this many times (ROADMAP: rate-limit feedback into mesh
    #: management); ``None`` keeps the seed behaviour of only feeding
    #: ``on_behaviour_penalty``.
    prune_overflow_threshold: int | None = None

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ProtocolError("batch_size must be >= 1")
        if self.batch_deadline <= 0:
            raise ProtocolError("batch_deadline must be positive")
        if self.verdict_cache_capacity < 1:
            raise ProtocolError("verdict_cache_capacity must be >= 1")
        if self.workers < 0:
            raise ProtocolError("workers must be >= 0")
        if (
            self.prune_overflow_threshold is not None
            and self.prune_overflow_threshold < 1
        ):
            raise ProtocolError("prune_overflow_threshold must be >= 1 (or None)")
        if self.adaptive_batching:
            if not 1 <= self.min_batch_size <= self.max_batch_size:
                raise ProtocolError(
                    "need 1 <= min_batch_size <= max_batch_size for adaptation"
                )
            if not 0.0 < self.arrival_smoothing <= 1.0:
                raise ProtocolError("arrival_smoothing must be in (0, 1]")

    def adaptive_policy(self) -> AdaptiveBatchPolicy | None:
        if not self.adaptive_batching:
            return None
        return AdaptiveBatchPolicy(
            min_batch_size=self.min_batch_size,
            max_batch_size=self.max_batch_size,
            alpha=self.arrival_smoothing,
        )


@dataclass(frozen=True)
class Verdict:
    """The pipeline's final word on one bundle."""

    action: ValidationResult
    outcome: ValidationOutcome | None  # None for pipeline-only drops
    evidence: SpamEvidence | None = None
    stage: str = ""
    cached: bool = False
    #: The bundle was shed unjudged (rate limiting): callers should also
    #: un-witness its id from their own dedup layers so a retry can land.
    retryable: bool = False


class PendingVerdict(Promise[Verdict]):
    """A verdict promised once the batched proof check flushes."""

    __slots__ = ()

    @property
    def verdict(self) -> Verdict:
        return self.value


@dataclass
class PipelineStats:
    """Stage-level accounting on top of the sub-stage stats objects."""

    admitted: int = counted("pipeline_admitted_total")
    deferred: int = counted("pipeline_deferred_total")
    #: Bundles dropped (rejected or ignored), by the stage that decided.
    drops: dict[str, int] = counted("pipeline_drops_total", label="stage")
    #: The limiter's own stats object; set by the owning pipeline so
    #: ``rate_limited`` is always the single source of truth.
    ratelimit: RateLimitStats | None = None

    @property
    def rate_limited(self) -> int:
        """Bundles shed by the token buckets (delegated, never drifts)."""
        return 0 if self.ratelimit is None else self.ratelimit.total_limited()


class ValidationPipeline:
    """Staged ingress validation wrapping one peer's :class:`BundleValidator`."""

    def __init__(
        self,
        validator: BundleValidator,
        prover: RLNProver,
        simulator: Simulator | None = None,
        config: PipelineConfig | None = None,
        *,
        on_rate_limit_penalty: Callable[[str], None] | None = None,
        telemetry: "Telemetry | NullTelemetry | None" = None,
        peer_id: str = "",
    ) -> None:
        self.validator = validator
        self.config = config or PipelineConfig()
        self.simulator = simulator
        self.telemetry = resolve_telemetry(telemetry)
        self.peer_id = peer_id
        clock = (lambda: simulator.now) if simulator is not None else None
        self.tracer = self.telemetry.tracer(peer_id or "pipeline", clock=clock)
        registry = self.telemetry.registry
        # A verdict resolves against the local epoch captured at submit
        # time; a deadline spanning epochs would accept bundles the rest of
        # the network is already rejecting as out-of-window.
        if self.config.batch_deadline >= validator.config.epoch_length:
            raise ProtocolError(
                f"batch_deadline ({self.config.batch_deadline}s) must be "
                f"shorter than the epoch length ({validator.config.epoch_length}s)"
            )
        self.prefilter = Prefilter(
            max_epoch_gap=validator.config.max_epoch_gap,
            max_payload_bytes=self.config.max_payload_bytes,
            dedup_capacity=self.config.dedup_capacity,
        )
        self.ratelimiter = IngressRateLimiter(
            peer_spec=self.config.peer_bucket,
            topic_spec=self.config.topic_bucket,
        )
        # The pipeline owns the crypto executor: workers=0 is the inline
        # (seed-pinned) path, workers>=1 models that many worker lanes on
        # the simulator.  The same executor serves the relay flushes (at
        # RELAY priority, below) and the store/filter/lightpush
        # re-validation handed out by shared_checker() (at SERVICE
        # priority), so heavy query load queues behind relay verdicts
        # rather than competing with them.
        if self.config.workers >= 1:
            if simulator is None:
                raise ProtocolError("workers >= 1 needs a simulator")
            self.executor: CryptoExecutor = SimulatedCryptoExecutor(
                simulator,
                self.config.workers,
                counter=prover.pairing_counter,
                cost_model=self.config.cost_model,
                registry=registry,
                peer=peer_id,
            )
        else:
            self.executor = SynchronousCryptoExecutor(
                counter=prover.pairing_counter,
                cost_model=self.config.cost_model,
                registry=registry,
                peer=peer_id,
            )
        self.batch_verifier = BatchVerifier(
            prover,
            simulator,
            batch_size=self.config.batch_size,
            deadline=self.config.batch_deadline,
            adaptive=self.config.adaptive_policy(),
            executor=self.executor,
            flush_priority=Priority.RELAY,
            registry=registry,
            peer=peer_id,
        )
        self.verdict_cache = VerdictCache(self.config.verdict_cache_capacity)
        self._prover = prover
        self.stats = PipelineStats(ratelimit=self.ratelimiter.stats)
        registry.expose(self.stats, peer=peer_id)
        self._on_rate_limit_penalty = on_rate_limit_penalty
        self._closed = False

    # -- the decision -----------------------------------------------------------

    def validate(
        self,
        sender: str,
        message: object,
        local_epoch: int,
        msg_id: bytes,
        *,
        topic: str = "",
        now: float = 0.0,
        trace_parent=None,
    ) -> "Verdict | PendingVerdict":
        """Run one bundle through the stages; sync verdict or a promise.

        ``trace_parent`` is the inbound message's distributed
        :class:`~repro.telemetry.disttrace.SpanContext` (PR 9), if any:
        the whole validation trace becomes a child span of the sender's
        hop, keyed by ``msg_id`` so the relay layer can re-stamp the
        forwarded copy with this peer's own span.
        """
        trace = self.tracer.begin(parent=trace_parent, key=msg_id)
        # Stage 1 — stateless gates and dedup (no field arithmetic).
        gate = self.prefilter.check(message, local_epoch, msg_id, topic)
        trace.mark(tracing.PREFILTER)
        if gate is not PrefilterOutcome.PASS:
            verdict = self._gate_verdict(gate)
            self.tracer.finish(trace)
            return verdict

        # Stage 2 — token buckets; per-peer overflow feeds a GossipSub
        # behaviour penalty (a shared topic-bucket denial is aggregate
        # back-pressure, not the forwarder's fault — no penalty).
        admission = self.ratelimiter.allow(sender, topic, now)
        trace.mark(tracing.RATELIMIT)
        if admission is not RateLimitVerdict.ALLOWED:
            if (
                admission is RateLimitVerdict.PEER_LIMITED
                and self._on_rate_limit_penalty is not None
            ):
                self._on_rate_limit_penalty(sender)
            # The bundle was never judged: un-witness its id so a later
            # retry (once the bucket refills) is not mistaken for a replay.
            # ``retryable`` tells the caller to do the same for its own
            # dedup layer (the router's seen-cache).
            self.prefilter.dedup.forget(topic, msg_id)
            self._drop("ratelimit")
            self.tracer.finish(trace)
            # IGNORE, not REJECT — the router must not stack an
            # invalid-message penalty on content whose validity was never
            # checked.
            return Verdict(
                ValidationResult.IGNORE, None, stage="ratelimit", retryable=True
            )

        assert isinstance(message, WakuMessage)
        bundle = message.rate_limit_proof
        # Stage 3 — root recognition and payload binding (§III-F items 2-3).
        cheap = self.validator.classify_cheap(message)
        trace.mark(tracing.CHEAP_CHECKS)
        if cheap is not None:
            verdict = self._finish(cheap, None, stage="cheap-checks")
            self.tracer.finish(trace)
            return verdict

        # Stage 4 — verdict cache, then batched verification.
        public = bundle.public_inputs()
        key = VerdictCache.key(bundle, public)
        cached = self.verdict_cache.get(key)
        if cached is not None:
            self.validator.stats.proofs_cached += 1
            trace.mark(tracing.VERDICT_CACHE)
            verdict = self._after_proof(
                message, local_epoch, msg_id, cached, stage="verdict-cache", cached=True
            )
            self.tracer.finish(trace)
            return verdict

        # A straight re-broadcast of a proof already inside the open batch
        # window does not reach this point: an identical wire message has
        # an identical msg_id, which the router's seen-cache and the
        # stage-1 dedup LRU suppress.  (The same (statement, proof)
        # rewrapped under a different content_topic does get a fresh
        # msg_id and becomes a second job in the batch — one redundant
        # pairing share; its verdict still lands as DUPLICATE via the
        # nullifier log, so no in-window dedup is maintained for it.)
        pending = PendingVerdict()
        self.validator.stats.proofs_verified += 1
        trace.mark(tracing.BATCH_ENQUEUE)

        def on_proof_verdict(proof_ok: bool) -> None:
            self.verdict_cache.put(key, proof_ok)
            verdict = self._after_proof(
                message, local_epoch, msg_id, proof_ok, stage="verify"
            )
            trace.mark(tracing.RESOLVE)
            self.tracer.finish(trace)
            pending.resolve(verdict)

        self.batch_verifier.submit(public, bundle.proof, on_proof_verdict, trace=trace)
        if self._closed:
            # A closed pipeline (peer shut down) must never re-arm the batch
            # deadline: late arrivals verify synchronously, like the seed.
            self.batch_verifier.flush()
        if pending.resolved:
            # batch_size=1 (or a size-triggered flush): the verdict landed
            # synchronously — indistinguishable from the seed path.
            return pending.verdict
        self.stats.deferred += 1
        return pending

    def flush(self) -> None:
        """Force any pending batch through (test convenience)."""
        self.batch_verifier.flush()

    def close(self) -> None:
        """Drain pending crypto and pin the pipeline to synchronous mode.

        Called from the owning peer's ``stop()``: the pending batch is
        flushed, every queued/in-flight executor job delivers its verdict
        *now*, and any message that still trickles in afterwards (the
        network keeps delivering in-flight RPCs) is verified inline
        instead of re-arming the batch deadline or waking worker lanes —
        a stopped peer never wakes up later to do crypto.  Pinning the
        executor itself (rather than swapping the verifier's reference)
        covers every holder at once: the shared proof checkers handed to
        store/filter/lightpush degrade to inline verification too.
        """
        self._closed = True
        self.batch_verifier.flush()
        self.executor.drain()
        self.executor.pin_synchronous()
        self._flush_final_gauges()

    def _flush_final_gauges(self) -> None:
        """Pin the executor gauges to their settled post-drain values.

        Without this, a snapshot taken after ``close()`` would still show
        the queue depth / busy lanes from the last live dispatch — state
        the drain just discarded.  The final lane-occupancy fraction and
        total modeled service time are recorded too, so shutdown
        snapshots carry the run's utilisation summary.
        """
        registry = self.telemetry.registry
        if not registry.enabled:
            return
        registry.gauge("executor_queue_depth", peer=self.peer_id).set(0)
        registry.gauge("executor_busy_lanes", peer=self.peer_id).set(0)
        elapsed = self.simulator.now if self.simulator is not None else 0.0
        registry.gauge("executor_lane_occupancy", peer=self.peer_id).set(
            self.executor.stats.occupancy(elapsed)
        )
        registry.gauge("executor_service_seconds_total", peer=self.peer_id).set(
            self.executor.stats.service_seconds
        )

    def reopen(self) -> None:
        """Re-enable batching and worker lanes after :meth:`close`."""
        self._closed = False
        self.executor.unpin()

    def shared_checker(self) -> SharedProofChecker:
        """A proof checker over *this* pipeline's verdict cache and executor.

        Hand it to the peer's store/filter/lightpush nodes: re-validation
        on those paths shares verdicts with the relay path in both
        directions (ROADMAP: verdict-cache sharing), and any fresh pairing
        work it needs is submitted through the same executor at SERVICE
        priority — heavy query load cannot starve relay verdicts.
        """
        return SharedProofChecker(
            self._prover,
            self.verdict_cache,
            executor=self.executor,
            priority=Priority.SERVICE,
        )

    # -- helpers ----------------------------------------------------------------

    def _drop(self, stage: str) -> None:
        drops = self.stats.drops
        drops[stage] = drops.get(stage, 0) + 1

    _GATE_OUTCOMES: dict[PrefilterOutcome, ValidationOutcome] = {
        PrefilterOutcome.MISSING_PROOF: ValidationOutcome.MISSING_PROOF,
        PrefilterOutcome.STALE_EPOCH: ValidationOutcome.INVALID_EPOCH_GAP,
    }

    def _gate_verdict(self, gate: PrefilterOutcome) -> Verdict:
        outcome = self._GATE_OUTCOMES.get(gate)
        if outcome is not None:
            # Gates that exist in the seed vocabulary keep its accounting.
            return self._finish(outcome, None, stage="prefilter")
        action = (
            ValidationResult.IGNORE
            if gate is PrefilterOutcome.DUPLICATE_ID
            else ValidationResult.REJECT
        )
        self._drop("prefilter")
        return Verdict(action, None, stage="prefilter")

    def _after_proof(
        self,
        message: WakuMessage,
        local_epoch: int,
        msg_id: bytes,
        proof_ok: bool,
        *,
        stage: str,
        cached: bool = False,
    ) -> Verdict:
        outcome, evidence = self.validator.classify_after_proof(
            message, local_epoch, msg_id, proof_ok
        )
        return self._finish(outcome, evidence, stage=stage, cached=cached)

    def _finish(
        self,
        outcome: ValidationOutcome,
        evidence: SpamEvidence | None,
        *,
        stage: str,
        cached: bool = False,
    ) -> Verdict:
        self.validator.stats.record(outcome)
        if outcome is ValidationOutcome.VALID:
            self.stats.admitted += 1
            action = ValidationResult.ACCEPT
        elif outcome is ValidationOutcome.DUPLICATE:
            action = ValidationResult.IGNORE
            self._drop(stage)
        else:
            action = ValidationResult.REJECT
            self._drop(stage)
        return Verdict(action, outcome, evidence, stage=stage, cached=cached)
