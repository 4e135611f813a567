"""Property-based tests for the fleet-telemetry wire path.

Three algebraic claims the collector architecture rests on, plus two
wire-codec claims:

* **Wire identity** — every :class:`TelemetryBatch` built from valid
  metric deltas and span records survives ``to_bytes``/``from_bytes``
  exactly, number types included (int deltas must stay ints or the
  collector's folds stop being exact integer arithmetic).
* **Fold exactness** — cutting one peer's event stream at arbitrary
  points, diffing consecutive ``collect()`` passes
  (:func:`compute_deltas`) and folding the deltas
  (:func:`fold_delta`) reconstructs the final ``collect()`` state
  *exactly* — delta temporality loses nothing, at any batching.
* **Order independence** — replaying any interleaving of per-peer delta
  streams into a collector (each peer's own stream in order, streams
  arbitrarily merged — exactly what concurrent exporters produce)
  yields the same fleet snapshot.
* **Decoders fail closed** — arbitrary bytes, and truncated, extended or
  byte-mutated valid encodings, only ever make the telemetry, trace,
  witness, tree-sync and message wire decoders raise
  :class:`~repro.errors.ProtocolError`.
* **Decoding is canonical** — for every wire type, valid values round
  trip, ``byte_size()`` is the encoded length, and whatever bytes a
  decoder accepts re-encode to exactly those bytes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.messages import RateLimitProof
from repro.core.wire import decode_message, encode_message
from repro.crypto.field import FIELD_MODULUS, FieldElement
from repro.crypto.merkle import MerkleProof
from repro.crypto.optimized_merkle import TreeUpdate
from repro.errors import ProtocolError
from repro.telemetry import MetricsRegistry, TelemetrySnapshot
from repro.telemetry.collector import fold_delta
from repro.telemetry.disttrace import SpanContext, SpanRecord
from repro.telemetry.export import TelemetrySnapshot as Snapshot
from repro.telemetry.otlp import (
    CounterDelta,
    ExportAck,
    ExportRequest,
    GaugeValue,
    HistogramDelta,
    TelemetryBatch,
    compute_deltas,
)
from repro.treesync.messages import (
    ShardRemoval,
    ShardRootDigest,
    ShardUpdate,
    TreeCheckpoint,
)
from repro.waku.message import WakuMessage
from repro.witness.messages import (
    SnapshotRequest,
    SnapshotResponse,
    WitnessRequest,
    WitnessResponse,
)
from repro.zksnark.groth16 import Proof

label_text = st.text(
    alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",)),
    min_size=0,
    max_size=12,
)
labels = st.lists(
    st.tuples(st.sampled_from(("peer", "stage", "kind", "x")), label_text),
    min_size=0,
    max_size=3,
    unique_by=lambda pair: pair[0],
).map(lambda pairs: tuple(sorted(pairs)))
names = st.sampled_from(("events_total", "wait_seconds", "depth", "weird_name"))
finite = st.floats(allow_nan=False, allow_infinity=False, width=64)

counter_deltas = st.builds(
    CounterDelta,
    name=names,
    labels=labels,
    delta=st.integers(min_value=-(2**62), max_value=2**62) | finite,
)
gauge_values = st.builds(GaugeValue, name=names, labels=labels, value=finite)
histogram_deltas = st.builds(
    HistogramDelta,
    name=names,
    labels=labels,
    count_delta=st.integers(min_value=0, max_value=2**40),
    sum_total=finite,
    min_total=finite,
    max_total=finite,
    bucket_deltas=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=33),
            st.integers(min_value=0, max_value=2**40),
        ),
        max_size=5,
    ).map(tuple),
    le=st.none()
    | st.lists(finite, min_size=1, max_size=6, unique=True).map(
        lambda bounds: tuple(sorted(bounds))
    ),
)
span_records = st.builds(
    SpanRecord,
    trace_id=st.integers(min_value=0, max_value=2**128 - 1),
    span_id=st.integers(min_value=0, max_value=2**64 - 1),
    parent_id=st.integers(min_value=0, max_value=2**64 - 1),
    seq=st.integers(min_value=0, max_value=2**50),
    peer=label_text,
    origin=label_text,
    kind=st.sampled_from(
        ("publish", "bundle", "witness-fetch", "witness-serve", "evidence")
    ),
    hop=st.integers(min_value=0, max_value=2**16 - 1),
    start=finite,
    end=finite,
    marks=st.lists(
        st.tuples(st.sampled_from(("ingress", "verdict", "pairing")), finite),
        max_size=4,
    ).map(tuple),
)
batches = st.builds(
    TelemetryBatch,
    peer=label_text,
    role=st.sampled_from(("full", "light", "witness-provider")),
    shard=st.integers(min_value=-1, max_value=2**31 - 1),
    seq=st.integers(min_value=1, max_value=2**50),
    time=finite,
    dropped_batches=st.integers(min_value=0, max_value=2**50),
    metrics=st.lists(
        counter_deltas | gauge_values | histogram_deltas, max_size=6
    ).map(tuple),
    spans=st.lists(span_records, max_size=3).map(tuple),
)


@settings(max_examples=200)
@given(batches)
def test_batch_wire_round_trip_identity(batch):
    decoded = TelemetryBatch.from_bytes(batch.to_bytes())
    assert decoded == batch
    for sent, received in zip(batch.metrics, decoded.metrics):
        for field in ("delta", "value", "count_delta"):
            a, b = getattr(sent, field, None), getattr(received, field, None)
            assert type(a) is type(b)


@settings(max_examples=200)
@given(span_records)
def test_span_record_wire_round_trip_identity(record):
    decoded = SpanRecord.from_bytes(record.to_bytes())
    assert decoded == record
    # Float timestamps must survive bit-exactly (>d is IEEE-754 binary64,
    # the same representation Python floats use).
    assert decoded.start == record.start and decoded.end == record.end
    assert decoded.byte_size() == record.byte_size()


# -- decoders raise only ProtocolError ------------------------------------------

u64 = st.integers(min_value=0, max_value=2**64 - 1)
span_contexts = st.builds(
    SpanContext,
    trace_id=st.integers(min_value=0, max_value=2**128 - 1),
    span_id=u64,
    hop=st.integers(min_value=0, max_value=2**16 - 1),
    origin=label_text,
)
u32 = st.integers(min_value=0, max_value=2**32 - 1)
field_elements = st.integers(min_value=0, max_value=FIELD_MODULUS - 1).map(FieldElement)
field_pairs = st.lists(st.tuples(u32, field_elements), max_size=4).map(tuple)


@st.composite
def merkle_proofs(draw) -> MerkleProof:
    depth = draw(st.integers(min_value=0, max_value=6))
    index = draw(st.integers(min_value=0, max_value=2**depth - 1))
    return MerkleProof(
        leaf=draw(field_elements),
        index=index,
        siblings=tuple(draw(field_elements) for _ in range(depth)),
        path_bits=tuple((index >> level) & 1 for level in range(depth)),
    )


@st.composite
def shard_updates(draw) -> ShardUpdate:
    path = draw(merkle_proofs())
    global_root = draw(field_elements)
    return ShardUpdate(
        seq=draw(u64),
        shard_id=draw(u32),
        update=TreeUpdate(
            index=path.index,
            new_leaf=draw(field_elements),
            path=path,
            new_root=global_root,
        ),
        new_shard_root=draw(field_elements),
        new_global_root=global_root,
    )


rate_limit_proofs = st.builds(
    RateLimitProof,
    share_x=field_elements,
    share_y=field_elements,
    internal_nullifier=field_elements,
    epoch=u64,
    root=field_elements,
    proof=st.builds(
        Proof,
        a=st.binary(min_size=32, max_size=32),
        b=st.binary(min_size=64, max_size=64),
        c=st.binary(min_size=32, max_size=32),
    ),
)
waku_messages = st.builds(
    WakuMessage,
    payload=st.binary(max_size=16),
    content_topic=label_text,
    timestamp=st.integers(min_value=0, max_value=2**40).map(lambda ms: ms / 1000.0),
    ephemeral=st.booleans(),
    rate_limit_proof=st.none() | rate_limit_proofs,
)


def encode(value) -> bytes:
    if isinstance(value, WakuMessage):
        return encode_message(value)
    return value.to_bytes()


#: Wire type -> (strict decoder, strategy of valid values).
WIRE_TYPES = {
    "CounterDelta": (CounterDelta.from_bytes, counter_deltas),
    "GaugeValue": (GaugeValue.from_bytes, gauge_values),
    "HistogramDelta": (HistogramDelta.from_bytes, histogram_deltas),
    "SpanContext": (SpanContext.from_bytes, span_contexts),
    "SpanRecord": (SpanRecord.from_bytes, span_records),
    "TelemetryBatch": (TelemetryBatch.from_bytes, batches),
    "ExportRequest": (
        ExportRequest.from_bytes,
        st.builds(ExportRequest, request_id=u64, batch=batches),
    ),
    "ExportAck": (
        ExportAck.from_bytes,
        st.builds(ExportAck, request_id=u64, seq=u64, accepted=st.booleans()),
    ),
    "WitnessRequest": (
        WitnessRequest.from_bytes,
        st.builds(
            WitnessRequest,
            request_id=u64,
            index=u64,
            trace=st.none() | span_contexts,
        ),
    ),
    "WitnessResponse": (
        WitnessResponse.from_bytes,
        st.builds(
            WitnessResponse,
            request_id=u64,
            found=st.booleans(),
            seq=u64,
            proof=st.none() | merkle_proofs(),
        ),
    ),
    "SnapshotRequest": (
        SnapshotRequest.from_bytes,
        st.builds(SnapshotRequest, request_id=u64, shard_id=u32),
    ),
    "SnapshotResponse": (
        SnapshotResponse.from_bytes,
        st.builds(
            SnapshotResponse,
            request_id=u64,
            found=st.booleans(),
            shard_id=u32,
            shard_depth=st.integers(min_value=0, max_value=255),
            seq=u64,
            leaves=field_pairs,
        ),
    ),
    "ShardRootDigest": (
        ShardRootDigest.from_bytes,
        st.builds(
            ShardRootDigest,
            seq=u64,
            shard_id=u32,
            new_shard_root=field_elements,
            new_global_root=field_elements,
        ),
    ),
    "ShardRemoval": (
        ShardRemoval.from_bytes,
        st.builds(
            ShardRemoval,
            seq=u64,
            shard_id=u32,
            index=u64,
            removed_leaf=field_elements,
            new_shard_root=field_elements,
            new_global_root=field_elements,
        ),
    ),
    "ShardUpdate": (ShardUpdate.from_bytes, shard_updates()),
    "TreeCheckpoint": (
        TreeCheckpoint.from_bytes,
        st.builds(
            TreeCheckpoint,
            seq=u64,
            depth=st.integers(min_value=0, max_value=255),
            shard_depth=st.integers(min_value=0, max_value=255),
            leaf_count=u64,
            shard_roots=field_pairs,
            global_root=field_elements,
        ),
    ),
    "WakuMessage": (decode_message, waku_messages),
}


@st.composite
def corrupted(draw, encodings) -> bytes:
    """A valid encoding, truncated, extended, or with bytes overwritten."""
    data = bytearray(draw(encodings))
    how = draw(st.sampled_from(("truncate", "extend", "mutate")))
    if how == "truncate":
        return bytes(data[: draw(st.integers(0, max(0, len(data) - 1)))])
    if how == "extend":
        return bytes(data) + draw(st.binary(min_size=1, max_size=8))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    return bytes(data)


@settings(max_examples=500)
@given(st.data())
def test_decoders_raise_only_protocol_error(data):
    name = data.draw(st.sampled_from(sorted(WIRE_TYPES)), label="type")
    decode, values = WIRE_TYPES[name]
    encodings = values.map(encode)
    raw = data.draw(st.binary(max_size=96) | corrupted(encodings), label="bytes")
    try:
        decode(raw)
    except ProtocolError:
        pass


@settings(max_examples=500)
@given(st.data())
def test_every_wire_type_decodes_canonically(data):
    name = data.draw(st.sampled_from(sorted(WIRE_TYPES)), label="type")
    decode, values = WIRE_TYPES[name]
    value = data.draw(values, label="value")
    encoding = encode(value)
    assert decode(encoding) == value
    if name != "WakuMessage":  # its byte_size() omits the 8 B framing
        assert len(encoding) == value.byte_size()
    mangled = st.binary(max_size=96) | corrupted(st.just(encoding))
    raw = data.draw(mangled, label="bytes")
    try:
        decoded = decode(raw)
    except ProtocolError:
        return
    # Strict decoding: any accepted byte string is the one encoding of
    # what it decodes to (no ignored trailing bytes, reduced field
    # elements, loose bool bytes or unknown flag bits).
    assert encode(decoded) == raw


# -- fold exactness at arbitrary cut points -----------------------------------

event_streams = st.lists(
    st.tuples(
        st.sampled_from(("counter", "gauge", "histogram")),
        st.sampled_from(("a", "b")),
        st.integers(min_value=0, max_value=100),
    ),
    max_size=40,
)


def record(registry: MetricsRegistry, event) -> None:
    kind, label, value = event
    if kind == "counter":
        registry.counter("events_total", peer=label).inc(value)
    elif kind == "gauge":
        registry.gauge("depth", peer=label).set(float(value))
    else:
        registry.histogram("wait_seconds", peer=label).observe(value / 10.0)


@settings(max_examples=150)
@given(event_streams, st.lists(st.integers(min_value=0, max_value=40), max_size=6))
def test_delta_fold_reconstructs_state_at_any_batching(stream, cuts):
    registry = MetricsRegistry()
    state: dict[str, dict] = {}
    previous: dict[str, dict] = {}
    boundaries = sorted({min(cut, len(stream)) for cut in cuts} | {len(stream)})
    start = 0
    for boundary in boundaries:
        for event in stream[start:boundary]:
            record(registry, event)
        start = boundary
        current = registry.collect()
        for delta in compute_deltas(current, previous):
            fold_delta(state, delta)
        previous = current
    assert state == registry.collect()
    assert Snapshot.from_collected(state) == TelemetrySnapshot.of(registry)


# -- interleaving order-independence ------------------------------------------


@settings(max_examples=100)
@given(
    st.lists(event_streams, min_size=2, max_size=3),
    st.integers(min_value=0, max_value=40),
    st.randoms(use_true_random=False),
)
def test_any_interleaving_of_peer_streams_folds_to_the_same_fleet(
    per_peer_streams, cut, rng
):
    # Build each peer's batch sequence: two windows per peer (cut point
    # shared for simplicity), deltas computed against that peer's own
    # previous collect pass.
    per_peer_deltas: dict[str, list[tuple]] = {}
    for index, stream in enumerate(per_peer_streams):
        peer = f"peer-{index:03d}"
        registry = MetricsRegistry()
        previous: dict[str, dict] = {}
        windows = [stream[: min(cut, len(stream))], stream[min(cut, len(stream)):]]
        per_peer_deltas[peer] = []
        for window in windows:
            for event in window:
                record(registry, event)
            current = registry.collect()
            per_peer_deltas[peer].extend(compute_deltas(current, previous))
            previous = current

    def fold_interleaving(order: list[tuple[str, object]]) -> TelemetrySnapshot:
        states: dict[str, dict[str, dict]] = {}
        for peer, delta in order:
            fold_delta(states.setdefault(peer, {}), delta)
        fleet = TelemetrySnapshot({})
        for peer in sorted(states):
            fleet = fleet.merge(Snapshot.from_collected(states[peer]))
        return fleet

    tagged = [
        (peer, delta)
        for peer, deltas in per_peer_deltas.items()
        for delta in deltas
    ]
    baseline = fold_interleaving(tagged)
    # Random cross-peer interleavings that keep each peer's stream in order.
    for _ in range(3):
        queues = {
            peer: list(deltas) for peer, deltas in per_peer_deltas.items() if deltas
        }
        interleaved: list[tuple[str, object]] = []
        while queues:
            peer = rng.choice(sorted(queues))
            interleaved.append((peer, queues[peer].pop(0)))
            if not queues[peer]:
                del queues[peer]
        assert fold_interleaving(interleaved) == baseline
