"""Golden wire vectors: one fixed instance per wire type, pinned to hex.

Every transport figure in the reproduction bills ``byte_size()``, and
the bundle, tree-sync, witness and telemetry layouts are the artefacts
the paper specifies, so the exact bytes are part of the contract — not
only their lengths.  Each expected hex string below was captured from
the hand-written encoders that preceded :mod:`repro.codec`; the test
proves the declarative specs reproduce them byte for byte, decode them
back to the same value, and size them exactly — and that the decoders
refuse every non-canonical variant of them.
"""

import pytest

from repro.core.messages import RateLimitProof
from repro.core.wire import decode_message, encode_message
from repro.crypto.field import FIELD_MODULUS, FieldElement
from repro.crypto.merkle import MerkleProof
from repro.crypto.optimized_merkle import TreeUpdate
from repro.errors import ProtocolError
from repro.telemetry.disttrace import SpanContext, SpanRecord
from repro.telemetry.otlp import (
    CounterDelta,
    ExportAck,
    ExportRequest,
    GaugeValue,
    HistogramDelta,
    TelemetryBatch,
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


def fe(value: int) -> FieldElement:
    return FieldElement(value)


LABELS = (("peer", "peer-007"), ("stage", "verdict"))
COUNTER = CounterDelta("events_total", LABELS, 42)
GAUGE = GaugeValue("queue_depth", (("peer", "p"),), 2.5)
HISTOGRAM = HistogramDelta(
    name="wait_seconds",
    labels=LABELS,
    count_delta=3,
    sum_total=0.75,
    min_total=0.125,
    max_total=0.5,
    bucket_deltas=((0, 1), (2, 2)),
    le=(0.1, 0.25, 1.0),
)
SPAN_CONTEXT = SpanContext(
    trace_id=0x0123456789ABCDEF0011223344556677,
    span_id=0xFEDCBA9876543210,
    hop=3,
    origin="peer-001",
)
SPAN_RECORD = SpanRecord(
    trace_id=0x0123456789ABCDEF0011223344556677,
    span_id=0x1111,
    parent_id=0x2222,
    seq=9,
    peer="peer-002",
    origin="peer-001",
    kind="bundle",
    hop=1,
    start=1.5,
    end=1.625,
    marks=(("ingress", 1.5), ("verdict", 1.625)),
)
BATCH = TelemetryBatch(
    peer="peer-007",
    role="full",
    shard=-1,
    seq=5,
    time=12.0,
    dropped_batches=1,
    metrics=(
        COUNTER,
        CounterDelta("drops_total", (), 0.5),
        GAUGE,
        HistogramDelta("verify_seconds", (), 1, 0.03, 0.03, 0.03, ((7, 1),)),
    ),
    spans=(SPAN_RECORD,),
)
PATH = MerkleProof(
    leaf=fe(7),
    index=5,
    siblings=(fe(11), fe(13), fe(FIELD_MODULUS - 1)),
    path_bits=(1, 0, 1),
)
DIGEST = ShardRootDigest(
    seq=17, shard_id=2, new_shard_root=fe(101), new_global_root=fe(202)
)
REMOVAL = ShardRemoval(
    seq=18,
    shard_id=2,
    index=5,
    removed_leaf=fe(7),
    new_shard_root=fe(303),
    new_global_root=fe(404),
)
UPDATE = ShardUpdate(
    seq=19,
    shard_id=2,
    update=TreeUpdate(index=5, new_leaf=fe(99), path=PATH, new_root=fe(505)),
    new_shard_root=fe(606),
    new_global_root=fe(505),
)
CHECKPOINT = TreeCheckpoint(
    seq=20,
    depth=20,
    shard_depth=10,
    leaf_count=1234,
    shard_roots=((0, fe(1)), (3, fe(2))),
    global_root=fe(3),
)
MESSAGE = WakuMessage(
    payload=b"hello rln",
    content_topic="/toy-chat/2/huilong/proto",
    timestamp=1_700_000_000.125,
    ephemeral=True,
    rate_limit_proof=RateLimitProof(
        share_x=fe(1),
        share_y=fe(2),
        internal_nullifier=fe(3),
        epoch=165_000_000,
        root=fe(4),
        proof=Proof(a=b"\xaa" * 32, b=b"\xbb" * 64, c=b"\xcc" * 32),
    ),
)

VALUES = {
    "CounterDelta": COUNTER,
    "GaugeValue": GAUGE,
    "HistogramDelta": HISTOGRAM,
    "TelemetryBatch": BATCH,
    "ExportRequest": ExportRequest(request_id=77, batch=BATCH),
    "ExportAck": ExportAck(request_id=77, seq=5, accepted=True),
    "SpanContext": SPAN_CONTEXT,
    "SpanRecord": SPAN_RECORD,
    "ShardRootDigest": DIGEST,
    "ShardRemoval": REMOVAL,
    "ShardUpdate": UPDATE,
    "TreeCheckpoint": CHECKPOINT,
    "WitnessRequest": WitnessRequest(request_id=8, index=5, trace=SPAN_CONTEXT),
    "WitnessResponse": WitnessResponse(request_id=8, found=True, seq=19, proof=PATH),
    "SnapshotRequest": SnapshotRequest(request_id=9, shard_id=2),
    "SnapshotResponse": SnapshotResponse(
        request_id=9,
        found=True,
        shard_id=2,
        shard_depth=10,
        seq=20,
        leaves=((0, fe(7)), (5, fe(8))),
    ),
    "WakuMessage": MESSAGE,
}

#: Expected encodings, captured from the hand-written encoders.
GOLDEN = {
    "CounterDelta": (
        "43000c6576656e74735f746f74616c020004706565720008706565722d303037"
        "0005737461676500077665726469637400000000000000002a"
    ),
    "GaugeValue": (
        "47000b71756575655f6465707468010004706565720001700140040000000000"
        "00"
    ),
    "HistogramDelta": (
        "48000c776169745f7365636f6e6473020004706565720008706565722d303037"
        "000573746167650007766572646963740100033fb999999999999a3fd0000000"
        "0000003ff000000000000000000000000000033fe80000000000003fc0000000"
        "0000003fe0000000000000000200000000000000000001000200000000000000"
        "02"
    ),
    "TelemetryBatch": (
        "0008706565722d303037000466756c6cffffffff000000000000000540280000"
        "0000000000000000000000010000000443000c6576656e74735f746f74616c02"
        "0004706565720008706565722d30303700057374616765000776657264696374"
        "00000000000000002a43000b64726f70735f746f74616c00013fe00000000000"
        "0047000b71756575655f64657074680100047065657200017001400400000000"
        "000048000e7665726966795f7365636f6e6473000000000000000000013f9eb8"
        "51eb851eb83f9eb851eb851eb83f9eb851eb851eb80001000700000000000000"
        "0100010123456789abcdef001122334455667700000000000011110000000000"
        "002222000000000000000900013ff80000000000003ffa000000000000000870"
        "6565722d3030320008706565722d303031000662756e646c6500020007696e67"
        "726573733ff80000000000000007766572646963743ffa000000000000"
    ),
    "ExportRequest": (
        "000000000000004d0008706565722d303037000466756c6cffffffff00000000"
        "00000005402800000000000000000000000000010000000443000c6576656e74"
        "735f746f74616c020004706565720008706565722d3030370005737461676500"
        "077665726469637400000000000000002a43000b64726f70735f746f74616c00"
        "013fe000000000000047000b71756575655f6465707468010004706565720001"
        "7001400400000000000048000e7665726966795f7365636f6e64730000000000"
        "00000000013f9eb851eb851eb83f9eb851eb851eb83f9eb851eb851eb8000100"
        "07000000000000000100010123456789abcdef00112233445566770000000000"
        "0011110000000000002222000000000000000900013ff80000000000003ffa00"
        "00000000000008706565722d3030320008706565722d303031000662756e646c"
        "6500020007696e67726573733ff80000000000000007766572646963743ffa00"
        "0000000000"
    ),
    "ExportAck": (
        "000000000000004d000000000000000501"
    ),
    "SpanContext": (
        "0123456789abcdef0011223344556677fedcba98765432100003000870656572"
        "2d303031"
    ),
    "SpanRecord": (
        "0123456789abcdef001122334455667700000000000011110000000000002222"
        "000000000000000900013ff80000000000003ffa000000000000000870656572"
        "2d3030320008706565722d303031000662756e646c6500020007696e67726573"
        "733ff80000000000000007766572646963743ffa000000000000"
    ),
    "ShardRootDigest": (
        "0000000000000011000000020000000000000000000000000000000000000000"
        "0000000000000000000000650000000000000000000000000000000000000000"
        "0000000000000000000000ca"
    ),
    "ShardRemoval": (
        "0000000000000012000000020000000000000005000000000000000000000000"
        "0000000000000000000000000000000000000007000000000000000000000000"
        "000000000000000000000000000000000000012f000000000000000000000000"
        "0000000000000000000000000000000000000194"
    ),
    "ShardUpdate": (
        "0000000000000013000000020000000000000005000000000000000000000000"
        "0000000000000000000000000000000000000063000000000000000000000000"
        "000000000000000000000000000000000000025e000000000000000000000000"
        "00000000000000000000000000000000000001f9000000000000000500030000"
        "0000000000000000000000000000000000000000000000000000000000070000"
        "00000000000000000000000000000000000000000000000000000000000b0000"
        "00000000000000000000000000000000000000000000000000000000000d3064"
        "4e72e131a029b85045b68181585d2833e84879b9709143e1f593f0000000"
    ),
    "TreeCheckpoint": (
        "0000000000000014140a00000000000004d20000000200000000000000000000"
        "0000000000000000000000000000000000000000000000000001000000030000"
        "0000000000000000000000000000000000000000000000000000000000020000"
        "000000000000000000000000000000000000000000000000000000000003"
    ),
    "WitnessRequest": (
        "000000000000000800000000000000050123456789abcdef0011223344556677"
        "fedcba987654321000030008706565722d303031"
    ),
    "WitnessResponse": (
        "0000000000000008010000000000000013010000000000000005000300000000"
        "0000000000000000000000000000000000000000000000000000000700000000"
        "0000000000000000000000000000000000000000000000000000000b00000000"
        "0000000000000000000000000000000000000000000000000000000d30644e72"
        "e131a029b85045b68181585d2833e84879b9709143e1f593f0000000"
    ),
    "SnapshotRequest": (
        "000000000000000900000002"
    ),
    "SnapshotResponse": (
        "000000000000000901000000020a000000000000001400000002000000000000"
        "0000000000000000000000000000000000000000000000000000000000070000"
        "0005000000000000000000000000000000000000000000000000000000000000"
        "0008"
    ),
    "WakuMessage": (
        "00010000000968656c6c6f20726c6e00192f746f792d636861742f322f687569"
        "6c6f6e672f70726f746f0000018bcfe5687d0300000000000000000000000000"
        "0000000000000000000000000000000000000100000000000000000000000000"
        "0000000000000000000000000000000000000200000000000000000000000000"
        "000000000000000000000000000000000000030000000009d5b3400000000000"
        "000000000000000000000000000000000000000000000000000004aaaaaaaaaa"
        "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaabbbbbbbbbb"
        "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb"
        "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbcccccccccc"
        "cccccccccccccccccccccccccccccccccccccccccccccccccccccc"
    ),
}


def encode(name: str, value) -> bytes:
    return encode_message(value) if name == "WakuMessage" else value.to_bytes()


def decode(name: str, data: bytes):
    if name == "WakuMessage":
        return decode_message(data)
    return type(VALUES[name]).from_bytes(data)


def test_every_wire_type_has_a_golden_vector():
    assert len(GOLDEN) == 17 and set(GOLDEN) == set(VALUES)


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_wire_bytes(name):
    value, expected = VALUES[name], GOLDEN[name]
    data = bytes.fromhex(expected)
    assert encode(name, value).hex() == expected
    assert decode(name, data) == value
    if name != "WakuMessage":  # its byte_size() omits the 8 B framing
        assert value.byte_size() == len(data)


@pytest.mark.parametrize("name", list(GOLDEN))
def test_trailing_bytes_are_rejected(name):
    with pytest.raises(ProtocolError):
        decode(name, bytes.fromhex(GOLDEN[name]) + b"\x00")


def _patched(name: str, offset: int, replacement: bytes) -> bytes:
    data = bytearray.fromhex(GOLDEN[name])
    data[offset : offset + len(replacement)] = replacement
    return bytes(data)


@pytest.mark.parametrize(
    "name, offset, replacement",
    [
        # A field element >= p (root p + 3 must not decode as root 3).
        ("ShardRootDigest", 12, (FIELD_MODULUS + 3).to_bytes(32, "big")),
        ("ShardRemoval", 20, FIELD_MODULUS.to_bytes(32, "big")),
        ("SnapshotResponse", 30, (FIELD_MODULUS + 8).to_bytes(32, "big")),
        # Bool bytes other than 0 or 1.
        ("WitnessResponse", 8, b"\x07"),
        ("ExportAck", 16, b"\x07"),
        ("SnapshotResponse", 8, b"\x02"),
        # Optional presence byte other than 0 or 1.
        ("WitnessResponse", 17, b"\x02"),
        # Unknown metric tag, unknown number tag.
        ("CounterDelta", 0, b"X"),
        ("CounterDelta", 48, b"\x02"),
    ],
)
def test_non_canonical_bytes_are_rejected(name, offset, replacement):
    with pytest.raises(ProtocolError):
        decode(name, _patched(name, offset, replacement))
