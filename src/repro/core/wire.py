"""Binary wire format for WAKU-RLN-RELAY message bundles.

§III-E defines the bundle ``(m, (x, y), phi, epoch, tau, pi)``; this module
gives it a concrete byte encoding so the reproduction's sizes are real
wire sizes, and so interop-style tests can round-trip messages through
bytes instead of passing Python objects around.

Layout (big-endian):

```
offset  size  field
0       2     version (0x0001)
2       4     payload length  n
6       n     payload m
6+n     2     content-topic length  t
8+n     t     content topic (utf-8)
...     8     timestamp (milliseconds since Unix epoch, unsigned, rounded)
...     1     flags (bit 0: ephemeral, bit 1: proof present; others rejected)
-- when the proof flag is set --
...     32    share_x
...     32    share_y
...     32    internal nullifier
...     8     epoch
...     32    tree root tau
...     128   proof pi (A || B || C)
```
"""

from __future__ import annotations

from repro.codec import FIELD, MILLIS, STR, U16, U32, U64, Optional, Record
from repro.codec import blob, const, decode, encode, flags, raw
from repro.core.messages import RateLimitProof
from repro.errors import ProtocolError
from repro.waku.message import WakuMessage
from repro.zksnark.groth16 import Proof

WIRE_VERSION = 1

_FLAG_EPHEMERAL = 0x01
_FLAG_PROOF = 0x02

#: The proof section: §III-E's (x, y), phi, epoch, tau and pi.
_RATE_LIMIT_PROOF = Record(
    ("share_x", FIELD),
    ("share_y", FIELD),
    ("internal_nullifier", FIELD),
    ("epoch", U64),
    ("root", FIELD),
    ("proof", Record(("a", raw(32)), ("b", raw(64)), ("c", raw(32)), build=Proof)),
    build=RateLimitProof,
)

#: Fixed size of the encoded proof section.
PROOF_SECTION_SIZE = _RATE_LIMIT_PROOF.width


def _split(message: WakuMessage) -> tuple:
    proof = message.rate_limit_proof
    if proof is not None and not isinstance(proof, RateLimitProof):
        raise ProtocolError("wire format only carries RateLimitProof bundles")
    bits = (_FLAG_EPHEMERAL if message.ephemeral else 0) | (
        0 if proof is None else _FLAG_PROOF
    )
    return (
        WIRE_VERSION,
        message.payload,
        message.content_topic,
        message.timestamp,
        bits,
        proof,
    )


def _build(
    version: int,
    payload: bytes,
    topic: str,
    timestamp: float,
    bits: int,
    proof: RateLimitProof | None,
) -> WakuMessage:
    return WakuMessage(
        payload=payload,
        content_topic=topic,
        timestamp=timestamp,
        ephemeral=bool(bits & _FLAG_EPHEMERAL),
        rate_limit_proof=proof,
    )


_MESSAGE = Record(
    ("version", const(U16, WIRE_VERSION)),
    ("payload", blob(U32)),
    ("content_topic", STR),
    ("timestamp", MILLIS),
    ("flags", flags(_FLAG_EPHEMERAL | _FLAG_PROOF)),
    ("rate_limit_proof", Optional(_RATE_LIMIT_PROOF, flag=("flags", _FLAG_PROOF))),
    build=_build,
    split=_split,
)


def encode_message(message: WakuMessage) -> bytes:
    """Serialize a WakuMessage (with optional rate-limit proof) to bytes."""
    return encode(_MESSAGE, message)


def decode_message(data: bytes) -> WakuMessage:
    """Parse bytes produced by :func:`encode_message`."""
    return decode(_MESSAGE, data)
