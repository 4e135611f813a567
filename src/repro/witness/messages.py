"""Wire types of the witness & snapshot protocol.

Two request/response pairs travel on the ``witness`` protocol channel
(one more libp2p-style stream next to 13/WAKU2-STORE and
19/WAKU2-LIGHTPUSH):

* :class:`WitnessRequest` → :class:`WitnessResponse` — a light member asks
  a resourceful peer for the full-depth authentication path of one leaf;
  the server answers with the spliced (shard ∥ top) path.  The response
  deliberately carries **no claimed root**: the client folds the path
  itself and accepts only if the result is a root it already trusts.
* :class:`SnapshotRequest` → :class:`SnapshotResponse` — a late joiner
  whose home-topic history aged out of store retention asks for the leaf
  content of one shard.  Again no claimed root travels: the client
  rebuilds the shard tree locally and compares against the root its own
  accepted checkpoint+digest stream commits to.

Every type serialises to bytes (a field spec in :mod:`repro.codec`,
sharing the authentication-path layout of the tree-sync artefacts) so
the protocol could ride real transport frames; the simulated network
carries the dataclasses and bills ``byte_size()``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codec import BOOL, FIELD, U8, U32, U64, Optional, Repeated, message, row
from repro.crypto.field import FieldElement
from repro.crypto.merkle import MerkleProof
from repro.telemetry.disttrace import SpanContext
from repro.treesync.messages import MERKLE_PROOF

#: Protocol channel witness and snapshot *requests* travel on.
WITNESS_PROTOCOL = "witness"

#: Channel the responses come back on.  Distinct from the request channel
#: so one peer can run a service (registered on the request channel) and
#: a client (registered here) simultaneously — a resourceful peer is
#: explicitly allowed to fetch rather than hold.
WITNESS_REPLY_PROTOCOL = "witness-reply"


@message(
    ("request_id", U64),
    ("index", U64),
    ("trace", Optional(SpanContext.codec, trailing=True)),
)
@dataclass(frozen=True)
class WitnessRequest:
    """Ask for the authentication path of the leaf at global ``index``.

    ``trace`` is an optional distributed-tracing span context: when a
    traced publish needs a witness fetch first, the request carries the
    publish span so the server's serve span joins the same propagation
    tree.  It rides as *trailing* bytes — an untraced request encodes
    exactly the 16 bytes it always did.  Anything after the context is
    rejected as malformed.
    """

    request_id: int
    index: int
    trace: "SpanContext | None" = None


@message(
    ("request_id", U64),
    ("found", BOOL),
    ("seq", U64),
    ("proof", Optional(MERKLE_PROOF)),
)
@dataclass(frozen=True)
class WitnessResponse:
    """The spliced full-depth path, or a miss (``found=False``).

    ``seq`` is the server's membership-event frontier when the path was
    extracted — diagnostic only; the client's acceptance decision rests
    exclusively on folding ``proof`` to a locally accepted root.
    """

    request_id: int
    found: bool
    seq: int = 0
    proof: MerkleProof | None = None


@message(("request_id", U64), ("shard_id", U32))
@dataclass(frozen=True)
class SnapshotRequest:
    """Ask for the leaf content of one shard (late-joiner bootstrap)."""

    request_id: int
    shard_id: int


@message(
    ("request_id", U64),
    ("found", BOOL),
    ("shard_id", U32),
    ("shard_depth", U8),
    ("seq", U64),
    ("leaves", Repeated(row(U32, FIELD), count=U32)),
)
@dataclass(frozen=True)
class SnapshotResponse:
    """Sparse leaf content of one shard at the server's event ``seq``.

    ``leaves`` lists only occupied slots as ``(local_index, leaf)`` pairs;
    absent slots are the zero leaf.  The requester rebuilds the depth-
    ``shard_depth`` subtree from them and must reject the snapshot unless
    the rebuilt root equals the shard root its *own* accepted stream
    (checkpoint + digests) commits to.
    """

    request_id: int
    found: bool
    shard_id: int = 0
    shard_depth: int = 0
    seq: int = 0
    leaves: tuple[tuple[int, FieldElement], ...] = ()
