"""Shard-scoped tree-sync announcements and their wire encoding.

Four artefacts flow between peers (§III-C, sharded):

* :class:`ShardUpdate` — one membership event, tagged with its shard:
  carries the full pre-change path (for members of that shard and for
  flat/optimized-view consumers) plus the post-change shard and global
  roots;
* :class:`ShardRemoval` — one member *deletion* (slash or withdraw),
  compact by construction: the new leaf is the zero leaf by definition
  and home-shard peers hold their shard materialised, so no path needs
  to travel — just the slot index and the claimed post-removal roots the
  local replay is cross-checked against.  A removal is a security event:
  consumers collapse their accepted-root window to the post-removal root
  so the removed member's stale witnesses stop validating immediately,
  instead of surviving until the window ages out (§III-F economics).
  It travels on *both* the shard topic and the digest topic (it is its
  own O(1) digest — foreign peers must also learn that the event was a
  removal, or their windows would stay open);
* :class:`ShardRootDigest` — the O(1) projection of a :class:`ShardUpdate`
  that peers *outside* the shard consume: no path, just the new roots.
  This is the object whose small size and zero hash cost experiment E12
  measures;
* :class:`TreeCheckpoint` — a periodic snapshot of every non-empty shard
  root, archived by Waku store nodes so a peer that missed events can
  restore foreign-shard state without replaying history.

Each type serialises to bytes (a field spec in :mod:`repro.codec`) so
it can travel as a :class:`~repro.waku.message.WakuMessage` payload on
the tree-sync content topics and be archived/queried like any other
Waku traffic.  Every decoder is strict — trailing or missing bytes are a
:class:`~repro.errors.ProtocolError` — so types sharing a topic
(:class:`ShardUpdate`/:class:`ShardRemoval` on the shard topics,
:class:`ShardRootDigest`/:class:`ShardRemoval` on the digest topic)
decode unambiguously: a payload parses as exactly one of them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codec import FIELD, U8, U16, U32, U64, Record, Repeated, message, row
from repro.crypto.field import FieldElement
from repro.crypto.merkle import MerkleProof
from repro.crypto.optimized_merkle import TreeUpdate

#: Content topic carrying full :class:`ShardUpdate`s for one shard.
def shard_topic(shard_id: int) -> str:
    return f"/treesync/1/shard-{shard_id}/proto"


#: Content topic carrying every event's :class:`ShardRootDigest`.
DIGEST_TOPIC = "/treesync/1/roots/proto"

#: Content topic carrying periodic :class:`TreeCheckpoint`s.
CHECKPOINT_TOPIC = "/treesync/1/checkpoint/proto"


def _merkle_proof(
    index: int, depth: int, leaf: FieldElement, siblings: tuple
) -> MerkleProof:
    bits = tuple((index >> level) & 1 for level in range(depth))
    return MerkleProof(leaf=leaf, index=index, siblings=siblings, path_bits=bits)


#: An authentication path: the leaf travels between ``depth`` and the
#: ``depth`` siblings it counts; the path bits are the index's.
MERKLE_PROOF = Record(
    ("index", U64),
    ("depth", U16),
    ("leaf", FIELD),
    ("siblings", Repeated(FIELD, count="depth")),
    build=_merkle_proof,
)


@message(
    ("seq", U64),
    ("shard_id", U32),
    ("new_shard_root", FIELD),
    ("new_global_root", FIELD),
)
@dataclass(frozen=True)
class ShardRootDigest:
    """What a foreign-shard peer needs from one membership event: the roots."""

    seq: int
    shard_id: int
    new_shard_root: FieldElement
    new_global_root: FieldElement


@message(
    ("seq", U64),
    ("shard_id", U32),
    ("index", U64),
    ("removed_leaf", FIELD),
    ("new_shard_root", FIELD),
    ("new_global_root", FIELD),
)
@dataclass(frozen=True)
class ShardRemoval:
    """One member deletion, scoped to its shard — the revocation artefact.

    ``index`` is the *global* leaf index whose slot was zeroed;
    ``removed_leaf`` is the commitment that died there (home peers
    cross-check it against their shard before zeroing, so a forged
    removal cannot blank an arbitrary slot it does not know the content
    of).  Carries no path: home-shard members replay the zero write on
    their materialised shard and cross-check ``new_shard_root``; everyone
    else records the roots in O(1), exactly like a digest — but, unlike
    a digest, a removal also collapses the consumer's accepted-root
    window (see :meth:`~repro.treesync.sync.ShardSyncManager.commit`).
    """

    seq: int
    shard_id: int
    index: int
    removed_leaf: FieldElement
    new_shard_root: FieldElement
    new_global_root: FieldElement

    def digest(self) -> "ShardRemoval":
        """A removal is already O(1) — it is its own digest projection.

        Returning ``self`` (rather than a :class:`ShardRootDigest`) is
        deliberate: the digest feed must preserve removal semantics or
        foreign peers would never collapse their root windows.
        """
        return self


def _shard_update(
    seq: int,
    shard_id: int,
    index: int,
    new_leaf: FieldElement,
    shard_root: FieldElement,
    global_root: FieldElement,
    path: MerkleProof,
) -> "ShardUpdate":
    # The global root is stored once: it doubles as the TreeUpdate's
    # new_root.
    return ShardUpdate(
        seq=seq,
        shard_id=shard_id,
        update=TreeUpdate(
            index=index, new_leaf=new_leaf, path=path, new_root=global_root
        ),
        new_shard_root=shard_root,
        new_global_root=global_root,
    )


@message(
    ("seq", U64),
    ("shard_id", U32),
    ("update.index", U64),
    ("update.new_leaf", FIELD),
    ("new_shard_root", FIELD),
    ("new_global_root", FIELD),
    ("update.path", MERKLE_PROOF),
    build=_shard_update,
)
@dataclass(frozen=True)
class ShardUpdate:
    """One membership event scoped to its shard.

    ``update`` carries the *global*-index pre-change path (the flat-tree
    splice), so legacy :class:`~repro.crypto.optimized_merkle.OptimizedMerkleView`
    consumers can apply it unchanged; shard members only replay the leaf
    write and cross-check ``new_shard_root``.
    """

    seq: int
    shard_id: int
    update: TreeUpdate
    new_shard_root: FieldElement
    new_global_root: FieldElement

    def digest(self) -> ShardRootDigest:
        """The O(1) foreign-shard projection of this event."""
        return ShardRootDigest(
            seq=self.seq,
            shard_id=self.shard_id,
            new_shard_root=self.new_shard_root,
            new_global_root=self.new_global_root,
        )


@message(
    ("seq", U64),
    ("depth", U8),
    ("shard_depth", U8),
    ("leaf_count", U64),
    ("shard_roots", Repeated(row(U32, FIELD), count=U32)),
    ("global_root", FIELD),
)
@dataclass(frozen=True)
class TreeCheckpoint:
    """Snapshot of the forest's commitment state at event ``seq``.

    Lists only non-empty shards; absent shards are the empty-shard
    constant.  A consumer restores foreign-shard state from this and
    replays only the deltas after ``seq``.
    """

    seq: int
    depth: int
    shard_depth: int
    leaf_count: int
    shard_roots: tuple[tuple[int, FieldElement], ...]
    global_root: FieldElement
